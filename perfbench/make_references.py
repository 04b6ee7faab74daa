"""Regenerate perfbench/references.json from the current engine.

    python3 perfbench/make_references.py

For every compute op it stores the SHA-256 digest of R as rendered "p/q",
after checking that R equals the closed-form route (closedforms.r_x1_formula
or r_x3_formula).  For every verify op it stores the number of checks the
suite runs, after checking that every check passes.  The lemmas suite at
max-n 24 raises before it returns, so its count comes from the suite's grid,
which is checked against a run at max-n 19, the largest that completes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run


def lemmas_check_count(max_n: int) -> int:
    """Checks in the lemmas suite: x1-sign, x3-ratio, a_n>2, recurrence, comparison."""
    return (max_n - 2) + (max_n - 2) * (max_n - 1) // 2 + (max_n - 1) + max_n + (max_n - 2)


def main() -> int:
    grlb = run.import_grlb()
    engine, records, closedforms, suites = (grlb[m] for m in ("engine", "records", "closedforms", "suites"))
    compute = {}
    data = [engine.HorosphericalDatum("X1", n=n) for n in run.X1_LARGE]
    data += [engine.HorosphericalDatum("X3", n=n, k=k) for n, k in run.X3_WIDE]
    for d in data:
        r = json.loads(records.record_to_json(records.record_for(d)))["R"]
        num, den = r.split("/")
        if d.family == "X1":
            closed = closedforms.r_x1_formula(d.n)
        else:
            closed = closedforms.r_x3_formula(d.n, d.k)
        if Fraction(int(num), int(den)) != closed:
            raise SystemExit(f"{d.label()}: engine R differs from the closed form")
        compute[d.label()] = run.r_digest(r)

    smaller = suites.run_suite("lemmas", 19)
    if len(smaller) != lemmas_check_count(19) or not all(c.passed for c in smaller):
        raise SystemExit("lemmas suite grid no longer matches lemmas_check_count")
    counts = {}
    for suite, max_n in run.VERIFY:
        if suite == "lemmas":
            counts[run.suite_label(suite, max_n)] = lemmas_check_count(max_n)
            continue
        results = suites.run_suite(suite, max_n)
        if not all(c.passed for c in results):
            raise SystemExit(f"suite {suite} at max-n {max_n} has failing checks")
        counts[run.suite_label(suite, max_n)] = len(results)

    run.REFERENCES.write_text(json.dumps({"compute": compute, "suites": counts}, indent=1) + "\n")
    print(f"wrote {len(compute)} R digests and {len(counts)} suite check counts to {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
