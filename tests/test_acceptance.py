"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion (plain `pytest` shows the same one-line-per-criterion verdict
through the verbose test names).
"""

import time
from collections import Counter
from fractions import Fraction

from grlb import closedforms, engine, oracle
from grlb.engine import HorosphericalDatum
from grlb.exactnum import poly_product
from grlb.records import parse_frac, table_rows
from grlb.rootsystems import weight_of_root_sum

F = Fraction

TABLE3_FRACTIONS = {
    2: F(15, 16),
    3: F(7, 8),
    4: F(105, 128),
    5: F(99, 128),
    6: F(3003, 4096),
    7: F(715, 1024),
}

#: Printed decimal cells of the published n-grid table, keyed by row.
TABLE2_PRINTED = {
    "X1": ["0.8955", "0.8755", "0.8686", "0.8685", "0.8715", "0.8863", "0.9251", "0.9451", "0.9644", "0.9737"],
    "X3(.,2)": ["0.972", "0.984", "0.99", "0.993", "0.995", "0.9975", "0.9994", "0.9997", "0.9999", "0.99995"],
    "X3(.,3)": ["0.875", "0.9375", "0.9625", "0.975", "0.982", "0.9917", "0.9980", "0.9991", "0.9997", "0.99984"],
    "X3(.,4)": [None, "0.820", "0.902", "0.938", "0.958", "0.9813", "0.9958", "0.9982", "0.9994", "0.99968"],
}


def _announce(number: int, title: str) -> None:
    print(f"criterion {number} ({title}): PASS", flush=True)


def _within_one_ulp(value: Fraction, printed: str) -> bool:
    digits = len(printed.split(".")[1])
    return abs(value - F(printed)) <= F(1, 10**digits)


def test_criterion_1_exact_golden_fractions():
    start = time.perf_counter()
    assert engine.report(HorosphericalDatum("X5")).R == F(56, 67)
    assert engine.report(HorosphericalDatum("X2")).R == F(20, 21)
    assert engine.report(HorosphericalDatum("X4")).R == F(178992099, 243545402)
    for n, expected in TABLE3_FRACTIONS.items():
        assert engine.report(HorosphericalDatum("X3", n=n, k=n)).R == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"golden fractions took {elapsed:.2f}s, budget is 5s"
    _announce(1, "exact golden fractions")


def test_criterion_2_table2_reproduction():
    start = time.perf_counter()
    rows = table_rows(2).payload["rows"]
    assert [row["label"] for row in rows] == list(TABLE2_PRINTED)
    for row in rows:
        printed_row = TABLE2_PRINTED[row["label"]]
        for cell, printed in zip(row["cells"], printed_row):
            if printed is None:
                assert cell is None
                continue
            assert cell is not None
            assert _within_one_ulp(parse_frac(cell["R"]), printed), (
                f"{row['label']} n={cell['n']}: computed {cell['decimal']} "
                f"vs printed {printed}"
            )
    x1_row = {c["n"]: parse_frac(c["R"]) for c in rows[0]["cells"]}
    # Non-monotone dip: decreasing from n=3 through n=6, then increasing.
    assert x1_row[3] > x1_row[4] > x1_row[5] > x1_row[6]
    assert x1_row[6] < x1_row[7]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"table took {elapsed:.1f}s, budget is 600s"
    _announce(2, "published n-grid table reproduced")


def test_criterion_3_barycenter_goldens():
    assert engine.report(HorosphericalDatum("X5")).barycenter_t == F(-11, 28)
    assert engine.report(HorosphericalDatum("X2")).barycenter_t == F(3, 20)
    assert engine.report(HorosphericalDatum("X4")).barycenter_t == F(64553303, 59664033)
    _announce(3, "barycenter goldens")


def _grid_data(max_n: int):
    yield HorosphericalDatum("X2")
    yield HorosphericalDatum("X4")
    yield HorosphericalDatum("X5")
    for n in range(3, max_n + 1):
        yield HorosphericalDatum("X1", n=n)
    for n in range(2, max_n + 1):
        for k in range(2, n + 1):
            yield HorosphericalDatum("X3", n=n, k=k)


def _minus(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
    """u - v as a dict of the nonzero coefficients."""
    diff = Counter(u)
    diff.subtract(v)
    return {m: c for m, c in diff.items() if c}


def test_criterion_4_cross_derivation():
    expected_two_rho_p = {
        "X2": lambda d: {1: 3, 3: 4},
        "X4": lambda d: {2: 3, 3: 3},
        "X5": lambda d: {1: 2, 2: 2},
        "X1": lambda d: {d.n - 1: d.n, d.n: 2},
        "X3": lambda d: {d.k - 1: d.k, d.k: 2 * d.n - 2 * d.k + 2},
    }
    for datum in _grid_data(12):
        rs, i, j = engine.resolve(datum)
        unipotent_sum = weight_of_root_sum(rs, engine.phi_pu(rs, i, j))
        # Complementary derivation: all positive roots minus the Levi part.
        levi = [r for r in rs.positive_roots if r[i - 1] == 0 and r[j - 1] == 0]
        two_rho_g = weight_of_root_sum(rs, rs.positive_roots)
        two_rho_l = weight_of_root_sum(rs, levi)
        assert unipotent_sum == _minus(two_rho_g, two_rho_l), datum.label()
        assert unipotent_sum == expected_two_rho_p[datum.family](datum), datum.label()
    _announce(4, "2*rho_P cross-derivation")


def test_criterion_5_formula_equivalence():
    for n in range(3, 13):
        lhs = engine.report(HorosphericalDatum("X1", n=n)).R
        assert lhs == closedforms.r_x1_formula(n), f"X1({n})"
    for n in range(2, 13):
        for k in range(2, n + 1):
            lhs = engine.report(HorosphericalDatum("X3", n=n, k=k)).R
            assert lhs == closedforms.r_x3_formula(n, k), f"X3({n},{k})"
    _announce(5, "engine equals closed forms")


def test_criterion_6_lemma_suites():
    for n in range(3, 21):
        assert closedforms.lemma_x1_sign(n).holds, f"x1 sign at n={n}"
    for n in range(3, 21):
        for k in range(2, n):
            assert closedforms.lemma_x3nk_sign(n, k).holds, f"x3 ratio at ({n},{k})"
    for n in range(2, 31):
        assert closedforms.a_sequence(n) > 2, f"a_{n}"
    for n in range(0, 30):
        assert closedforms.a_sequence(n + 1) == (
            closedforms.a_recurrence_factor(n) * closedforms.a_sequence(n)
        ), f"a recurrence at n={n}"
    for n in range(3, 13):
        assert closedforms.x1_comparison_integral(n) == 0, f"comparison zero at n={n}"
    _announce(6, "inequality lemmas")


def test_criterion_7_bounds():
    for n in range(3, 21):
        check = closedforms.asymptotic_bounds("X1", n)
        assert check.holds and check.rhs == F(n, n + 2), f"X1 bound at n={n}"
    for n in range(3, 21):
        for k in range(2, n):
            check = closedforms.asymptotic_bounds("X3", n, k)
            assert check.holds, f"X3 bound at ({n},{k})"
            assert check.rhs == F(2 * n - 2 * k + 2, 2 * n - k + 2)
    margins = []
    for n in range(2, 31):
        check = closedforms.asymptotic_bounds("X3", n, n)
        assert check.holds and check.margin > 0, f"Stirling at n={n}"
        margins.append(float(check.margin))
    # Limit behaviour at desk scale: R(X3(n,n)) marches monotonically down.
    values = [closedforms.r_x3nn_closed(n) for n in range(2, 31)]
    assert all(x > y for x, y in zip(values, values[1:]))
    print(f"  stirling margins: min={min(margins):.4g} max={max(margins):.4g}")
    _announce(7, "asymptotic bounds with positive margins")


def test_criterion_8_oracle_agreement():
    for datum in _grid_data(8):
        rep = oracle.crosscheck(datum)
        assert rep.ok, (
            f"{datum.label()}: tbar_err={rep.t_bar_rel_err:.2e} r_err={rep.r_rel_err:.2e}"
        )
    _announce(8, "quadrature oracle agreement at 1e-9")


def test_criterion_9_property_suite():
    small = [
        HorosphericalDatum("X1", n=4),
        HorosphericalDatum("X2"),
        HorosphericalDatum("X3", n=5, k=3),
        HorosphericalDatum("X3", n=4, k=4),
        HorosphericalDatum("X4"),
        HorosphericalDatum("X5"),
    ]

    def barycenter_on(rs, seg):
        marked = Counter((r[seg.i - 1], r[seg.j - 1]) for r in engine.phi_pu(rs, seg.i, seg.j))
        d_i, d_j = rs.half_lengths[seg.i - 1], rs.half_lengths[seg.j - 1]
        return engine._barycenter(seg, engine._forms(marked, d_i, d_j))

    for datum in small:
        rs, i, j = engine.resolve(datum)
        roots = engine.phi_pu(rs, i, j)
        seg = engine.moment_segment(datum)
        t_bar = barycenter_on(rs, seg)
        assert t_bar == engine.report(datum).barycenter_t, datum.label()
        r_value = engine.ricci_bound(seg.a, seg.b, t_bar)
        for lam in (F(2), F(1, 3)):
            scaled = rs._replace(half_lengths=tuple(lam * d for d in rs.half_lengths))
            assert engine.dh_polynomial_on(scaled, seg) == poly_product(
                [(lam ** len(roots),), engine.dh_polynomial_on(rs, seg)]
            ), datum.label()
            assert barycenter_on(scaled, seg) == t_bar, datum.label()
        flipped = engine.MomentSegment(seg.j, seg.i, seg.b, seg.a)
        t_bar_flipped = barycenter_on(rs, flipped)
        assert t_bar_flipped == -t_bar
        assert engine.ricci_bound(flipped.a, flipped.b, t_bar_flipped) == r_value

    def dimension(datum):
        return engine.report(datum).dimension

    assert dimension(HorosphericalDatum("X2")) == 9
    assert dimension(HorosphericalDatum("X4")) == 23
    assert dimension(HorosphericalDatum("X5")) == 7
    for n in range(3, 13):
        assert dimension(HorosphericalDatum("X1", n=n)) == n * (n + 3) // 2
    for n in range(2, 13):
        for k in range(2, n + 1):
            datum = HorosphericalDatum("X3", n=n, k=k)
            rs, i, j = engine.resolve(datum)
            assert dimension(datum) == len(engine.phi_pu(rs, i, j)) + 1
            assert dimension(datum) == k * (4 * n - 3 * k + 3) // 2
    _announce(9, "scale, orientation and dimension properties")
