"""Command-line interface.

    grlb compute --family X3 --n 7 --k 4          exact R plus decimal
    grlb table --id 2 --format csv                regenerate a published table
    grlb verify --suite lemmas --max-n 12         run a verification suite

Exit codes: 0 success, 2 invalid arguments, 3 verification failure.
The environment variable GRLB_MAX_N overrides the exact-computation ceiling
on the size parameter n (default 100).  Under every command a bad or too-low
GRLB_MAX_N, or any n past the ceiling, is an invalid argument (exit 2).

Importing this module loads `records` and `engine` (with `exactnum` and
`rootsystems`) only: `verify` imports `suites`, which brings `oracle` and
`closedforms`, and `compute --route closed-form` imports `closedforms`.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, records
from .engine import FAMILIES, HorosphericalDatum, InvalidDatumError

VERIFY_FAILURE_EXIT = 3
#: `suites.SUITES`, in its order: the parser names them without importing `suites`.
_SUITES = ("lemmas", "closed-forms", "oracle", "bounds")
#: The decimal expansion takes time quadratic in its length.
MAX_DIGITS = 100_000


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grlb",
        description="Exact greatest Ricci lower bounds of the nonhomogeneous projective "
        "horospherical manifolds of Picard number one.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"grlb, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    default = "(default: %(default)s)"

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        sub.set_defaults(error=sub.error)  # main's errors print this command's usage
        return sub

    compute = command("compute", "Compute the exact greatest Ricci lower bound of one manifold.")
    compute.add_argument("--family", required=True, choices=FAMILIES)
    compute.add_argument("--n", type=int, help="Size parameter (X1, X3).")
    compute.add_argument("--k", type=int, help="Marked-root parameter (X3).")
    compute.add_argument(
        "--digits", type=int, default=4, help=f"Decimal digits to render, 1..{MAX_DIGITS}. {default}"
    )
    compute.add_argument("--format", choices=["text", "json", "csv"], default="text", help=default)
    compute.add_argument(
        "--route",
        choices=["engine", "closed-form"],
        default="engine",
        help=f"Compute R via the moment-polytope engine or the family's integral formula. {default}",
    )
    table = command("table", "Regenerate one of the published tables from the engine.")
    table.add_argument("--id", required=True, type=int, choices=[1, 2, 3], help="Table number.")
    table.add_argument("--format", choices=["text", "json", "csv"], default="text", help=default)
    verify = command("verify", "Run a verification suite; exits 3 if any check fails.")
    verify.add_argument("--suite", required=True, choices=_SUITES)
    verify.add_argument("--max-n", type=int, default=12, help=default)
    verify.add_argument("--format", choices=["text", "json"], default="text", help=default)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code, or exits 2 on an invalid argument."""
    # parse_args would report an unknown option under grlb's usage, not the command's.
    args, unknown = _parser().parse_known_args(argv)
    if unknown:
        args.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if args.command == "compute":
            if not 1 <= args.digits <= MAX_DIGITS:
                args.error(f"--digits must be between 1 and {MAX_DIGITS}")
            datum = HorosphericalDatum(args.family, n=args.n, k=args.k)
            rows = records.record_for(datum, digits=args.digits, route=args.route)
        elif args.command == "table":
            rows = records.table_rows(args.id)
        else:
            if args.max_n < 2:
                args.error("--max-n must be at least 2")
            from . import suites

            rows = records.verify_rows(args.suite, args.max_n, suites.run_suite(args.suite, args.max_n))
    except InvalidDatumError as exc:
        args.error(str(exc))
    # UTF-8 whatever the locale: the tables print "≈".
    sys.stdout.buffer.write((records.render(rows, args.format) + "\n").encode())
    if args.command == "verify" and not rows.payload["passed"]:
        return VERIFY_FAILURE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
