"""Command-line interface.

    grlb compute --family X3 --n 7 --k 4          exact R plus decimal
    grlb table --id 2 --format csv                regenerate a published table
    grlb verify --suite lemmas --max-n 12         run a verification suite

Exit codes: 0 success, 2 invalid arguments, 3 verification failure.
The environment variable GRLB_MAX_N overrides the exact-computation ceiling
on the size parameter n (default 100).  Under every command a bad or too-low
GRLB_MAX_N, or any n past the ceiling, is an invalid argument (exit 2).
"""

from __future__ import annotations

import json
import sys

import click

from . import records, suites, tables
from .engine import HorosphericalDatum, InvalidDatumError

VERIFY_FAILURE_EXIT = 3


class _Command(click.Command):
    """A command that reports an InvalidDatumError as a usage error (exit 2)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except InvalidDatumError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.version_option(version="0.1.0", prog_name="grlb")
def cli() -> None:
    """Exact greatest Ricci lower bounds of the nonhomogeneous projective
    horospherical manifolds of Picard number one."""


@cli.command()
@click.option("--family", required=True, type=click.Choice(["X1", "X2", "X3", "X4", "X5"]))
@click.option("--n", "n", type=int, default=None, help="Size parameter (X1, X3).")
@click.option("--k", "k", type=int, default=None, help="Marked-root parameter (X3).")
@click.option("--digits", type=int, default=4, show_default=True, help="Decimal digits to render.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True
)
@click.option(
    "--route",
    type=click.Choice(["engine", "closed-form"]),
    default="engine",
    show_default=True,
    help="Compute R via the moment-polytope engine or the family's integral formula.",
)
def compute(family: str, n: int | None, k: int | None, digits: int, fmt: str, route: str) -> None:
    """Compute the exact greatest Ricci lower bound of one manifold."""
    if digits < 1:
        raise click.UsageError("--digits must be at least 1")
    record = records.record_for(HorosphericalDatum(family, n=n, k=k), digits=digits, route=route)
    if fmt == "json":
        click.echo(records.record_to_json(record))
    elif fmt == "csv":
        click.echo(records.CSV_HEADER)
        click.echo(records.record_to_csv_row(record))
    else:
        click.echo(records.record_to_text(record))


@cli.command()
@click.option("--id", "table_id", required=True, type=click.IntRange(1, 3), help="Table number.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True
)
def table(table_id: int, fmt: str) -> None:
    """Regenerate one of the published tables from the engine."""
    click.echo(tables.render_table(table_id, fmt))


@cli.command()
@click.option("--suite", required=True, type=click.Choice(list(suites.SUITES)))
@click.option("--max-n", "max_n", type=int, default=12, show_default=True)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
def verify(suite: str, max_n: int, fmt: str) -> None:
    """Run a verification suite; exits 3 if any check fails."""
    if max_n < 2:
        raise click.UsageError("--max-n must be at least 2")
    results = suites.run_suite(suite, max_n)
    passed = all(r.passed for r in results)
    if fmt == "json":
        payload = {
            "schema_version": records.SCHEMA_VERSION,
            "suite": suite,
            "max_n": max_n,
            "passed": passed,
            "checks": [r.to_dict() for r in results],
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            click.echo(f"{status} {r.name}: {r.detail}")
        click.echo(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    if not passed:
        sys.exit(VERIFY_FAILURE_EXIT)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
