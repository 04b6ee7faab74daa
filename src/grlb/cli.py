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

import sys

import click

from . import __version__, records, suites
from .engine import FAMILIES, HorosphericalDatum, InvalidDatumError

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
@click.version_option(version=__version__, prog_name="grlb")
def cli() -> None:
    """Exact greatest Ricci lower bounds of the nonhomogeneous projective
    horospherical manifolds of Picard number one."""


@cli.command()
@click.option("--family", required=True, type=click.Choice(FAMILIES))
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
    rows = records.record_for(HorosphericalDatum(family, n=n, k=k), digits=digits, route=route)
    click.echo(records.render(rows, fmt))


@cli.command()
@click.option("--id", "table_id", required=True, type=click.IntRange(1, 3), help="Table number.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True
)
def table(table_id: int, fmt: str) -> None:
    """Regenerate one of the published tables from the engine."""
    click.echo(records.render(records.table_rows(table_id), fmt))


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
    rows = records.verify_rows(suite, max_n, suites.run_suite(suite, max_n))
    click.echo(records.render(rows, fmt))
    if not rows.payload["passed"]:
        sys.exit(VERIFY_FAILURE_EXIT)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
