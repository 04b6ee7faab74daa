"""Every output of the command line, in one row model, and its one writer.

A command's output is a `Rows`: the JSON payload, the text rows and the CSV
rows of one result.  Three builders make them: `record_for` for one computed
manifold, straight from `engine.report` or, on the closed-form route, from
`closedforms.closed_form` alone; `table_rows` for one of the three
published summary tables; and `verify_rows` for one verification report.
`render` writes any of them as text (left-aligned columns), JSON (the payload
after `schema_version`) or CSV.

Fractions are rendered as "p/q" strings in JSON so consumers never lose
precision to floating point or fixed-width integers; `exactnum.frac_str`
writes them at any size and `exactnum.parse_frac` reads them back (both are
re-exported here).  The coefficients of 2*rho_P are small and are kept as
explicit (index, numerator, denominator) triples.  A record renders R, tbar
and the segment's endpoints once each, and its text rows reuse those
strings.  The JSON is canonical: re-serializing the parsed payload with
indent 2 reproduces the bytes.  Every numeric table cell is recomputed from
the engine; only formatting metadata (the displayed digit count of each
cell, the symbolic formula strings for the parametric rows) is stored here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import engine
from .engine import HorosphericalDatum, InvalidDatumError
from .exactnum import frac_str, parse_frac, to_decimal

if TYPE_CHECKING:
    from .suites import CheckResult

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "TABLE2_GRID",
    "TABLE2_ROWS",
    "Rows",
    "frac_str",
    "parse_frac",
    "record_for",
    "record_to_json",
    "render",
    "table_rows",
    "text_columns",
    "verify_rows",
]


def text_columns(rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, each as wide as its widest cell."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows)


class Rows(NamedTuple):
    """One output: its JSON payload, text rows and CSV rows.

    Both row lists start with their header, if they have one; `verify` has
    no CSV format, so its report has no CSV rows.
    """

    payload: dict
    text: Sequence[Sequence[str]]
    csv: Sequence[Sequence[str]] = ()


def _json(payload: dict) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2)


def render(rows: Rows, fmt: str) -> str:
    """Write rows as "json", "csv" or (any other fmt) text."""
    if fmt == "json":
        return _json(rows.payload)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows.csv)
    return text_columns(rows.text)


def record_for(datum: HorosphericalDatum, digits: int = 4, route: str = "engine") -> Rows:
    """One computed manifold: every field as text; CSV carries the decimal R only.

    Each route fills the whole record from its own source: "engine" from
    `engine.report`, and "closed-form" (X1 and X3 only) from
    `closedforms.closed_form`, the paper's formulas alone; only this route
    imports `closedforms`.  The route and family are checked first, then
    the closed-form route checks the engine's ceiling with
    `engine.check_ceiling`, as the engine route does, before the formula
    runs, so the ceiling's error comes first on both routes.  R, tbar and
    the segment's endpoints are each rendered once, and every format reuses
    those strings.
    """
    if route == "engine":
        record = engine.report(datum)
    elif route == "closed-form":
        if datum.family not in ("X1", "X3"):
            raise InvalidDatumError("closed-form route exists only for families X1 and X3")
        engine.check_ceiling(datum.n)
        from . import closedforms

        record = closedforms.closed_form(*datum)
    else:
        raise ValueError(f"unknown route {route!r}")
    dimension, (i, j, a_int, b_int), t_bar_value, r_value = record
    a, b, t_bar, r = (frac_str(x) for x in (a_int, b_int, t_bar_value, r_value))
    r_decimal = to_decimal(r_value, digits)
    rho = sorted(((i, a_int, a), (j, b_int, b)))
    payload = {
        "family": datum.family,
        "params": datum.params,
        "dim": dimension,
        "two_rho_P": [[m, c, 1] for m, c, _ in rho],
        "interval": [a, b],
        "barycenter_t": t_bar,
        "R": r,
        "R_decimal": r_decimal,
        "provenance": route,
    }
    text = [
        ["family", datum.family],
        ["params", ", ".join(f"{k}={v}" for k, v in datum.params.items()) or "-"],
        ["dim", str(dimension)],
        ["2*rho_P", " + ".join(f"({c})*w{m}" for m, _, c in rho)],
        ["interval", f"t in [-{a}, {b}]"],
        ["barycenter_t", t_bar],
        ["R", r],
        ["R_decimal", r_decimal],
        ["provenance", route],
    ]
    n, k = (str(datum.params.get(p, "")) for p in ("n", "k"))
    csv = [["family", "n", "k", "dim", "R"], [datum.family, n, k, str(dimension), r_decimal]]
    return Rows(payload, text, csv)


def record_to_json(rows: Rows) -> str:
    """A record's JSON; canonical, so re-serializing the parsed text gives the same bytes."""
    return render(rows, "json")


TABLE2_GRID = (3, 4, 5, 6, 7, 10, 20, 30, 50, 70)

#: (row label, k, displayed fractional digits of each cell) with k=None
#: meaning the X1 row; the digit counts match the published layout.
TABLE2_ROWS: tuple[tuple[str, int | None, tuple[int | None, ...]], ...] = (
    ("X1", None, (4, 4, 4, 4, 4, 4, 4, 4, 4, 4)),
    ("X3(.,2)", 2, (3, 3, 2, 3, 3, 4, 4, 4, 4, 5)),
    ("X3(.,3)", 3, (3, 4, 4, 3, 3, 4, 4, 4, 4, 5)),
    ("X3(.,4)", 4, (None, 3, 3, 3, 3, 4, 4, 4, 4, 5)),
)

_X1_FORMULA = (
    "n*Int[-n,2] (2-t)(n+t)^(n-1)(t+2n+2)^(n(n-1)/2) dt"
    " / Int[-n,2] (2-t)(n+t)^n(t+2n+2)^(n(n-1)/2) dt"
)
_X3NN_FORMULA = "2*(2n+1)! / ((n+2)*(2^n*n!)^2)"
_X3NK_FORMULA = (
    "(2n-2k+2)*Int[-k,2n-2k+2] (k+t)^(k-1)(2n-2k+2-t)^(2n-2k+1)(4n-3k+4-t)^(k-1) dt"
    " / Int[-k,2n-2k+2] (k+t)^(k-1)(2n-2k+2-t)^(2n-2k+2)(4n-3k+4-t)^(k-1) dt"
)


def _exact_cell(r: Fraction, digits: int) -> str:
    """The cell "p/q = d" at the first of 1..4 places whose decimal is r, else "p/q ≈ d" at `digits`."""
    for places in range(1, 5):
        if Fraction(decimal := to_decimal(r, places)) == r:
            return f"{frac_str(r)} = {decimal}"
    return f"{frac_str(r)} ≈ {to_decimal(r, digits)}"


def _table1() -> Rows:
    """Dimension and R for all five families; fixed families computed exactly."""
    x2 = engine.report(HorosphericalDatum("X2"))
    x4 = engine.report(HorosphericalDatum("X4"))
    x5 = engine.report(HorosphericalDatum("X5"))
    data = [
        ["X1(n), n>=3", "n(n+3)/2", _X1_FORMULA],
        ["X2", str(x2.dimension), _exact_cell(x2.R, 3)],
        ["X3(n,n), n>=2", "n(n+3)/2", _X3NN_FORMULA],
        ["X3(n,k), n>k>=2", "k(4n-3k+3)/2", _X3NK_FORMULA],
        ["X4", str(x4.dimension), _exact_cell(x4.R, 3)],
        ["X5", str(x5.dimension), _exact_cell(x5.R, 4)],
    ]
    header = ["family", "dim", "R"]
    payload = {"table": 1, "rows": [dict(zip(header, row)) for row in data]}
    return Rows(payload, [header, *data], [header, *([f'"{c}"' for c in row] for row in data)])


def _table2() -> Rows:
    """R over the published n-grid for the X1 row and the X3 rows with k = 2, 3, 4.

    Cells with k > n are undefined: null in JSON, "-" in text and CSV.  Each
    cell holds the exact fraction and its decimal at the published digit count.
    """
    rows = []
    for label, k, digit_row in TABLE2_ROWS:
        cells: list[dict | None] = []
        for n, digits in zip(TABLE2_GRID, digit_row):
            if k is not None and k > n:
                cells.append(None)
                continue
            datum = HorosphericalDatum("X1", n=n) if k is None else HorosphericalDatum("X3", n=n, k=k)
            value = engine.report(datum).R
            cells.append({"n": n, "R": frac_str(value), "decimal": to_decimal(value, digits)})
        rows.append({"label": label, "cells": cells})
    grid = [str(n) for n in TABLE2_GRID]
    data = [[row["label"]] + ["-" if c is None else c["decimal"] for c in row["cells"]] for row in rows]
    payload = {"table": 2, "n_grid": list(TABLE2_GRID), "rows": rows}
    return Rows(payload, [["n", *grid], *data], [["row", *grid], *data])


def _table3() -> Rows:
    """R(X3(n, n)) for n = 2..7, fraction plus decimal."""
    rows, text, csv = [], [["n", "R(X3(n,n))"]], [["n", "R"]]
    for n in range(2, 8):
        r = engine.report(HorosphericalDatum("X3", n=n, k=n)).R
        rows.append({"n": n, "R": frac_str(r), "rendered": _exact_cell(r, 3)})
        text.append([str(n), rows[-1]["rendered"]])
        csv.append([str(n), to_decimal(r, 4)])
    return Rows({"table": 3, "rows": rows}, text, csv)


_TABLES = {1: _table1, 2: _table2, 3: _table3}


def table_rows(table_id: int) -> Rows:
    """Published table 1, 2 or 3, recomputed from the engine.

    Any other id, a bool or a float equal to one of them included, raises ValueError.
    """
    if type(table_id) is not int or table_id not in _TABLES:
        raise ValueError(f"unknown table id {table_id!r}; valid ids are 1, 2, 3")
    return _TABLES[table_id]()


def verify_rows(suite: str, max_n: int, results: Sequence[CheckResult]) -> Rows:
    """One verification report: a line per check, then the count that passed."""
    payload = {
        "suite": suite,
        "max_n": max_n,
        "passed": all(r.passed for r in results),
        "checks": [r._asdict() for r in results],
    }
    text = [[f"{'ok  ' if r.passed else 'FAIL'} {r.name}: {r.detail}"] for r in results]
    text.append([f"{sum(r.passed for r in results)}/{len(results)} checks passed"])
    return Rows(payload, text)
