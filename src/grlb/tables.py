"""Regeneration of the three published summary tables.

Every numeric cell is recomputed from the engine; only formatting metadata
(the displayed digit count of each cell, the symbolic formula strings for the
parametric rows) is stored here.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import engine
from .engine import HorosphericalDatum
from .exactnum import to_decimal
from .records import SCHEMA_VERSION, frac_str, text_columns

__all__ = [
    "TABLE2_GRID",
    "TABLE2_ROWS",
    "table1_rows",
    "table2_cells",
    "table3_rows",
    "render_table",
]

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
    return f"{frac_str(r)} ≈ {to_decimal(r, digits)}"


def table1_rows() -> list[dict]:
    """Dimension and R for all five families; fixed families computed exactly."""
    x2 = engine.report(HorosphericalDatum("X2"))
    x4 = engine.report(HorosphericalDatum("X4"))
    x5 = engine.report(HorosphericalDatum("X5"))
    return [
        {"family": "X1(n), n>=3", "dim": "n(n+3)/2", "R": _X1_FORMULA},
        {"family": "X2", "dim": str(x2.dimension), "R": _exact_cell(x2.R, 3)},
        {"family": "X3(n,n), n>=2", "dim": "n(n+3)/2", "R": _X3NN_FORMULA},
        {"family": "X3(n,k), n>k>=2", "dim": "k(4n-3k+3)/2", "R": _X3NK_FORMULA},
        {"family": "X4", "dim": str(x4.dimension), "R": _exact_cell(x4.R, 3)},
        {"family": "X5", "dim": str(x5.dimension), "R": _exact_cell(x5.R, 4)},
    ]


def table2_cells() -> list[dict]:
    """R over the published n-grid for the X1 row and the X3 rows with k = 2, 3, 4.

    Cells with k > n are undefined and carry None.  Each cell holds the exact
    fraction and its decimal rendering at the published digit count.
    """
    rows = []
    for label, k, digit_row in TABLE2_ROWS:
        cells: list[dict | None] = []
        for n, digits in zip(TABLE2_GRID, digit_row):
            if k is not None and k > n:
                cells.append(None)
                continue
            if k is None:
                datum = HorosphericalDatum("X1", n=n)
            else:
                datum = HorosphericalDatum("X3", n=n, k=k)
            value = engine.greatest_ricci_lower_bound(datum)
            cells.append({"n": n, "R": value, "decimal": to_decimal(value, digits)})
        rows.append({"label": label, "k": k, "cells": cells})
    return rows


def _table3_render(r: Fraction) -> str:
    den = r.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    digits = max(twos, fives, 1)
    if den == 1 and digits <= 4:
        return f"{frac_str(r)} = {to_decimal(r, digits)}"
    return f"{frac_str(r)} ≈ {to_decimal(r, 3)}"


def table3_rows() -> list[dict]:
    """R(X3(n, n)) for n = 2..7, fraction plus decimal."""
    rows = []
    for n in range(2, 8):
        value = engine.greatest_ricci_lower_bound(HorosphericalDatum("X3", n=n, k=n))
        rows.append({"n": n, "R": value, "rendered": _table3_render(value)})
    return rows


#: One table as (JSON payload, text rows, CSV rows); both row lists start
#: with their header.
TableRows = tuple[dict, list[list[str]], list[list[str]]]


def _table1() -> TableRows:
    rows = table1_rows()
    header = ["family", "dim", "R"]
    data = [[r["family"], r["dim"], r["R"]] for r in rows]
    return {"rows": rows}, [header, *data], [header, *([f'"{c}"' for c in row] for row in data)]


def _table2() -> TableRows:
    rows = table2_cells()
    payload = {
        "n_grid": list(TABLE2_GRID),
        "rows": [
            {
                "label": row["label"],
                "cells": [
                    None if c is None else {"n": c["n"], "R": frac_str(c["R"]), "decimal": c["decimal"]}
                    for c in row["cells"]
                ],
            }
            for row in rows
        ],
    }
    grid = [str(n) for n in TABLE2_GRID]
    data = [[row["label"]] + ["-" if c is None else c["decimal"] for c in row["cells"]] for row in rows]
    return payload, [["n", *grid], *data], [["row", *grid], *data]


def _table3() -> TableRows:
    rows = table3_rows()
    payload = {"rows": [{"n": r["n"], "R": frac_str(r["R"]), "rendered": r["rendered"]} for r in rows]}
    text = [[str(r["n"]), r["rendered"]] for r in rows]
    csv = [[str(r["n"]), to_decimal(r["R"], 4)] for r in rows]
    return payload, [["n", "R(X3(n,n))"], *text], [["n", "R"], *csv]


_TABLES = {1: _table1, 2: _table2, 3: _table3}


def render_table(table_id: int, fmt: str) -> str:
    """Render table 1, 2 or 3 as text, json or csv."""
    if table_id not in _TABLES:
        raise ValueError(f"unknown table id {table_id}; valid ids are 1, 2, 3")
    payload, text, csv = _TABLES[table_id]()
    if fmt == "json":
        return json.dumps({"schema_version": SCHEMA_VERSION, "table": table_id, **payload}, indent=2)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in csv)
    return text_columns(text)
