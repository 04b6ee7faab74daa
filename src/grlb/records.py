"""Serializable result records and their fixed JSON layout.

Fractions are rendered as "p/q" strings in JSON so consumers never lose
precision to floating point or fixed-width integers; the coefficients of
2*rho_P are small and are kept as explicit (index, numerator, denominator)
triples.  `record_to_json` is canonical: re-serializing a parsed record
reproduces the bytes.  This module owns the presentation conventions that
`tables` shares: the fraction writer `frac_str`, `SCHEMA_VERSION` and the
text column layout `text_columns`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import closedforms, engine
from .engine import ComputationReport, HorosphericalDatum, InvalidDatumError
from .exactnum import int_to_str, str_to_int, to_decimal

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "OutputRecord",
    "frac_str",
    "parse_frac",
    "record_for",
    "record_from_json",
    "record_to_csv_row",
    "record_to_json",
    "record_to_text",
    "text_columns",
    "CSV_HEADER",
]


def frac_str(f: Fraction) -> str:
    """The fraction as "p/q", at any size (see exactnum.int_to_str)."""
    return f"{int_to_str(f.numerator)}/{int_to_str(f.denominator)}"


def parse_frac(s: str) -> Fraction:
    """Inverse of frac_str."""
    num, _, den = s.partition("/")
    return Fraction(str_to_int(num), str_to_int(den))


def text_columns(rows: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, each as wide as its widest cell."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows)


@dataclass(frozen=True)
class OutputRecord:
    """One computed manifold, ready for text/JSON/CSV output."""

    family: str
    params: dict[str, int]
    dim: int
    two_rho_P: tuple[tuple[int, Fraction], ...]
    interval: tuple[Fraction, Fraction]
    barycenter_t: Fraction
    R: Fraction
    R_decimal: str
    provenance: str


def record_for(
    datum: HorosphericalDatum,
    digits: int = 4,
    route: str = "engine",
) -> OutputRecord:
    """Build a record from the exact pipeline.

    route "closed-form" recomputes R from the family's integral formula
    (X1 and X3 only); everything else always comes from the engine.
    """
    rep: ComputationReport = engine.report(datum)
    r_value = rep.R
    if route == "closed-form":
        if datum.family == "X1":
            r_value = closedforms.r_x1_formula(datum.n)
        elif datum.family == "X3":
            r_value = closedforms.r_x3_formula(datum.n, datum.k)
        else:
            raise InvalidDatumError("closed-form route exists only for families X1 and X3")
    elif route != "engine":
        raise ValueError(f"unknown route {route!r}")
    seg = rep.segment
    coords = seg.two_rho_P.coords
    return OutputRecord(
        family=datum.family,
        params=datum.params,
        dim=rep.dimension,
        two_rho_P=tuple(sorted(coords.items())),
        interval=(seg.a, seg.b),
        barycenter_t=rep.barycenter_t,
        R=r_value,
        R_decimal=to_decimal(r_value, digits),
        provenance=route,
    )


def _record_dict(rec: OutputRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "family": rec.family,
        "params": rec.params,
        "dim": rec.dim,
        "two_rho_P": [[m, c.numerator, c.denominator] for m, c in rec.two_rho_P],
        "interval": [frac_str(rec.interval[0]), frac_str(rec.interval[1])],
        "barycenter_t": frac_str(rec.barycenter_t),
        "R": frac_str(rec.R),
        "R_decimal": rec.R_decimal,
        "provenance": rec.provenance,
    }


def record_to_json(rec: OutputRecord) -> str:
    return json.dumps(_record_dict(rec), indent=2)


def record_from_json(text: str) -> OutputRecord:
    data = json.loads(text)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {data.get('schema_version')!r}")
    return OutputRecord(
        family=data["family"],
        params={k: int(v) for k, v in data["params"].items()},
        dim=int(data["dim"]),
        two_rho_P=tuple((int(m), Fraction(int(p), int(q))) for m, p, q in data["two_rho_P"]),
        interval=(parse_frac(data["interval"][0]), parse_frac(data["interval"][1])),
        barycenter_t=parse_frac(data["barycenter_t"]),
        R=parse_frac(data["R"]),
        R_decimal=data["R_decimal"],
        provenance=data["provenance"],
    )


def record_to_text(rec: OutputRecord) -> str:
    params = ", ".join(f"{k}={v}" for k, v in rec.params.items()) or "-"
    rho = " + ".join(f"({frac_str(c)})*w{m}" for m, c in rec.two_rho_P)
    return text_columns(
        [
            ["family", rec.family],
            ["params", params],
            ["dim", str(rec.dim)],
            ["2*rho_P", rho],
            ["interval", f"t in [-{frac_str(rec.interval[0])}, {frac_str(rec.interval[1])}]"],
            ["barycenter_t", frac_str(rec.barycenter_t)],
            ["R", frac_str(rec.R)],
            ["R_decimal", rec.R_decimal],
            ["provenance", rec.provenance],
        ]
    )


CSV_HEADER = "family,n,k,dim,R"


def record_to_csv_row(rec: OutputRecord) -> str:
    n = rec.params.get("n", "")
    k = rec.params.get("k", "")
    return f"{rec.family},{n},{k},{rec.dim},{rec.R_decimal}"
