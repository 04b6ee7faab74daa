"""Exact greatest Ricci lower bounds of nonhomogeneous projective
horospherical manifolds of Picard number one.

The five families X1(n), X2, X3(n, k), X4, X5 each have a one-dimensional
moment polytope; this package computes the Duistermaat-Heckman barycenter of
that segment in exact rational arithmetic and derives the greatest Ricci
lower bound R(X) from it, cross-checked against closed formulas and a
floating-point quadrature oracle.
"""

from .engine import (
    ComputationReport,
    HorosphericalDatum,
    InvalidDatumError,
    MomentSegment,
    report,
)
from .exactnum import Rational, to_decimal

__version__ = "0.1.0"

__all__ = [
    "ComputationReport",
    "HorosphericalDatum",
    "InvalidDatumError",
    "MomentSegment",
    "Rational",
    "report",
    "to_decimal",
]
