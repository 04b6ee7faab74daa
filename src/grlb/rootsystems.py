"""Positive-root data for the root systems B_n, C_n, F4 and G2.

Simple roots are numbered 1..rank in the standard Bourbaki/Humphreys order.
Positive roots are stored as coefficient vectors over the simple roots
(index m-1 of the tuple is the coefficient of alpha_m).  For B_n and C_n the
roots are generated from the orthonormal-basis description and converted to
simple-root coordinates:

    B_n (alpha_m = L_m - L_{m+1} for m < n, alpha_n = L_n):
        L_i - L_j  ->  alpha_i + ... + alpha_{j-1}
        L_i        ->  alpha_i + ... + alpha_n
        L_i + L_j  ->  alpha_i + ... + alpha_{j-1} + 2(alpha_j + ... + alpha_n)

    C_n (alpha_m = L_m - L_{m+1} for m < n, alpha_n = 2 L_n):
        L_i - L_j  ->  alpha_i + ... + alpha_{j-1}
        2 L_i      ->  2(alpha_i + ... + alpha_{n-1}) + alpha_n
        L_i + L_j  ->  alpha_i + ... + alpha_{j-1} + 2(alpha_j + ... + alpha_{n-1}) + alpha_n

F4 and G2 are small fixed tables.  `half_lengths[m-1]` is half the squared
length of alpha_m under the bilinear form normalization in which the pairing
of a simple root with its own fundamental weight equals that half length;
these are the factors the Duistermaat-Heckman densities are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

RootVector = tuple[int, ...]

__all__ = [
    "RootSystem",
    "UnsupportedRootSystemError",
    "build_root_system",
    "cartan_matrix",
    "weight_of_root_sum",
]


class UnsupportedRootSystemError(ValueError):
    """Raised for a (type, rank) pair outside B(n>=2), C(n>=2), F4, G2."""


@dataclass(frozen=True)
class RootSystem:
    """Positive roots of an irreducible root system, in simple-root coordinates."""

    type_label: str
    rank: int
    positive_roots: tuple[RootVector, ...]
    half_lengths: tuple[Fraction, ...]


_G2_POSITIVE_ROOTS: tuple[RootVector, ...] = (
    (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2),
)

_F4_POSITIVE_ROOTS: tuple[RootVector, ...] = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1),
    (1, 1, 1, 0), (0, 1, 2, 0), (0, 1, 1, 1),
    (1, 1, 2, 0), (1, 1, 1, 1), (0, 1, 2, 1),
    (1, 2, 2, 0), (1, 1, 2, 1), (0, 1, 2, 2),
    (1, 2, 2, 1), (1, 1, 2, 2),
    (1, 2, 3, 1), (1, 2, 2, 2),
    (1, 2, 3, 2),
    (1, 2, 4, 2),
    (1, 3, 4, 2),
    (2, 3, 4, 2),
)

_HALF = Fraction(1, 2)


def _type_bc_roots(rank: int, long_last: bool) -> tuple[RootVector, ...]:
    """Positive roots of B_rank (long_last=False) or C_rank (long_last=True)."""
    n = rank
    roots: list[RootVector] = []
    for i in range(1, n + 1):
        head = (0,) * (i - 1)
        for j in range(i + 1, n + 1):
            ones = head + (1,) * (j - i)
            # L_i - L_j
            roots.append(ones + (0,) * (n - j + 1))
            # L_i + L_j
            roots.append(ones + ((2,) * (n - j) + (1,) if long_last else (2,) * (n - j + 1)))
        # L_i for B, 2 L_i for C
        roots.append(head + ((2,) * (n - i) + (1,) if long_last else (1,) * (n - i + 1)))
    return tuple(roots)


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct the positive-root table for (type_label, rank).

    Supported pairs: ("B", n>=2), ("C", n>=2), ("F4", 4), ("G2", 2).
    """
    if type_label == "B" and rank >= 2:
        roots = _type_bc_roots(rank, long_last=False)
        half = (Fraction(1),) * (rank - 1) + (_HALF,)
    elif type_label == "C" and rank >= 2:
        roots = _type_bc_roots(rank, long_last=True)
        half = (Fraction(1),) * (rank - 1) + (Fraction(2),)
    elif type_label == "F4" and rank == 4:
        roots = _F4_POSITIVE_ROOTS
        half = (Fraction(1), Fraction(1), _HALF, _HALF)
    elif type_label == "G2" and rank == 2:
        roots = _G2_POSITIVE_ROOTS
        half = (_HALF, Fraction(3, 2))
    else:
        raise UnsupportedRootSystemError(
            f"unsupported root system ({type_label!r}, rank {rank})"
        )
    return RootSystem(type_label=type_label, rank=rank, positive_roots=roots, half_lengths=half)


def cartan_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Pairing matrix with entry [l][m] = <alpha_{l+1}^vee, alpha_{m+1}> (0-based rows/cols)."""
    n = rs.rank
    if rs.type_label == "F4":
        return ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    if rs.type_label == "G2":
        return ((2, -3), (-1, 2))
    rows = []
    for l in range(n):
        row = [0] * n
        row[l] = 2
        if l > 0:
            row[l - 1] = -1
        if l < n - 1:
            row[l + 1] = -1
        rows.append(row)
    if rs.type_label == "B":
        rows[n - 1][n - 2] = -2
    elif rs.type_label == "C":
        rows[n - 2][n - 1] = -2
    else:
        raise UnsupportedRootSystemError(f"unknown type label {rs.type_label!r}")
    return tuple(tuple(r) for r in rows)


def weight_of_root_sum(rs: RootSystem, roots: Iterable[RootVector]) -> dict[int, int]:
    """Nonzero fundamental-weight coefficients of a sum of roots, by 1-based index.

    The coefficient of the l-th fundamental weight is <alpha_l^vee, sum>, a row
    of the Cartan matrix applied to the summed simple-root coefficients.
    """
    total = [sum(column) for column in zip(*roots)] or [0] * rs.rank
    pairings = (sum(p * c for p, c in zip(row, total)) for row in cartan_matrix(rs))
    return {l: c for l, c in enumerate(pairings, 1) if c}
