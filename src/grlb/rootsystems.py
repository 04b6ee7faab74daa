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

Each of these roots is at most three constant runs of nonzero coefficients,
so the engine never tabulates them.  Write minus(p, q) for the root with
coefficient 1 on alpha_p..alpha_{q-1} and 0 elsewhere (L_p - L_q), and
plus(p, q) for the root that also has coefficient 2 on alpha_q..alpha_n,
except 1 on alpha_n for C_n (L_p + L_q).  Then the positive roots are

    B_n: minus(p, q) for p < q <= n+1 (q = n+1 is L_p), plus(p, q) for p < q <= n;
    C_n: minus(p, q) for p < q <= n, plus(p, q) for p <= q <= n (q = p is 2 L_p).

`unipotent_radical` walks the (p, q) pairs, finds each root's marked
coefficients by integer comparisons, and keeps the column sums of the roots
it counts in a difference array: O(n^2) time and O(n) memory, with no root
tuple built.

F4 and G2 are small fixed tables.  `_root_data(type_label, rank)` is the one
function that branches on the type (the B_n and C_n code takes only the flag
long_last).  It gives the half squared lengths of the simple roots, under the
normalization in which a simple root pairs with its own fundamental weight to
its half length (the factors of the Duistermaat-Heckman density); the one
Cartan entry off the path pattern; and F4's or G2's table.  Every supported
Dynkin diagram is the path 1 - 2 - ... - rank, so alpha_l^vee pairs with a
root sum of column sums t as 2 t_l - t_{l-1} - t_{l+1}, but for that entry.
`_coroot_pairings` is that one rule: `unipotent_radical` applies it to the
walk's column sums and `weight_of_root_sum` to the column sums of any list of
roots.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

RootVector = tuple[int, ...]

__all__ = [
    "RootSystem",
    "UnsupportedRootSystemError",
    "build_root_system",
    "unipotent_radical",
    "weight_of_root_sum",
]


class UnsupportedRootSystemError(ValueError):
    """Raised for a (type, rank) pair outside B(n>=2), C(n>=2), F4, G2."""


class RootSystem(NamedTuple):
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

_ONE = Fraction(1)
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


@lru_cache(maxsize=128)
def _root_data(
    type_label: str, rank: int
) -> tuple[tuple[Fraction, ...], tuple[int, int, int], tuple[RootVector, ...] | None]:
    """(half_lengths, off_path_entry, fixed_table), half_lengths those of alpha_1..alpha_rank.

    off_path_entry is (l, m, <alpha_l^vee, alpha_m>), the one Cartan entry not
    2, -1 or 0; fixed_table is None for B_n and C_n, which are walked.  Cached:
    an uncached C_70 call builds Fraction(2) and a rank-long tuple, 2.3 us
    against 0.12 us for a hit, and without the cache the 77 X3(n, k) records
    for n = 60..70, k = 2..8 took 1.2% longer (Xeon, CPython 3.11).
    """
    if type_label == "B" and rank >= 2:
        return (_ONE,) * (rank - 1) + (_HALF,), (rank, rank - 1, -2), None
    if type_label == "C" and rank >= 2:
        return (_ONE,) * (rank - 1) + (Fraction(2),), (rank - 1, rank, -2), None
    if (type_label, rank) == ("F4", 4):
        return (_ONE, _ONE, _HALF, _HALF), (3, 2, -2), _F4_POSITIVE_ROOTS
    if (type_label, rank) == ("G2", 2):
        return (_HALF, Fraction(3, 2)), (1, 2, -3), _G2_POSITIVE_ROOTS
    raise UnsupportedRootSystemError(f"unsupported root system ({type_label!r}, rank {rank})")


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct the positive-root table for (type_label, rank).

    Supported pairs: ("B", n>=2), ("C", n>=2), ("F4", 4), ("G2", 2).
    """
    half_lengths, _, roots = _root_data(type_label, rank)
    if roots is None:
        roots = _type_bc_roots(rank, long_last=type_label == "C")
    return RootSystem(type_label=type_label, rank=rank, positive_roots=roots, half_lengths=half_lengths)


def _coroot_pairings(off_path_entry: tuple[int, int, int], t: list[int]) -> dict[int, int]:
    """Nonzero <alpha_l^vee, sum> by 1-based index l, from padded column sums.

    t[m] is the sum's coefficient of alpha_m for m in 1..rank, and
    t[0] = t[rank+1] = 0.  On the path diagram the pairing is
    2 t_l - t_{l-1} - t_{l+1}, but for off_path_entry (`_root_data`).
    """
    off_l, off_m, entry = off_path_entry
    pairings = {}
    for l in range(1, len(t) - 1):
        c = 2 * t[l] - t[l - 1] - t[l + 1]
        if l == off_l:
            c += (entry + 1) * t[off_m]
        if c:
            pairings[l] = c
    return pairings


def weight_of_root_sum(rs: RootSystem, roots: Iterable[RootVector]) -> dict[int, int]:
    """Nonzero fundamental-weight coefficients of a sum of roots, by 1-based index.

    The coefficient of the l-th fundamental weight is <alpha_l^vee, sum>.
    """
    total = [sum(column) for column in zip(*roots)] or [0] * rs.rank
    return _coroot_pairings(_root_data(rs.type_label, rs.rank)[1], [0, *total, 0])


def _check_marked(rank: int, i: int, j: int) -> None:
    if i == j or not (1 <= i <= rank and 1 <= j <= rank):
        raise ValueError(f"marked indices must be distinct and in 1..{rank}")


def _bc_walk(n: int, long_last: bool, i: int, j: int) -> tuple[Counter[tuple[int, int]], list[int]]:
    """(c_i, c_j) multiset and column sums t of Phi_Pu in B_n, or C_n if long_last.

    t[m] is the sum of the coefficients of alpha_m for m in 1..n, and
    t[0] = t[n+1] = 0.  A root with p > max(i, j) has no marked coefficient.
    diff holds the differences of t: each root adds 1 from alpha_p on, then
    falls back by 1 (minus) or rises by 1 (plus) from alpha_q on; for C_n a
    plus root falls back by 1 at alpha_n.
    """
    marked: Counter[tuple[int, int]] = Counter()
    diff = [0] * (n + 2)
    top_i = 1 if long_last and i == n else 2
    top_j = 1 if long_last and j == n else 2
    for p in range(1, max(i, j) + 1):
        for q in range(p + 1, n + 2 - long_last):  # minus(p, q)
            c_i = 1 if p <= i < q else 0
            c_j = 1 if p <= j < q else 0
            if c_i or c_j:
                marked[c_i, c_j] += 1
                diff[p] += 1
                diff[q] -= 1
        for q in range(p + 1 - long_last, n + 1):  # plus(p, q)
            c_i = 0 if i < p else 1 if i < q else top_i
            c_j = 0 if j < p else 1 if j < q else top_j
            marked[c_i, c_j] += 1
            diff[p] += 1
            diff[q] += 1
        if long_last:
            diff[n] -= n + 1 - p  # one for each plus(p, q), q = p..n
    t = [0] * (n + 2)
    for m in range(1, n + 1):
        t[m] = t[m - 1] + diff[m]
    return marked, t


def unipotent_radical(
    type_label: str, rank: int, i: int, j: int
) -> tuple[Counter[tuple[int, int]], dict[int, int]]:
    """Phi_Pu for the marked simple roots i != j, without a root table.

    Phi_Pu is the set of positive roots with a nonzero coefficient on alpha_i
    or alpha_j.  Returns the multiset of their coefficients (c_i, c_j), and the
    nonzero fundamental-weight coefficients of their sum 2*rho_P by 1-based
    index, as `weight_of_root_sum` gives them.  B_n and C_n are walked in the
    orthonormal basis (module docstring); F4 and G2 read their fixed tables.
    """
    _, off_path_entry, table = _root_data(type_label, rank)
    _check_marked(rank, i, j)
    if table is None:
        marked, t = _bc_walk(rank, type_label == "C", i, j)
    else:
        kept = [r for r in table if r[i - 1] or r[j - 1]]
        marked, t = Counter((r[i - 1], r[j - 1]) for r in kept), [0, *map(sum, zip(*kept)), 0]
    return marked, _coroot_pairings(off_path_entry, t)
