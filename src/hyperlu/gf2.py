"""Dense GF(2) linear algebra on word-packed rows.

Rows are Python ints used as bitsets (bit t = column t), so row
operations are single XORs regardless of width. One forward elimination,
keyed by each row's lowest set bit, serves the rank, the echelon basis
and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatchError


def pivot_table(rows: Iterable[int]) -> dict[int, int]:
    """Forward elimination, in the order given: each row is reduced
    against the table so far and what is left is stored under its
    lowest set bit (a power of two).

    The stored rows have distinct lowest bits and span the input rows.
    """
    table: dict[int, int] = {}
    for cur in rows:
        while cur:
            low = cur & -cur
            pivot = table.get(low)
            if pivot is None:
                table[low] = cur
                break
            cur ^= pivot
    return table


@dataclass
class GF2Matrix:
    """``nrows`` bitmask rows over ``ncols`` columns. Every matrix is
    assembled inside the LC solver, which keeps to that shape, so the
    constructor does not re-check it."""

    nrows: int
    ncols: int
    rows: list[int]

    def rank(self) -> int:
        return len(pivot_table(self.rows))


@dataclass
class GF2Solution:
    """Affine solution space x = particular + span(nullspace), as bitmasks."""

    ncols: int
    particular: int
    nullspace: tuple[int, ...]


def solve_linear_gf2(m: GF2Matrix, rhs: int | Sequence[int]) -> GF2Solution | None:
    """Full affine solution space of m @ x = rhs over GF(2), or None.

    ``rhs`` is either a bitmask over rows or a 0/1 sequence of length
    nrows. The nullspace basis is complete: every solution is the
    particular point plus a subset XOR of the basis. The result depends
    only on the row space of the augmented system (it is read off the
    reduced echelon form), not on the order or multiplicity of rows.
    """
    if isinstance(rhs, int):
        rhs_mask = rhs
        if rhs_mask >> m.nrows:
            raise DimensionMismatchError("rhs has bits beyond nrows")
    else:
        if len(rhs) != m.nrows:
            raise DimensionMismatchError(
                f"rhs length {len(rhs)} differs from {m.nrows} rows"
            )
        rhs_mask = sum((b & 1) << i for i, b in enumerate(rhs))

    aug_bit = 1 << m.ncols
    distinct = {r | aug_bit if (rhs_mask >> i) & 1 else r for i, r in enumerate(m.rows)}
    # sparse rows first, and among equally sparse ones those reaching
    # furthest: this keeps fill-in low; the order does not change the result
    work = sorted(distinct, key=int.bit_length, reverse=True)
    work.sort(key=int.bit_count)
    table = pivot_table(work)
    if aug_bit in table:
        return None  # 0 = 1

    # back-substitution, highest pivot first: the rows of higher pivots
    # are already reduced, so each pivot bit of a row is cleared by one XOR
    pivot_mask = sum(table)  # the keys are distinct powers of two
    reduced: dict[int, int] = {}
    for low in sorted(table, reverse=True):
        row = table[low]
        above = (row & pivot_mask) ^ low
        while above:
            bit = above & -above
            row ^= reduced[bit]
            above ^= bit
        reduced[low] = row

    free_mask = (aug_bit - 1) ^ pivot_mask
    particular = 0
    basis = {}
    for low, row in reduced.items():
        if row & aug_bit:
            particular |= low
        free = row & free_mask
        while free:
            bit = free & -free
            basis[bit] = basis.get(bit, bit) | low
            free ^= bit
    vectors = []
    while free_mask:
        bit = free_mask & -free_mask
        vectors.append(basis.get(bit, bit))
        free_mask ^= bit
    return GF2Solution(m.ncols, particular, tuple(vectors))


def echelonize(vectors: Iterable[int]) -> list[int]:
    """Reduce bitmask vectors, in the order given, to a basis with
    distinct lowest set bits, sorted by that leading bit."""
    table = pivot_table(vectors)
    return [table[k] for k in sorted(table)]
