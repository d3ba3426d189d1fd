"""Dense GF(2) linear algebra on word-packed rows.

Rows are Python ints used as bitsets (bit t = column t), so row
operations are single XORs regardless of width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatchError


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


@dataclass
class GF2Matrix:
    nrows: int
    ncols: int
    rows: list[int]

    def __post_init__(self) -> None:
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        for r in self.rows:
            if r >> self.ncols:
                raise ValueError("row has bits beyond ncols")

    @classmethod
    def from_bit_rows(cls, bits: Sequence[Iterable[int]], ncols: int | None = None) -> "GF2Matrix":
        packed = []
        width = 0
        for row in bits:
            r = 0
            for j, b in enumerate(row):
                if b & 1:
                    r |= 1 << j
                width = max(width, j + 1)
            packed.append(r)
        return cls(len(packed), ncols if ncols is not None else width, packed)

    def rank(self) -> int:
        work = list(self.rows)
        rank = 0
        for row in work:
            cur = row
            # reduce against the growing basis held in work[:rank]
            for b in work[:rank]:
                low = b & -b
                if cur & low:
                    cur ^= b
            if cur:
                work[rank] = cur
                rank += 1
        return rank


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
    particular point plus a subset XOR of the basis.
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
    work = [m.rows[i] | (aug_bit if (rhs_mask >> i) & 1 else 0) for i in range(m.nrows)]

    pivot_rows: list[int] = []  # reduced rows with distinct pivot columns
    pivot_cols: list[int] = []
    for row in work:
        cur = row
        for pr, pc in zip(pivot_rows, pivot_cols):
            if (cur >> pc) & 1:
                cur ^= pr
        if cur == aug_bit:
            return None  # 0 = 1
        if cur & (aug_bit - 1):
            pc = _lowest_bit(cur & (aug_bit - 1))
            # back-substitute into existing pivots to reach reduced form
            for t, pr in enumerate(pivot_rows):
                if (pr >> pc) & 1:
                    pivot_rows[t] = pr ^ cur
            pivot_rows.append(cur)
            pivot_cols.append(pc)

    pivots = dict(zip(pivot_cols, pivot_rows))
    particular = 0
    for pc, pr in pivots.items():
        if pr & aug_bit:
            particular |= 1 << pc
    free_cols = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = 1 << f
        for pc, pr in pivots.items():
            if (pr >> f) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return GF2Solution(m.ncols, particular, tuple(basis))


def echelonize(vectors: Iterable[int]) -> list[int]:
    """Reduce bitmask vectors to a basis with distinct lowest set bits,
    sorted by that leading bit."""
    table: dict[int, int] = {}
    for v in vectors:
        cur = v
        while cur:
            lead = _lowest_bit(cur)
            if lead in table:
                cur ^= table[lead]
            else:
                table[lead] = cur
                break
    return [table[k] for k in sorted(table)]
