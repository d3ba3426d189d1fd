"""Local-Clifford equivalence of labeled graph states over GF(2).

Two graph states with adjacency matrices t1, t2 are LC equivalent iff
there are diagonal binary matrices A, B, C, D with

    t1 C t2 + t1 A + D t2 + B = 0        (linear in the 4n diagonals)
    a_i d_i + b_i c_i = 1 for every i    (per-vertex nondegeneracy)

The linear part is solved exactly; the nondegeneracy constraint is
searched over the nullspace with per-vertex pruning. Graphs are always
labeled: no permutations are tried.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from .errors import (
    DimensionMismatchError,
    InconclusiveError,
    PreconditionError,
)
from .gf2 import GF2Matrix, echelonize, pivot_table, solve_linear_gf2
from .hypergraph import SimpleGraph
from .transforms import local_complement, local_complement_rows

# 4-bit local patterns (a | b<<1 | c<<2 | d<<3) with a*d + b*c = 1;
# exactly the six invertible 2x2 binary matrices.
_VALID_PATTERNS = frozenset(
    p
    for p in range(16)
    if (((p & 1) & (p >> 3 & 1)) ^ ((p >> 1 & 1) & (p >> 2 & 1))) == 1
)

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class CliffordWitness:
    """Diagonals of the block transformation, one bit per vertex."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.a)
        if not (len(self.b) == len(self.c) == len(self.d) == n):
            raise DimensionMismatchError("witness vectors differ in length")
        for i in range(n):
            if (self.a[i] & self.d[i]) ^ (self.b[i] & self.c[i]) != 1:
                raise ValueError(f"degenerate local block at vertex {i}")

    def as_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b), "c": list(self.c), "d": list(self.d)}


def _bits(x: int):
    """Indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _spread(x: int, width: int) -> int:
    """Bit i of ``x`` moved to bit i * width, so that
    spread(x & y) = spread(x) & spread(y)."""
    return int(("0" * (width - 1)).join(bin(x)[2:]), 2)


def _lc_system(g1: SimpleGraph, g2: SimpleGraph) -> GF2Matrix:
    """Rows spanning the n^2 x 4n system over columns (a_i, b_i, c_i, d_i).

    Row (j, k) of t1 C t2 + t1 A + D t2 + B holds a_k if k is in N1(j),
    b_j if k = j, c_i for every i in N1(j) & N2(k), and d_j if k is in
    N2(j). Rows with k in N1(j) + {j} are emitted as they are. For every
    other k only the c and d parts remain: the image of column k of the
    matrix with rows t2[i] & rest (i in N1(j)) and t2[j] & rest under a
    one-to-one map of its rows onto columns. So the rows at that matrix's
    pivot columns span all of them, and the row space is that of the
    full system: about n * (2 * degree + 2) rows instead of n^2.
    """
    n = g1.n
    t1, t2 = g1.rows, g2.rows
    c1 = [_spread(r, 4) << 2 for r in t1]  # c_i for i in N1(j)
    c2 = [_spread(r, 4) << 2 for r in t2]  # c_i for i in N2(k)
    full = (1 << n) - 1
    rows = []
    for j in range(n):
        r1, r2, cj = t1[j], t2[j], c1[j]
        own = r1 | (1 << j)
        rest = full ^ own
        images = [t2[i] & rest for i in _bits(r1)]
        images.append(r2 & rest)
        ks = own | sum(pivot_table(images))  # keys: distinct powers of two
        d_bit = 1 << (4 * j + 3)
        for k in _bits(ks):
            row = cj & c2[k]
            if (r1 >> k) & 1:
                row |= 1 << (4 * k)  # a_k
            elif k == j:
                row |= 1 << (4 * j + 1)  # b_j
            if (r2 >> k) & 1:
                row |= d_bit  # d_j
            rows.append(row)
    return GF2Matrix(len(rows), 4 * n, rows)


def _witness_from_mask(x: int, n: int) -> CliffordWitness:
    return CliffordWitness(
        a=tuple((x >> (4 * i)) & 1 for i in range(n)),
        b=tuple((x >> (4 * i + 1)) & 1 for i in range(n)),
        c=tuple((x >> (4 * i + 2)) & 1 for i in range(n)),
        d=tuple((x >> (4 * i + 3)) & 1 for i in range(n)),
    )


def _vertex_pattern_spans(basis: list[int], n: int) -> list[set[int]]:
    """Achievable 4-bit patterns per vertex (projection of the nullspace).

    Each basis vector's nonzero 4-bit blocks are walked once; a vertex's
    span depends only on the distinct patterns seen there.
    """
    seen = [0] * n  # bit p set iff pattern p occurs at the vertex
    for vec in basis:
        while vec:
            v = ((vec & -vec).bit_length() - 1) >> 2
            p = (vec >> (4 * v)) & 15
            seen[v] |= 1 << p
            vec ^= p << (4 * v)
    spans = []
    for patterns in seen:
        span = {0}
        for p in _bits(patterns):
            span |= {s ^ p for s in span}
        spans.append(span)
    return spans


def _search_nullspace(basis: list[int], n: int, max_nodes: int) -> int | None:
    """First nullspace point whose every vertex block is invertible.

    The basis is in echelon form by lowest set bit, so after fixing the
    first j coefficients all coordinates below the lead of vector j are
    final; vertices whose four columns lie below that frontier are
    checked (and pruned) as soon as they are complete.
    """
    order = echelonize(basis)
    d = len(order)
    leads = [(vec & -vec).bit_length() - 1 for vec in order]
    budget = max_nodes

    def check_range(x: int, lo: int, hi: int) -> bool:
        for v in range(lo, hi):
            if ((x >> (4 * v)) & 15) not in _VALID_PATTERNS:
                return False
        return True

    # depth-first on an explicit stack, so deep nullspaces need no recursion;
    # the "with vector j" child is pushed first so "without" is tried first
    stack = [(0, 0, 0)]  # (j, x, vertices already checked)
    while stack:
        j, x, checked = stack.pop()
        budget -= 1
        if budget < 0:
            raise InconclusiveError(
                f"witness search exceeded {max_nodes} nodes "
                f"(nullspace dimension {d})"
            )
        limit = leads[j] // 4 if j < d else n
        if not check_range(x, checked, limit):
            continue
        if j == d:
            return x
        stack.append((j + 1, x ^ order[j], limit))
        stack.append((j + 1, x, limit))
    return None


def lc_equivalent(g1: SimpleGraph, g2: SimpleGraph) -> CliffordWitness | None:
    """Witness of local-Clifford equivalence, or None when impossible.

    Raises :class:`InconclusiveError` past ``DEFAULT_NODE_BUDGET`` search
    nodes; that outcome is never reported as inequivalence.
    """
    if g1.n != g2.n:
        raise DimensionMismatchError(f"graph sizes differ: {g1.n} != {g2.n}")
    n = g1.n
    if n == 0:
        return CliffordWitness((), (), (), ())
    if g1 == g2:
        ones, zeros = (1,) * n, (0,) * n
        return CliffordWitness(ones, zeros, zeros, ones)
    system = _lc_system(g1, g2)
    sol = solve_linear_gf2(system, 0)
    if sol is None:
        raise AssertionError("homogeneous LC system reported inconsistent")
    basis = list(sol.nullspace)
    for span in _vertex_pattern_spans(basis, n):
        if not (span & _VALID_PATTERNS):
            return None
    x = _search_nullspace(basis, n, DEFAULT_NODE_BUDGET)
    if x is None:
        return None
    witness = _witness_from_mask(x, n)
    if not verify_witness(g1, g2, witness):
        raise AssertionError("solver produced a witness that fails re-verification")
    return witness


def verify_witness(g1: SimpleGraph, g2: SimpleGraph, w: CliffordWitness) -> bool:
    """Independent re-check of both witness equations on adjacency rows.

    Row j of t1 C t2 + t1 A + D t2 + B is the XOR of t2[i] over the
    neighbours i of j in g1 with c_i odd, then t1[j] masked by the odd
    a_i, then t2[j] when d_j is odd, then b_j at bit j. Unlike
    ``_lc_system``'s spanning rows, every row of the equation is
    evaluated, with the witness entries read mod 2.
    """
    n = g1.n
    if not (g2.n == n == len(w.a)):
        raise DimensionMismatchError("sizes of graphs and witness differ")
    a, b, c, d = ([x & 1 for x in v] for v in (w.a, w.b, w.c, w.d))
    if any((a[i] & d[i]) ^ (b[i] & c[i]) != 1 for i in range(n)):
        return False
    a_mask = sum(bit << i for i, bit in enumerate(a))
    c_mask = sum(bit << i for i, bit in enumerate(c))
    t1, t2 = g1.rows, g2.rows
    for j in range(n):
        row = (t1[j] & a_mask) ^ (t2[j] if d[j] else 0) ^ (b[j] << j)
        for i in _bits(t1[j] & c_mask):
            row ^= t2[i]
        if row:
            return False
    return True


class Orbit:
    """Closure of a labeled graph under local complementation.

    ``size`` counts the members without building them; ``graphs`` wraps
    them as :class:`SimpleGraph` on first read and keeps the set.
    """

    def __init__(self, n: int, members: set, rows_of: Callable, truncated: bool) -> None:
        self._n = n
        self._members = members
        self._rows_of = rows_of
        self.size = len(members)
        self.truncated = truncated

    @cached_property
    def graphs(self) -> frozenset[SimpleGraph]:
        n, rows_of, wrap = self._n, self._rows_of, SimpleGraph._trusted
        return frozenset([wrap(n, rows_of(m)) for m in self._members])


# Up to this many vertices the orbit walk packs a graph into one int
# (16 is also the widest row its 16-bit row width holds). Above it, the
# packed toggles and hashes cost O(n^2) bits per local complementation,
# against O(degree) row updates, and the rows win.
PACKED_MAX_N = 16


class _Toggles(dict):
    """Packed local-complementation toggles keyed by the neighbourhood
    mask m: rows i in m flip the columns m minus i. At most 2^n keys."""

    def __init__(self, n: int, w: int) -> None:
        super().__init__()
        self._w = w
        self._nodiag = ((1 << n * w) - 1) ^ sum(1 << i * (w + 1) for i in range(n))

    def __missing__(self, m: int) -> int:
        # bit i of m to bit i*w; the product copies m into each row i in
        # m without carries, as the copies occupy disjoint w-bit rows
        t = self[m] = (_spread(m, self._w) * m) & self._nodiag
        return t


def _packed_walk(g: SimpleGraph):
    """Start, step and unpacking with row i at bits [i*w, i*w + n) of one
    int, for a row width w of 8 or 16 bits: the rows of a member unpack
    in one ``struct`` call instead of n shifts."""
    n = g.n
    w, code = (8, "B") if n <= 8 else (16, "H")
    full = (1 << n) - 1
    shifts = range(0, n * w, w)
    toggles = _Toggles(n, w)

    def step(cur: int) -> list[int]:
        return [cur ^ toggles[(cur >> s) & full] for s in shifts]

    unpack = struct.Struct(f"<{n}{code}").unpack
    nbytes = n * w // 8

    def rows_of(packed: int) -> tuple[int, ...]:
        return unpack(packed.to_bytes(nbytes, "little"))

    start = sum(r << s for r, s in zip(g.rows, shifts))
    return start, step, rows_of


def _row_walk(g: SimpleGraph):
    """Start, step and unpacking on adjacency row tuples."""
    n = g.n

    # a generator, so a walk that stops at the cap skips the remaining
    # O(degree) complementations of its last member
    def step(cur: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for v in range(n):
            rows = list(cur)
            local_complement_rows(rows, v)
            yield tuple(rows)

    return g.rows, step, tuple


def lc_orbit(g: SimpleGraph, cap: int = 10_000) -> Orbit:
    """BFS closure under local complementation at every vertex.

    Graphs of at most ``PACKED_MAX_N`` vertices are walked as one packed
    int each, larger ones as row tuples; both visit members in the same
    order. Stops expanding once ``cap`` graphs were collected; the
    partial result is flagged.
    """
    start, step, rows_of = (_packed_walk if g.n <= PACKED_MAX_N else _row_walk)(g)
    seen = {start}
    queue = deque([start])
    truncated = False
    while queue and not truncated:
        for nxt in step(queue.popleft()):
            if nxt not in seen:
                if len(seen) >= cap:
                    truncated = True
                    break
                seen.add(nxt)
                queue.append(nxt)
    return Orbit(g.n, seen, rows_of, truncated)


@dataclass(frozen=True)
class BipartiteSplit:
    """Two-sided vertex partition with all edges crossing sides."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(sorted(self.left)))
        object.__setattr__(self, "right", tuple(sorted(self.right)))

    @property
    def k1(self) -> int:
        return len(self.left)

    @property
    def k2(self) -> int:
        return len(self.right)

    def validate_partition(self, n: int) -> None:
        """The sides are disjoint and cover the vertices 0..n-1."""
        left, right = set(self.left), set(self.right)
        if left & right:
            raise PreconditionError(f"sides overlap: {sorted(left & right)}")
        if left | right != set(range(n)):
            raise PreconditionError("sides do not cover the vertex set")

    def validate(self, g: SimpleGraph) -> None:
        """A partition of g's vertices with no edge inside a side."""
        self.validate_partition(g.n)
        for side, name in ((self.left, "left"), (self.right, "right")):
            mask = sum(1 << v for v in side)
            for v in side:
                if g.rows[v] & mask:
                    other = (g.rows[v] & mask).bit_length() - 1
                    raise PreconditionError(
                        f"edge inside {name} side", edge=(min(v, other), max(v, other))
                    )


def complementation_edge_parity(g: SimpleGraph, split: BipartiteSplit, j: int) -> int:
    """Parity of left-side edges toggled by complementing right vertex j."""
    if j not in split.right:
        raise PreconditionError(f"vertex {j} is not on the right side")
    return math.comb(g.degree(j), 2) % 2


@dataclass
class LemmaReport:
    """Machine-checkable record of the bipartite case analysis."""

    k1: int
    k2: int
    cross_rank: int
    case1_excluded: bool
    case2_solvable: bool
    complementation_set: tuple[int, ...] | None
    needed_edge_count: int
    toggle_parities: dict[int, int]
    certificate: str | None  # "parity" | "linear-system" | None
    graph_check_passed: bool | None = None

    def as_dict(self) -> dict:
        return {
            "k1": self.k1,
            "k2": self.k2,
            "cross_rank": self.cross_rank,
            "case1_excluded": self.case1_excluded,
            "case2_solvable": self.case2_solvable,
            "complementation_set": (
                list(self.complementation_set)
                if self.complementation_set is not None
                else None
            ),
            "needed_edge_count": self.needed_edge_count,
            "toggle_parities": {str(k): v for k, v in self.toggle_parities.items()},
            "certificate": self.certificate,
            "graph_check_passed": self.graph_check_passed,
        }


def lemma_case_analysis(
    g1: SimpleGraph, split: BipartiteSplit, g2: SimpleGraph
) -> LemmaReport:
    """Structural LC analysis for a connected bipartite graph.

    Given g2 = g1 plus extra left-side edges only and unequal side
    sizes, any LC map between the graph states forces the two diagonal
    corner blocks to be jointly zero or jointly identity (propagated
    along the connected cross edges). The jointly-zero case would force
    both products of the cross block with its transpose to be identity,
    impossible since the cross rank is at most min(k1, k2). In the
    remaining case a witness exists iff some set of right vertices,
    complemented, reproduces the added left edges; that is a linear
    system in the right-side selector and is solved here, with the edge
    parity ledger as the human-readable impossibility certificate.
    """
    if g1.n != g2.n:
        raise DimensionMismatchError(f"graph sizes differ: {g1.n} != {g2.n}")
    split.validate(g1)
    if not g1.is_connected():
        raise PreconditionError("graph must be connected")
    if split.k1 == split.k2:
        raise PreconditionError("side sizes must differ")
    left, right = split.left, split.right
    left_mask = sum(1 << v for v in left)
    right_mask = sum(1 << v for v in right)
    for v in right:
        if g2.rows[v] & right_mask:
            raise PreconditionError("second graph has a right-side edge")
    for v in range(g1.n):
        other_side = right_mask if (1 << v) & left_mask else left_mask
        if (g1.rows[v] ^ g2.rows[v]) & other_side:
            raise PreconditionError("cross edges differ between the graphs")

    # rows and columns indexed by vertex; the columns off the right side
    # are all zero, so rank and solution read as on side positions
    cross = {u: g1.rows[u] & right_mask for u in left}
    cross_rank = GF2Matrix(split.k1, g1.n, list(cross.values())).rank()
    case1_excluded = cross_rank < max(split.k1, split.k2)

    added = {u: g2.rows[u] & left_mask for u in left}  # added left-side edges
    needed = sum(m.bit_count() for m in added.values()) // 2

    # off-diagonal system: sum_m cross[u][m] cross[v][m] x_m = added[u][v]
    rows = []
    rhs = []
    for i, u in enumerate(left):
        for v in left[i + 1:]:
            rows.append(cross[u] & cross[v])
            rhs.append((added[u] >> v) & 1)
    system = GF2Matrix(len(rows), g1.n, rows)
    sol = solve_linear_gf2(system, rhs)

    # complementation_edge_parity for each j, without its side check
    toggles = {j: math.comb(g1.degree(j), 2) % 2 for j in right}

    if sol is None:
        certificate = (
            "parity"
            if needed % 2 == 1 and all(t == 0 for t in toggles.values())
            else "linear-system"
        )
        return LemmaReport(
            split.k1, split.k2, cross_rank, case1_excluded,
            case2_solvable=False, complementation_set=None,
            needed_edge_count=needed, toggle_parities=toggles,
            certificate=certificate,
        )

    chosen = tuple(v for v in right if (sol.particular >> v) & 1)
    check = g1
    for j in chosen:
        check = local_complement(check, j)
    return LemmaReport(
        split.k1, split.k2, cross_rank, case1_excluded,
        case2_solvable=True, complementation_set=chosen,
        needed_edge_count=needed, toggle_parities=toggles,
        certificate=None, graph_check_passed=(check == g2),
    )
