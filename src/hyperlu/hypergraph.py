"""Weighted hypergraph states and plain graphs.

A state on ``n`` qubits is a canonical map from hyperedges (sorted
vertex tuples) to nonzero dyadic weights modulo 2, plus a global phase
carried by the empty edge. Identical states compare bit-identical in
canonical form. All values are immutable; every operation returns a new
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, SizeLimitError, VertexRangeError
from .weights import ONE, ZERO, Weight

Edge = tuple[int, ...]

# Largest vertex count, and largest sum over edges of top vertex + 1,
# accepted from input and construction specs. An edge on vertex v is a
# (v + 1)-bit mask inside the engine, and its adjacency rows as wide, so
# the second bounds the memory that edge masks and rows take.
MAX_VERTICES = 1 << 18
MAX_EDGE_BITS = 1 << 32


def check_vertex_count(n: int) -> None:
    """Reject a vertex count above :data:`MAX_VERTICES` from input."""
    if n > MAX_VERTICES:
        raise SizeLimitError(f"vertex count {n} exceeds {MAX_VERTICES}")


def check_edge_bits(bits: int) -> None:
    """Reject edges of more than :data:`MAX_EDGE_BITS` bits in all from input."""
    if bits > MAX_EDGE_BITS:
        raise SizeLimitError(f"edges of {bits} bits exceed {MAX_EDGE_BITS}")


def normalize_edge(vertices: Iterable[int]) -> Edge:
    """Sorted duplicate-free vertex tuple; may be empty (global phase)."""
    vs = sorted(set(vertices))
    for v in vs:
        if not isinstance(v, int) or v < 0:
            raise VertexRangeError(f"bad vertex {v!r}")
    return tuple(vs)


def edge_to_mask(e: Iterable[int]) -> int:
    """Bitmask of a vertex set: bit v set iff v is in ``e``."""
    m = 0
    for v in e:
        m |= 1 << v
    return m


# the vertex tuples of all masks below 256, built once at import
_BYTE_EDGES = tuple(tuple(v for v in range(8) if (b >> v) & 1) for b in range(256))


def mask_to_edge(mask: int) -> Edge:
    """Sorted vertex tuple of a bitmask; the inverse of :func:`edge_to_mask`."""
    if mask < 256:
        return _BYTE_EDGES[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class WeightedHypergraph:
    """Canonical weighted hypergraph state.

    ``edges`` is sorted lexicographically on the vertex tuples, holds no
    zero weights and no empty edge (that folds into ``phase``).
    Input enters through :meth:`make`, which canonicalizes it and checks
    its vertex range; the constructor trusts its caller (the gate fold
    and :func:`from_graph` build canonical edges).
    """

    n: int
    edges: tuple[tuple[Edge, Weight], ...] = ()
    phase: Weight = ZERO

    @classmethod
    def make(
        cls,
        n: int,
        weights: Mapping[Iterable[int], Weight] | Iterable[tuple[Iterable[int], Weight]] = (),
        phase: Weight = ZERO,
    ) -> "WeightedHypergraph":
        """Canonicalize raw edge weights into a state."""
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[Edge, Weight] = {}
        for raw, w in items:
            e = normalize_edge(raw)
            if e and e[-1] >= n:
                raise VertexRangeError(f"edge {e} out of range for n={n}")
            acc[e] = acc.get(e, ZERO) + w
        phase = phase + acc.pop((), ZERO)
        canon = tuple(sorted((e, w) for e, w in acc.items() if not w.is_zero))
        return cls(n, canon, phase)

    @cached_property
    def _lookup(self) -> dict[Edge, Weight]:
        return dict(self.edges)

    def weight(self, e: Iterable[int]) -> Weight:
        """Weight of an edge, ``Weight(0)`` when absent; () gives the phase."""
        key = normalize_edge(e)
        if not key:
            return self.phase
        return self._lookup.get(key, ZERO)

    def edge_dict(self) -> dict[Edge, Weight]:
        return dict(self.edges)

    def edges_containing(self, v: int) -> tuple[tuple[Edge, Weight], ...]:
        return tuple((e, w) for e, w in self.edges if v in e)

    def __str__(self) -> str:
        body = ", ".join(f"{set(e) if e else '{}'}:{w}" for e, w in self.edges)
        tail = f", phase={self.phase}" if self.phase else ""
        return f"WHG(n={self.n}, {{{body}}}{tail})"


def states_equal(
    a: WeightedHypergraph, b: WeightedHypergraph, ignore_global_phase: bool = False
) -> bool:
    """Bit-identical comparison of canonical forms.

    Raises on vertex-count mismatch; with the flag set, the global phase
    is not compared.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"vertex counts differ: {a.n} != {b.n}")
    if a.edges != b.edges:
        return False
    return ignore_global_phase or a.phase == b.phase


@dataclass(frozen=True)
class SimpleGraph:
    """Labeled graph as a symmetric zero-diagonal bit matrix.

    ``rows[i]`` has bit ``j`` set iff {i, j} is an edge. The constructor
    and :meth:`from_edges` validate their input; results computed from
    valid graphs are built through :meth:`_trusted`, unchecked.
    """

    n: int
    rows: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count differs from n")
        for i, r in enumerate(self.rows):
            if r >> self.n:
                raise VertexRangeError(f"row {i} has bits beyond n={self.n}")
            if (r >> i) & 1:
                raise ValueError(f"nonzero diagonal at {i}")
        # transpose by walking set bits; the first row differing from its
        # column has its first mismatch above the diagonal, at its lowest bit
        cols = [0] * self.n
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
        for i, (r, c) in enumerate(zip(self.rows, cols)):
            if r != c:
                diff = r ^ c
                j = (diff & -diff).bit_length() - 1
                raise ValueError(f"adjacency not symmetric at ({i},{j})")

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "SimpleGraph":
        """Wrap rows known to be a valid adjacency (say, a local
        complement of a valid graph) without re-checking them."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Checks each edge once; the rows it builds are then symmetric,
        zero-diagonal and in range by construction."""
        if n < 0:  # as the constructor reports it
            raise ValueError("adjacency row count differs from n")
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise VertexRangeError(f"edge ({i},{j}) out of range for n={n}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls._trusted(n, tuple(rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges (i, j), i < j, in lexicographic order."""
        out = []
        for i, r in enumerate(self.rows):
            out += [(i, j) for j in mask_to_edge(r >> (i + 1) << (i + 1))]
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return mask_to_edge(self.rows[v])

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            v = frontier
            while v:
                low = v & -v
                nxt |= self.rows[low.bit_length() - 1]
                v ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    def bipartite_coloring(self) -> tuple[tuple[int, ...], None] | tuple[None, tuple[int, int]]:
        """Two-color the graph.

        Returns (colors, None) on success or (None, violating_edge) when
        an edge joins two vertices of the same forced color.
        """
        colors = [-1] * self.n
        for start in range(self.n):
            if colors[start] != -1:
                continue
            colors[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                m = self.rows[u]  # neighbors in ascending order, as neighbors()
                while m:
                    low = m & -m
                    m ^= low
                    w = low.bit_length() - 1
                    if colors[w] == -1:
                        colors[w] = colors[u] ^ 1
                        stack.append(w)
                    elif colors[w] == colors[u]:
                        return None, (min(u, w), max(u, w))
        return tuple(colors), None


def from_graph(g: SimpleGraph) -> WeightedHypergraph:
    """Graph state: every graph edge becomes a 2-edge of weight 1."""
    # edge_list is sorted and duplicate-free, so the edges are canonical
    return WeightedHypergraph(g.n, tuple((e, ONE) for e in g.edge_list()))


def is_graph_state(h: WeightedHypergraph) -> bool:
    """True iff all edges are weight-1 2-edges (global phase arbitrary)."""
    return all(len(e) == 2 and w == ONE for e, w in h.edges)


def to_graph(h: WeightedHypergraph) -> SimpleGraph:
    """Extract the graph of a graph state; raises when ``h`` is not one."""
    if not is_graph_state(h):
        raise ValueError("state is not a graph state")
    return SimpleGraph.from_edges(h.n, [(e[0], e[1]) for e, _ in h.edges])


def star_graph(n: int) -> SimpleGraph:
    """Star with center 0 and leaves 1..n-1."""
    return SimpleGraph.from_edges(n, [(0, i) for i in range(1, n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )
