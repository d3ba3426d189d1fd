"""Graphical rewriting of weighted hypergraph states under local gates.

Supported gates: Z to a dyadic power (adds weight on a single-qubit
edge), the Pauli X (toggles the link of the vertex), X to a dyadic
power (adds the expanded power-of-product delta of the link), and local
complementation (on graphs directly, or as its gate composite on graph
states).

Every rule is implemented once, on :class:`_Fold`: a mutable working
copy of a state, integer weight numerators keyed by edge bitmasks with
an index from each vertex to its edges. A sequence folds all its gates
over one working copy and canonicalizes once at the end; the
single-gate functions are one-gate folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import PreconditionError, SequenceStepError, VertexRangeError
from .hypergraph import Edge, SimpleGraph, WeightedHypergraph, edge_to_mask, mask_to_edge
from .phase_algebra import add_expansion
from .weights import HALF, ZERO, Weight

GateKind = Literal["X", "Xp", "Zp", "LC"]

# X^(1/2) at a vertex complements its neighborhood; each neighbor then
# carries a stray single-qubit weight cancelled by Z^(-1/2) == Z^(3/2).
# Frozen once from a brute-force scan on the triangle (regression-tested
# against the state-vector oracle).
LC_X_EXPONENT = HALF
LC_NEIGHBOR_Z_EXPONENT = Weight(3, 1)


@dataclass(frozen=True)
class GateApplication:
    """One local gate: kind, target qubit, dyadic exponent where used."""

    qubit: int
    kind: GateKind
    exponent: Weight | None = None

    def __post_init__(self) -> None:
        needs_exp = self.kind in ("Xp", "Zp")
        if needs_exp and self.exponent is None:
            raise ValueError(f"{self.kind} gate requires an exponent")
        if not needs_exp and self.exponent is not None:
            raise ValueError(f"{self.kind} gate takes no exponent")


GateSequence = tuple[GateApplication, ...]


def x_gate(q: int) -> GateApplication:
    return GateApplication(q, "X")


def x_power_gate(q: int, alpha: Weight) -> GateApplication:
    return GateApplication(q, "Xp", alpha)


def z_power_gate(q: int, alpha: Weight) -> GateApplication:
    return GateApplication(q, "Zp", alpha)


def lc_gate(q: int) -> GateApplication:
    return GateApplication(q, "LC")


class _Fold:
    """Mutable working state: nonzero weight numerators keyed by edge bitmask.

    ``nums`` maps each edge mask (0 is the empty edge, the global phase)
    to its numerator over the shared denominator 2**exp, reduced modulo
    2; ``exp`` only grows, when a gate needs a finer denominator.
    ``index`` maps each vertex that has edges to the masks of its edges.
    Built from a canonical state, which it never modifies; every rule
    reads its precondition from the working state, so a gate sees the
    effect of all gates folded before it.
    """

    __slots__ = ("n", "exp", "nums", "index")

    def __init__(self, h: WeightedHypergraph):
        self.n = h.n
        self.exp = max([w.exp for _, w in h.edges] + [h.phase.exp])
        self.nums: dict[int, int] = {}
        self.index: dict[int, set[int]] = {}
        for e, w in h.edges:
            m = edge_to_mask(e)
            self.nums[m] = w.num << (self.exp - w.exp)
            for v in e:
                if (masks := self.index.get(v)) is None:
                    self.index[v] = {m}
                else:
                    masks.add(m)
        if h.phase:
            self.nums[0] = h.phase.num << (self.exp - h.phase.exp)

    def state(self) -> WeightedHypergraph:
        """The canonical state: edges sorted as vertex tuples."""
        exp = self.exp
        phase = Weight(self.nums.get(0, 0), exp)
        edges = sorted((mask_to_edge(m), Weight(num, exp)) for m, num in self.nums.items() if m)
        return WeightedHypergraph(self.n, tuple(edges), phase)

    def lift(self, exp: int) -> None:
        """Raise the shared denominator to at least 2**exp."""
        if exp > self.exp:
            shift = exp - self.exp
            self.nums = {m: num << shift for m, num in self.nums.items()}
            self.exp = exp

    def scaled(self, w: Weight) -> int:
        """``w`` as a numerator over 2**exp, lifting exp when ``w`` needs it."""
        self.lift(w.exp)
        return w.num << (self.exp - w.exp)

    def add(self, mask: int, num: int) -> None:
        """Add ``num / 2**exp`` (mod 2) on the edge ``mask``."""
        nums, index = self.nums, self.index
        old = nums.get(mask, 0)  # stored numerators are nonzero
        total = (old + num) & ((2 << self.exp) - 1)
        if total:
            nums[mask] = total
            if old:
                return
            rest = mask
            while rest:
                low = rest & -rest
                index.setdefault(low.bit_length() - 1, set()).add(mask)
                rest ^= low
        elif old:
            del nums[mask]
            rest = mask
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                masks = index[v]
                masks.discard(mask)
                if not masks:
                    del index[v]
                rest ^= low

    def check_vertex(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise VertexRangeError(f"vertex {i} out of range for n={self.n}")

    def incident(self, i: int) -> list[int]:
        return list(self.index.get(i, ()))

    def link(self, i: int, two_edges: bool = False) -> list[int]:
        """Masks of the edges at ``i`` with ``i`` removed; all need weight 1.

        With ``two_edges`` (the LC rule) every edge at ``i`` must also be
        a two-edge. A failure names the smallest bad edge.
        """
        self.check_vertex(i)
        incident = self.incident(i)
        one = 1 << self.exp
        bad = [
            (mask_to_edge(m), Weight(self.nums[m], self.exp))
            for m in incident
            if self.nums[m] != one or (two_edges and m.bit_count() != 2)
        ]
        if bad:
            e, w = min(bad)
            if two_edges:
                msg = f"LC needs weight-1 two-edges at vertex {i}, found {e} weight {w}"
            else:
                msg = f"edge {e} at vertex {i} has weight {w}, need 1"
            raise PreconditionError(msg, edge=e)
        return [m ^ (1 << i) for m in incident]

    def z_power(self, i: int, alpha: Weight) -> None:
        self.check_vertex(i)
        self.add(1 << i, self.scaled(alpha))

    def pauli_x(self, i: int, extended: bool = False) -> None:
        if not extended:
            one = 1 << self.exp
            for m in self.link(i):
                self.add(m, one)
            return
        self.check_vertex(i)
        bit = 1 << i
        for m in self.incident(i):
            num = self.nums[m]
            self.add(m ^ bit, num)
            self.add(m, -2 * num)

    def expand(self, masks: list[int], alpha: Weight) -> None:
        """Add the power-of-product delta of the gates on ``masks``."""
        delta: dict[int, int] = {}
        add_expansion(delta, masks, alpha)
        self.lift(alpha.exp)
        shift = self.exp - alpha.exp
        for m, num in delta.items():  # add reduces mod 2 and skips what cancels
            self.add(m, num << shift)

    def x_power(self, i: int, alpha: Weight) -> None:
        self.expand(self.link(i), alpha)

    def local_complement(self, v: int) -> None:
        """The X^(1/2) + neighbor-Z composite.

        Requires every edge at ``v`` to be a weight-1 two-edge, which is
        exactly when the composite reproduces graph complementation.
        """
        neighbors = self.link(v, two_edges=True)
        self.expand(neighbors, LC_X_EXPONENT)
        z = self.scaled(LC_NEIGHBOR_Z_EXPONENT)  # after expand, which may lift exp
        for m in neighbors:  # the Z rule's addition on each one-vertex mask
            self.add(m, z)

    def apply(self, gate: GateApplication) -> None:
        if gate.kind == "X":
            self.pauli_x(gate.qubit)
        elif gate.kind == "Xp":
            self.x_power(gate.qubit, gate.exponent)
        elif gate.kind == "Zp":
            self.z_power(gate.qubit, gate.exponent)
        elif gate.kind == "LC":
            self.local_complement(gate.qubit)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")


def link(h: WeightedHypergraph, i: int) -> list[Edge]:
    """Edges of ``h`` containing ``i``, each with ``i`` removed.

    Listed in the canonical order of the full edges, so the empty edge
    (when {i} itself is an edge) comes where {i} does. Requires every
    edge at ``i`` to carry weight 1; fractional incidence has no
    product-of-involutions form (see :func:`apply_pauli_x` extended
    mode for the Pauli-X special case).
    """
    reduced = _Fold(h).link(i)
    return [mask_to_edge(m) for m in sorted(reduced, key=lambda m: mask_to_edge(m | 1 << i))]


def apply_pauli_x(
    h: WeightedHypergraph, i: int, extended: bool = False
) -> WeightedHypergraph:
    """Pauli X on qubit i: add weight 1 to every edge of the link.

    In extended mode, fractional-weight incident edges are allowed via
    the conjugation rule X_i C_e^w X_i = C_{e-i}^w C_e^{-w}: each
    incident edge e contributes w on e minus i and -2w on e itself.
    Extended mode is validated against the state-vector oracle only.
    """
    fold = _Fold(h)
    fold.pauli_x(i, extended)
    return fold.state()


def apply_x_power(h: WeightedHypergraph, i: int, alpha: Weight) -> WeightedHypergraph:
    """X^alpha on qubit i: expand the power of the link's gate product.

    The created edges never contain ``i``, so repeated powers at the
    same vertex add their exponents.
    """
    return apply_gate(h, x_power_gate(i, alpha))


def local_complement_rows(rows: list[int], v: int) -> None:
    """Local complementation at ``v``, in place on adjacency rows.

    The caller guarantees ``0 <= v < len(rows)``; valid rows stay valid.
    """
    m = rows[v]
    u = m
    while u:
        low = u & -u
        # toggle toward all other neighbors, not itself
        rows[low.bit_length() - 1] ^= m ^ low
        u ^= low


def local_complement(g: SimpleGraph, v: int) -> SimpleGraph:
    """Complement the subgraph induced by the neighborhood of ``v``."""
    if not (0 <= v < g.n):
        raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    rows = list(g.rows)
    local_complement_rows(rows, v)
    return SimpleGraph._trusted(g.n, tuple(rows))


def local_complement_sequence(g: SimpleGraph, v: int) -> GateSequence:
    """Gate composite realizing local complementation on a graph state."""
    seq = [x_power_gate(v, LC_X_EXPONENT)]
    seq += [z_power_gate(u, LC_NEIGHBOR_Z_EXPONENT) for u in g.neighbors(v)]
    return tuple(seq)


def apply_gate(h: WeightedHypergraph, gate: GateApplication) -> WeightedHypergraph:
    """One-gate fold; precondition failures keep their own error type."""
    fold = _Fold(h)
    fold.apply(gate)
    return fold.state()


def apply_sequence(
    h: WeightedHypergraph, seq: Iterable[GateApplication]
) -> WeightedHypergraph:
    """Fold ``seq`` left to right over one working copy of ``h``.

    Each gate's precondition is checked against the state the earlier
    gates left, and the result is canonicalized once, at the end. A
    failing gate raises :class:`SequenceStepError` carrying its
    zero-based index. ``h`` itself is never modified.
    """
    fold = _Fold(h)
    for idx, gate in enumerate(seq):
        try:
            fold.apply(gate)
        except (PreconditionError, VertexRangeError, ValueError) as exc:
            raise SequenceStepError(idx, str(exc)) from exc
    return fold.state()


def state_delta(
    before: WeightedHypergraph, after: WeightedHypergraph
) -> dict[Edge, Weight]:
    """Net per-edge weight change (mod 2) in edge order, phase last under ()."""
    before_d = before.edge_dict()
    after_d = after.edge_dict()
    delta: dict[Edge, Weight] = {}
    for e in sorted(set(before_d) | set(after_d)):
        d = after_d.get(e, ZERO) - before_d.get(e, ZERO)
        if not d.is_zero:
            delta[e] = d
    dphase = after.phase - before.phase
    if not dphase.is_zero:
        delta[()] = dphase
    return delta


def sequence_deltas(
    h: WeightedHypergraph, seq: Sequence[GateApplication]
) -> dict[Edge, Weight]:
    """Net per-edge weight change of a sequence (mod 2), phase under ()."""
    return state_delta(h, apply_sequence(h, seq))
