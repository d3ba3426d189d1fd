"""Graphical rewriting of weighted hypergraph states under local gates.

Supported gates: Z to a dyadic power (adds weight on a single-qubit
edge), the Pauli X (toggles the link of the vertex), X to a dyadic
power (adds the expanded power-of-product delta of the link), and local
complementation (on graphs directly, or as its gate composite on graph
states).

Every rule is implemented once, on :class:`_Fold`: a mutable working
copy of a state keyed by edge bitmasks. A sequence folds all its gates
over one working copy and canonicalizes once at the end; the
single-gate functions are one-gate folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import PreconditionError, SequenceStepError, VertexRangeError
from .hypergraph import Edge, SimpleGraph, WeightedHypergraph
from .phase_algebra import power_of_product
from .weights import HALF, ONE, ZERO, Weight

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


def _mask(e: Edge) -> int:
    m = 0
    for v in e:
        m |= 1 << v
    return m


def _edge(mask: int) -> Edge:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _Fold:
    """Mutable working state: bitmask-keyed nonzero weights and a phase.

    Built from a canonical state, which it never modifies; every rule
    reads its precondition from the working state, so a gate sees the
    effect of all gates folded before it.
    """

    __slots__ = ("n", "weights", "phase")

    def __init__(self, h: WeightedHypergraph):
        self.n = h.n
        self.weights = {_mask(e): w for e, w in h.edges}
        self.phase = h.phase

    def state(self) -> WeightedHypergraph:
        """The canonical state: edges sorted as vertex tuples."""
        edges = sorted((_edge(m), w) for m, w in self.weights.items())
        return WeightedHypergraph(self.n, tuple(edges), self.phase)

    def add(self, mask: int, w: Weight) -> None:
        """Add ``w`` (mod 2) on the edge ``mask``; the empty edge is the phase."""
        if not mask:
            self.phase += w
            return
        total = self.weights.get(mask, ZERO) + w
        if total.is_zero:
            self.weights.pop(mask, None)
        else:
            self.weights[mask] = total

    def check_vertex(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise VertexRangeError(f"vertex {i} out of range for n={self.n}")

    def incident(self, i: int) -> list[tuple[int, Weight]]:
        bit = 1 << i
        return [(m, w) for m, w in self.weights.items() if m & bit]

    def link(self, i: int) -> list[int]:
        """Masks of the edges at ``i`` with ``i`` removed; all need weight 1."""
        self.check_vertex(i)
        incident = self.incident(i)
        bad = [(_edge(m), w) for m, w in incident if w != ONE]
        if bad:
            e, w = min(bad)
            raise PreconditionError(f"edge {e} at vertex {i} has weight {w}, need 1", edge=e)
        return [m ^ (1 << i) for m, _ in incident]

    def z_power(self, i: int, alpha: Weight) -> None:
        self.check_vertex(i)
        self.add(1 << i, alpha)

    def pauli_x(self, i: int, extended: bool = False) -> None:
        if not extended:
            for m in self.link(i):
                self.add(m, ONE)
            return
        self.check_vertex(i)
        bit = 1 << i
        for m, w in self.incident(i):
            self.add(m ^ bit, w)
            self.add(m, w * -2)

    def x_power(self, i: int, alpha: Weight) -> None:
        delta = power_of_product([_edge(m) for m in self.link(i)], alpha)
        for e, w in delta.items():
            self.add(_mask(e), w)

    def local_complement(self, v: int) -> None:
        """The X^(1/2) + neighbor-Z composite.

        Requires every edge at ``v`` to be a weight-1 two-edge, which is
        exactly when the composite reproduces graph complementation.
        """
        self.check_vertex(v)
        incident = self.incident(v)
        bad = [(_edge(m), w) for m, w in incident if m.bit_count() != 2 or w != ONE]
        if bad:
            e, w = min(bad)
            raise PreconditionError(
                f"LC needs weight-1 two-edges at vertex {v}, found {e} weight {w}",
                edge=e,
            )
        self.x_power(v, LC_X_EXPONENT)
        for m, _ in incident:
            self.add(m ^ (1 << v), LC_NEIGHBOR_Z_EXPONENT)

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

    May include the empty edge (when {i} itself is an edge). Requires
    every edge at ``i`` to carry weight 1; fractional incidence has no
    product-of-involutions form (see :func:`apply_pauli_x` extended
    mode for the Pauli-X special case).
    """
    return [_edge(m) for m in _Fold(h).link(i)]


def apply_z_power(h: WeightedHypergraph, i: int, alpha: Weight) -> WeightedHypergraph:
    """Z^alpha on qubit i adds weight alpha to the edge {i}."""
    return apply_gate(h, z_power_gate(i, alpha))


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
