"""The indexed integer fold and its satellites against slow paths.

The gate fold keeps integer numerators over one shared power of two and
an index from each vertex to its edge masks. It is compared here with
the dense state-vector oracle, with a scan-based fold on ``Weight``
values that expands every subset of a link explicitly (the engine as it
was before the index), and its index with a full scan after every gate.
The counted sweep ledger, the bit-walking vertex pattern spans
and ``SimpleGraph.edge_list`` are compared with the loops they replaced.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from conftest import VERIFY_LADDER, all_graphs, per_subset_ledger
from hyperlu import counterexamples as cx
from hyperlu import lc_solver, oracle
from hyperlu.errors import PreconditionError, SequenceStepError, VertexRangeError
from hyperlu.gf2 import solve_linear_gf2
from hyperlu.hypergraph import (
    SimpleGraph,
    WeightedHypergraph,
    from_graph,
    mask_to_edge,
)
from hyperlu.transforms import (
    LC_NEIGHBOR_Z_EXPONENT,
    LC_X_EXPONENT,
    GateApplication,
    _Fold,
    apply_gate,
    apply_pauli_x,
    apply_sequence,
    link,
    local_complement,
)
from hyperlu.weights import ONE, ZERO, Weight

EXPONENTS = [
    Weight(1), Weight(1, 1), Weight(1, 2), Weight(3, 2), Weight(3, 3),
    Weight(7, 4), Weight(-1, 2), Weight(5, 5),
]


class ScanFold:
    """Weight-valued fold keyed by vertex tuples, scanning for incidence.

    Every subset of a link is expanded, with no pruning, so the rules
    share no code with the engine's fold.
    """

    def __init__(self, h: WeightedHypergraph):
        self.n = h.n
        self.weights = dict(h.edges)
        self.phase = h.phase

    def state(self) -> WeightedHypergraph:
        return WeightedHypergraph(self.n, tuple(sorted(self.weights.items())), self.phase)

    def add(self, e: tuple[int, ...], w: Weight) -> None:
        if not e:
            self.phase += w
            return
        total = self.weights.get(e, ZERO) + w
        if total.is_zero:
            self.weights.pop(e, None)
        else:
            self.weights[e] = total

    def check_vertex(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise VertexRangeError(f"vertex {i} out of range for n={self.n}")

    def incident(self, i: int) -> list[tuple[tuple[int, ...], Weight]]:
        return [(e, w) for e, w in self.weights.items() if i in e]

    def link(self, i: int) -> list[tuple[int, ...]]:
        self.check_vertex(i)
        incident = self.incident(i)
        bad = [(e, w) for e, w in incident if w != ONE]
        if bad:
            e, w = min(bad)
            raise PreconditionError(f"edge {e} at vertex {i} has weight {w}, need 1", edge=e)
        return [tuple(u for u in e if u != i) for e, _ in incident]

    def expand(self, edges: list[tuple[int, ...]], alpha: Weight) -> None:
        for size in range(1, len(edges) + 1):
            contrib = alpha * (-2) ** (size - 1)
            for subset in itertools.combinations(edges, size):
                self.add(tuple(sorted(set().union(*subset))), contrib)

    def pauli_x(self, i: int, extended: bool = False) -> None:
        if not extended:
            for e in self.link(i):
                self.add(e, ONE)
            return
        self.check_vertex(i)
        for e, w in self.incident(i):
            self.add(tuple(u for u in e if u != i), w)
            self.add(e, w * -2)

    def local_complement(self, v: int) -> None:
        self.check_vertex(v)
        incident = self.incident(v)
        bad = [(e, w) for e, w in incident if len(e) != 2 or w != ONE]
        if bad:
            e, w = min(bad)
            raise PreconditionError(
                f"LC needs weight-1 two-edges at vertex {v}, found {e} weight {w}",
                edge=e,
            )
        partners = [(e[0] if e[1] == v else e[1],) for e, _ in incident]
        self.expand(partners, LC_X_EXPONENT)
        for e in partners:
            self.add(e, LC_NEIGHBOR_Z_EXPONENT)

    def apply(self, gate: GateApplication) -> None:
        if gate.kind == "X":
            self.pauli_x(gate.qubit)
        elif gate.kind == "Xp":
            self.expand(self.link(gate.qubit), gate.exponent)
        elif gate.kind == "Zp":
            self.check_vertex(gate.qubit)
            self.add((gate.qubit,), gate.exponent)
        else:
            self.local_complement(gate.qubit)


def scan_apply_sequence(h, seq):
    fold = ScanFold(h)
    for idx, gate in enumerate(seq):
        try:
            fold.apply(gate)
        except (PreconditionError, VertexRangeError) as exc:
            raise SequenceStepError(idx, str(exc)) from exc
    return fold.state()


def outcome(fn):
    """Result, or the error's type, message and edge."""
    try:
        return "ok", fn()
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return type(exc), str(exc), getattr(exc, "edge", None)


def random_state(rng: random.Random, max_n: int = 10, max_edges: int = 9) -> WeightedHypergraph:
    n = rng.randint(1, max_n)
    items = []
    for _ in range(rng.randint(0, max_edges)):
        size = min(n, rng.choice([1, 2, 2, 2, 3, 4]))
        w = ONE if rng.random() < 0.75 else rng.choice(EXPONENTS)
        items.append((tuple(rng.sample(range(n), size)), w))
    return WeightedHypergraph.make(n, items, rng.choice([ZERO, Weight(1, 3)]))


def random_gate(rng: random.Random, n: int) -> GateApplication:
    q = rng.randrange(n) if rng.random() < 0.95 else rng.choice([n, n + 3, -1])
    kind = rng.choice(["X", "Xp", "Xp", "Zp", "LC"])
    return GateApplication(q, kind, rng.choice(EXPONENTS) if kind in ("Xp", "Zp") else None)


def scan_index(nums: dict[int, int]) -> dict[int, set[int]]:
    index: dict[int, set[int]] = {}
    for m in nums:
        for v in mask_to_edge(m):
            index.setdefault(v, set()).add(m)
    return index


def assert_index_consistent(fold: _Fold) -> None:
    assert fold.index == scan_index(fold.nums)
    assert all(0 < num < 2 << fold.exp for num in fold.nums.values())


def legal_step(h: WeightedHypergraph, rng: random.Random):
    """A random step legal on ``h``: a gate, or ("Xext", q) for extended Pauli X."""
    q = rng.randrange(h.n)
    incident = h.edges_containing(q)
    choices = [GateApplication(q, "Zp", rng.choice(EXPONENTS)), ("Xext", q)]
    if all(w == ONE for _, w in incident):
        choices += [GateApplication(q, "X"), GateApplication(q, "Xp", rng.choice(EXPONENTS))] * 2
        if all(len(e) == 2 for e, _ in incident):
            choices += [GateApplication(q, "LC")] * 2
    return rng.choice(choices)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(24))
    def test_legal_sequences_match_dense_replay(self, seed):
        """Each run of gates between extended Pauli X steps is replayed
        densely from the state the fold had at its start."""
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        g = SimpleGraph.from_edges(
            n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        )
        extra = [(tuple(rng.sample(range(n), min(n, 3))), ONE)] if rng.random() < 0.5 else []
        h = WeightedHypergraph.make(n, list(from_graph(g).edges) + extra)
        fold = _Fold(h)
        start, segment = h, []
        for _ in range(rng.randint(4, 12)):
            step = legal_step(fold.state(), rng)
            if isinstance(step, GateApplication):
                fold.apply(step)
                segment.append(step)
            else:
                before = fold.state()
                fold.pauli_x(step[1], extended=True)
                dense = oracle.apply_unitary_1q(oracle.dense_state(before), step[1], oracle.PAULI_X)
                assert oracle.equal_up_to_global_phase(oracle.dense_state(fold.state()), dense)
                if segment:
                    dense = oracle.replay_dense(start, segment)
                    assert oracle.equal_up_to_global_phase(oracle.dense_state(before), dense)
                start, segment = fold.state(), []
            assert_index_consistent(fold)
        dense = oracle.replay_dense(start, segment)
        assert oracle.equal_up_to_global_phase(oracle.dense_state(fold.state()), dense)


class TestAgainstScanFold:
    def test_random_sequences_legal_and_illegal(self):
        rng = random.Random(20261018)
        seen = defaultdict(int)
        for _ in range(400):
            h = random_state(rng)
            seq = [random_gate(rng, h.n) for _ in range(rng.randint(1, 8))]
            fast = outcome(lambda: apply_sequence(h, seq))
            assert fast == outcome(lambda: scan_apply_sequence(h, seq))
            seen[fast[0] if fast[0] == "ok" else fast[0].__name__] += 1
        assert seen["ok"] > 50 and seen["SequenceStepError"] > 50

    def test_single_gates_keep_their_error_types(self):
        rng = random.Random(5)
        for _ in range(400):
            h = random_state(rng)
            gate = random_gate(rng, h.n)

            def scan():
                fold = ScanFold(h)
                fold.apply(gate)
                return fold.state()

            assert outcome(lambda: apply_gate(h, gate)) == outcome(scan)

    def test_pauli_x_both_modes(self):
        rng = random.Random(11)
        for _ in range(300):
            h = random_state(rng)
            q = rng.randrange(-1, h.n + 1)
            for extended in (False, True):

                def scan():
                    fold = ScanFold(h)
                    fold.pauli_x(q, extended)
                    return fold.state()

                assert outcome(lambda: apply_pauli_x(h, q, extended)) == outcome(scan)

    def test_index_after_every_gate(self):
        """Each gate is undone half of the time, so edges appear and
        cancel and vertices lose all their edges."""
        rng = random.Random(3)
        emptied = 0
        for _ in range(200):
            h = random_state(rng)
            fold = _Fold(h)
            assert_index_consistent(fold)
            for _ in range(6):
                gate = random_gate(rng, h.n)
                steps = [gate]
                if gate.kind != "LC" and rng.random() < 0.5:
                    exponent = -gate.exponent if gate.exponent is not None else None
                    steps.append(GateApplication(gate.qubit, gate.kind, exponent))
                for step in steps:
                    had_edges = set(fold.index)
                    try:
                        fold.apply(step)
                    except (PreconditionError, VertexRangeError):
                        pass
                    assert_index_consistent(fold)
                    emptied += len(had_edges - set(fold.index))
        assert emptied > 20


class TestLinkOrder:
    def test_singleton_edge_keeps_its_canonical_place(self):
        """The full edges at 1 sort (0,1) < (1,) < (1,2); sorting the
        reduced edges would put () first instead."""
        h = WeightedHypergraph.make(3, [((0, 1), ONE), ((1,), ONE), ((1, 2), ONE)])
        assert link(h, 1) == [(0,), (), (2,)]

    def test_random_states_match_scan(self):
        rng = random.Random(17)
        for _ in range(300):
            h = random_state(rng)
            q = rng.randrange(-1, h.n + 1)
            assert outcome(lambda: link(h, q)) == outcome(lambda: ScanFold(h).link(q))


class TestVertexCap:
    def test_state_at_the_vertex_cap_folds_quickly(self):
        """Three edges on a 2^18-vertex state: the index holds only the
        vertices that have edges."""
        import time

        from hyperlu.hypergraph import MAX_VERTICES

        n = MAX_VERTICES
        h = WeightedHypergraph.make(
            n, [((0, n - 1), ONE), ((1, n - 1), ONE), ((n - 2,), Weight(1, 2))]
        )
        seq = [
            GateApplication(n - 1, "LC"),
            GateApplication(n - 1, "Xp", Weight(1, 2)),
            GateApplication(n - 2, "Zp", Weight(7, 4)),
            GateApplication(n - 1, "X"),
        ]
        start = time.perf_counter()
        fold = _Fold(h)
        for gate in seq:
            fold.apply(gate)
        out = fold.state()
        assert time.perf_counter() - start < 0.2
        assert len(fold.index) <= 4
        assert out == scan_apply_sequence(h, seq)


@pytest.mark.parametrize("spec", VERIFY_LADDER)
def test_counted_ledger_matches_per_subset_sums(spec):
    g, split = cx.build(cx.parse_spec(spec))
    alpha = Fraction(1, 4)
    counted = cx._raw_sweep_deltas(g, split, alpha)
    expected = per_subset_ledger(g, split, alpha)
    assert list(counted.items()) == list(expected.items())
    assert all(type(v) is Fraction for v in counted.values())


def shift_per_vertex_spans(basis: list[int], n: int) -> list[set[int]]:
    """Each vertex's span, shifting every basis vector once per vertex."""
    spans = []
    for v in range(n):
        span = {0}
        for vec in basis:
            p = (vec >> (4 * v)) & 15
            if p:
                span |= {s ^ p for s in span}
        spans.append(span)
    return spans


def solver_basis(g1: SimpleGraph, g2: SimpleGraph) -> list[int]:
    return list(solve_linear_gf2(lc_solver._lc_system(g1, g2), 0).nullspace)


def test_pattern_spans_match_per_vertex_shifts():
    rng = random.Random(29)
    pairs = []
    for _ in range(40):
        n = rng.randint(1, 24)
        g1 = SimpleGraph.from_edges(
            n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        )
        g2 = g1
        for _ in range(rng.randint(0, 4)):
            g2 = local_complement(g2, rng.randrange(n))
        if rng.random() < 0.3:
            g2 = SimpleGraph.from_edges(
                n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.3]
            )
        pairs.append((g1, g2))
    for spec in ("twentyseven", "bipartite:7:5"):
        g1, split = cx.build(cx.parse_spec(spec))
        pairs.append((g1, cx.derive_lu_partner(g1, split).target))
    for g1, g2 in pairs:
        basis = solver_basis(g1, g2)
        assert lc_solver._vertex_pattern_spans(basis, g1.n) == shift_per_vertex_spans(basis, g1.n)


def double_loop_edges(g: SimpleGraph) -> list[tuple[int, int]]:
    return [
        (i, j) for i in range(g.n) for j in range(i + 1, g.n) if (g.rows[i] >> j) & 1
    ]


def test_edge_list_matches_double_loop():
    for n in range(0, 7):
        for g in all_graphs(n):
            assert g.edge_list() == double_loop_edges(g)
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(7, 30)
        g = SimpleGraph.from_edges(
            n, [p for p in itertools.combinations(range(n), 2) if rng.random() < rng.random()]
        )
        assert g.edge_list() == double_loop_edges(g)
