"""Graphical gate rules, cross-checked against the dense oracle."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import connected_graphs, hypergraphs, simple_graphs
from hyperlu import oracle
from hyperlu.errors import PreconditionError, SequenceStepError, VertexRangeError
from hyperlu.hypergraph import (
    SimpleGraph,
    WeightedHypergraph,
    from_graph,
    states_equal,
)
from hyperlu.transforms import (
    GateApplication,
    apply_gate,
    apply_pauli_x,
    apply_sequence,
    apply_x_power,
    lc_gate,
    link,
    local_complement,
    local_complement_sequence,
    x_gate,
    x_power_gate,
    z_power_gate,
)
from hyperlu.weights import Weight


def dense_matches(h, gates, tol=1e-10):
    """Dense replay of the gates must match the symbolic result."""
    symbolic = apply_sequence(h, gates)
    dense = oracle.replay_dense(h, list(gates))
    return oracle.equal_up_to_global_phase(oracle.dense_state(symbolic), dense, tol=tol)


class TestLink:
    def test_star_center(self, star4):
        h = from_graph(star4)
        assert link(h, 0) == [(1,), (2,), (3,)]

    def test_single_qubit_edge_gives_empty_edge(self):
        h = WeightedHypergraph.make(1, [((0,), Weight(1))])
        assert link(h, 0) == [()]

    def test_three_edge(self):
        h = WeightedHypergraph.make(3, [((0, 1, 2), Weight(1))])
        assert link(h, 2) == [(0, 1)]

    def test_fractional_incidence_names_the_edge(self):
        h = WeightedHypergraph.make(2, [((0, 1), Weight(1, 1))])
        with pytest.raises(PreconditionError) as exc:
            link(h, 0)
        assert exc.value.edge == (0, 1)


class TestZPower:
    def test_zero_power_is_identity(self, star4):
        h = from_graph(star4)
        assert apply_gate(h, z_power_gate(2, Weight(0))) == h

    def test_cancels_quarter_weight(self):
        h = WeightedHypergraph.make(2, [((1,), Weight(1, 2))])
        out = apply_gate(h, z_power_gate(1, Weight(-1, 2)))
        assert out.edges == ()

    def test_creates_single_edge(self):
        h = WeightedHypergraph.make(2)
        out = apply_gate(h, z_power_gate(0, Weight(1)))
        assert out.weight((0,)) == Weight(1)


class TestPauliX:
    def test_involution(self, star4):
        h = from_graph(star4)
        assert apply_pauli_x(apply_pauli_x(h, 0), 0) == h

    def test_star_center_toggles_link(self, star4):
        h = from_graph(star4)
        out = apply_pauli_x(h, 0)
        for v in (1, 2, 3):
            assert out.weight((v,)) == Weight(1)
        assert out.weight((0, 1)) == Weight(1)

    def test_edgeless_state_unchanged(self):
        h = WeightedHypergraph.make(3)
        assert apply_pauli_x(h, 1) == h

    def test_equals_full_x_power(self, star4):
        h = from_graph(star4)
        assert apply_pauli_x(h, 0) == apply_x_power(h, 0, Weight(1))

    @given(hypergraphs(max_n=4))
    def test_extended_mode_matches_oracle(self, h):
        for i in range(h.n):
            symbolic = apply_pauli_x(h, i, extended=True)
            dense = oracle.apply_unitary_1q(oracle.dense_state(h), i, oracle.PAULI_X)
            assert oracle.equal_up_to_global_phase(
                oracle.dense_state(symbolic), dense, tol=1e-10
            )

    def test_extended_agrees_with_strict_on_unit_weights(self, star4):
        h = from_graph(star4)
        assert apply_pauli_x(h, 0, extended=True) == apply_pauli_x(h, 0)


class TestXPower:
    def test_star_quarter_power(self, star4):
        h = from_graph(star4)
        out = apply_x_power(h, 0, Weight(1, 2))
        expected = WeightedHypergraph.make(
            4,
            {
                (0, 1): Weight(1),
                (0, 2): Weight(1),
                (0, 3): Weight(1),
                (1,): Weight(1, 2),
                (2,): Weight(1, 2),
                (3,): Weight(1, 2),
                (1, 2): Weight(3, 1),
                (1, 3): Weight(3, 1),
                (2, 3): Weight(3, 1),
                (1, 2, 3): Weight(1),
            },
        )
        assert states_equal(out, expected)

    def test_zero_power(self, star4):
        h = from_graph(star4)
        assert apply_x_power(h, 2, Weight(0)) == h

    def test_new_edges_never_contain_the_vertex(self, star4):
        h = from_graph(star4)
        out = apply_x_power(h, 0, Weight(1, 2))
        created = set(out.edge_dict()) - set(h.edge_dict())
        assert all(0 not in e for e in created)

    def test_half_power_on_triangle_is_complementation_up_to_z(self, triangle):
        h = from_graph(triangle)
        out = apply_x_power(h, 0, Weight(1, 1))
        fixed = apply_gate(out, z_power_gate(1, Weight(-1, 1)))
        fixed = apply_gate(fixed, z_power_gate(2, Weight(-1, 1)))
        assert states_equal(
            fixed, from_graph(local_complement(triangle, 0)), ignore_global_phase=True
        )

    def test_exponent_additivity_at_fixed_vertex(self, star4):
        h = from_graph(star4)
        a, b = Weight(1, 2), Weight(3, 2)
        once = apply_x_power(apply_x_power(h, 0, a), 0, b)
        assert once == apply_x_power(h, 0, a + b)

    @pytest.mark.parametrize("alpha", [Weight(1, 2), Weight(1, 1), Weight(3, 2), Weight(1)])
    def test_oracle_equivalence_on_small_connected_graphs(self, alpha):
        for g in connected_graphs(4):
            h = from_graph(g)
            for v in range(g.n):
                assert dense_matches(h, [x_power_gate(v, alpha)])

    def test_oracle_equivalence_on_random_hypergraphs(self):
        rng = np.random.default_rng(7)
        cases = 0
        while cases < 50:
            n = int(rng.integers(2, 5))
            pool = [
                tuple(sorted(s))
                for size in range(1, n + 1)
                for s in itertools.combinations(range(n), size)
            ]
            picks = rng.choice(len(pool), size=min(len(pool), 4), replace=False)
            h = WeightedHypergraph.make(n, [(pool[p], Weight(1)) for p in picks])
            v = int(rng.integers(0, n))
            alpha = Weight(int(rng.integers(1, 8)), 2)
            if any(v in e and w != Weight(1) for e, w in h.edges):
                continue
            assert dense_matches(h, [x_power_gate(v, alpha)])
            cases += 1


class TestLocalComplement:
    def test_five_vertex_example(self):
        # neighborhood of vertex 1 is {0, 3, 4}; the edge {0,3} inside it
        # flips off while {0,4} and {3,4} flip on; {2,3} is untouched
        g = SimpleGraph.from_edges(5, [(0, 1), (1, 3), (1, 4), (0, 3), (2, 3)])
        out = local_complement(g, 1)
        expected = SimpleGraph.from_edges(
            5, [(0, 1), (1, 3), (1, 4), (0, 4), (3, 4), (2, 3)]
        )
        assert out == expected

    def test_isolated_vertex(self):
        g = SimpleGraph.from_edges(3, [(0, 1)])
        assert local_complement(g, 2) == g

    @given(simple_graphs())
    def test_involution(self, g):
        for v in range(g.n):
            assert local_complement(local_complement(g, v), v) == g

    @settings(max_examples=40)
    @given(simple_graphs(max_n=6))
    def test_composite_sequence_matches_graph_rule(self, g):
        for v in range(g.n):
            seq = local_complement_sequence(g, v)
            out = apply_sequence(from_graph(g), seq)
            target = from_graph(local_complement(g, v))
            assert states_equal(out, target, ignore_global_phase=True)

    def test_frozen_correction_exponents_against_oracle(self, triangle):
        """The 1/2 and 3/2 exponents are the unique quarter-grid choice
        reproducing complementation on the triangle."""
        h = from_graph(triangle)
        target = oracle.dense_state(from_graph(local_complement(triangle, 0)))
        hits = []
        for xp in range(1, 8):
            for zp in range(8):
                state = oracle.dense_state(h)
                state = oracle.apply_unitary_1q(state, 0, oracle.x_power_matrix(xp / 4))
                for u in (1, 2):
                    state = oracle.apply_unitary_1q(state, u, oracle.z_power_matrix(zp / 4))
                if oracle.equal_up_to_global_phase(state, target, tol=1e-10):
                    hits.append((Weight(xp, 2), Weight(zp, 2)))
        assert (Weight(1, 1), Weight(3, 1)) in hits
        from hyperlu.transforms import LC_NEIGHBOR_Z_EXPONENT, LC_X_EXPONENT

        assert (LC_X_EXPONENT, LC_NEIGHBOR_Z_EXPONENT) in hits


class TestSequences:
    def test_empty_sequence(self, star4):
        h = from_graph(star4)
        assert apply_sequence(h, []) == h

    def test_inverse_powers_cancel(self, star4):
        h = from_graph(star4)
        seq = [x_power_gate(0, Weight(1, 2)), x_power_gate(0, Weight(-1, 2))]
        assert apply_sequence(h, seq) == h

    def test_failing_step_is_indexed(self):
        h = WeightedHypergraph.make(2, [((0, 1), Weight(1, 1))])
        seq = [z_power_gate(0, Weight(1)), x_power_gate(0, Weight(1, 2))]
        with pytest.raises(SequenceStepError) as exc:
            apply_sequence(h, seq)
        assert exc.value.step == 1

    def test_lc_gate_on_graph_state(self, triangle):
        out = apply_sequence(from_graph(triangle), [lc_gate(0)])
        assert states_equal(
            out, from_graph(local_complement(triangle, 0)), ignore_global_phase=True
        )

    def test_lc_gate_rejects_hyperedges(self):
        h = WeightedHypergraph.make(3, [((0, 1, 2), Weight(1))])
        with pytest.raises(SequenceStepError):
            apply_sequence(h, [lc_gate(0)])

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            GateApplication(0, "Xp")  # missing exponent
        with pytest.raises(ValueError):
            GateApplication(0, "X", Weight(1, 1))  # spurious exponent


def random_legal_sequence(h, rng, length):
    """Gates drawn at random, each kept only if legal on the state so far."""
    gates, cur = [], h
    while len(gates) < length:
        kind = rng.choice(["X", "Xp", "Zp", "LC"])
        exponent = Weight(rng.randrange(1, 8), 2) if kind in ("Xp", "Zp") else None
        gate = GateApplication(rng.randrange(h.n), kind, exponent)
        try:
            cur = apply_sequence(cur, [gate])
        except SequenceStepError:
            continue  # Zp is always legal, so this terminates
        gates.append(gate)
    return gates


def random_start(rng, n):
    pairs = list(itertools.combinations(range(n), 2))
    g = SimpleGraph.from_edges(n, [p for p in pairs if rng.random() < 0.4])
    h = from_graph(g)
    triple = tuple(sorted(rng.sample(range(n), 3)))
    return WeightedHypergraph.make(n, list(h.edges) + [(triple, Weight(1))])


class TestFold:
    """One fold over a working copy equals gate-by-gate application."""

    def test_split_sequences_compose_and_match_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(4, 11)
            h = random_start(rng, n)
            seq = random_legal_sequence(h, rng, rng.randrange(4, 16))
            whole = apply_sequence(h, seq)
            cut = rng.randrange(len(seq) + 1)
            assert whole == apply_sequence(apply_sequence(h, seq[:cut]), seq[cut:])
            stepwise = h
            for gate in seq:
                stepwise = apply_gate(stepwise, gate)
            assert whole == stepwise
            dense = oracle.replay_dense(h, seq)
            assert oracle.equal_up_to_global_phase(oracle.dense_state(whole), dense, tol=1e-10)

    def test_gate_made_illegal_by_earlier_gate_names_its_index(self, triangle):
        h = from_graph(SimpleGraph.from_edges(3, [(0, 1), (1, 2)]))
        assert apply_sequence(h, [x_gate(0)]) is not None  # legal on the input
        # X^(1/4) at 1 puts weight 1/4 on {0} and 3/2 on {0,2}; X at 0 needs 1
        seq = [x_power_gate(1, Weight(1, 2)), z_power_gate(2, Weight(1)), x_gate(0)]
        with pytest.raises(SequenceStepError) as exc:
            apply_sequence(h, seq)
        assert exc.value.step == 2
        assert isinstance(exc.value.__cause__, PreconditionError)
        assert exc.value.__cause__.edge == (0,)
        # LC at 1 is legal on the triangle, but X^(1/2) at 0 first puts
        # weight 1/2 on {1}
        assert apply_sequence(from_graph(triangle), [lc_gate(1)]) is not None
        seq = [lc_gate(0), x_power_gate(0, Weight(1, 2)), lc_gate(1)]
        with pytest.raises(SequenceStepError) as exc:
            apply_sequence(from_graph(triangle), seq)
        assert exc.value.step == 2

    def test_input_state_is_unchanged(self, star4):
        h = WeightedHypergraph.make(
            4, list(from_graph(star4).edges) + [((1, 2, 3), Weight(1))], Weight(1, 2)
        )
        before = (h.n, h.edges, h.phase, h.edge_dict())
        seq = random_legal_sequence(h, random.Random(3), 20)
        out = apply_sequence(h, seq)
        assert out != h
        assert (h.n, h.edges, h.phase, h.edge_dict()) == before

    def test_single_gate_functions_keep_their_error_types(self):
        h = WeightedHypergraph.make(3, [((0, 1), Weight(1, 1)), ((0, 1, 2), Weight(1))])
        with pytest.raises(PreconditionError) as exc:
            apply_x_power(h, 0, Weight(1, 2))
        assert exc.value.edge == (0, 1)
        with pytest.raises(PreconditionError):
            apply_pauli_x(h, 1)
        with pytest.raises(PreconditionError):
            link(h, 0)
        with pytest.raises(PreconditionError):
            apply_gate(h, lc_gate(2))
        with pytest.raises(VertexRangeError):
            apply_gate(h, z_power_gate(3, Weight(1)))
        with pytest.raises(VertexRangeError):
            apply_pauli_x(h, -1, extended=True)
        with pytest.raises(VertexRangeError):
            apply_x_power(h, 5, Weight(1, 2))
        with pytest.raises(VertexRangeError):
            apply_gate(h, lc_gate(3))
