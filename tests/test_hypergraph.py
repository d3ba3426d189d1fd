"""Canonical forms, state equality and the graph special case."""

from __future__ import annotations

import pytest
from hypothesis import given

from conftest import hypergraphs, simple_graphs, weights
from hyperlu.errors import DimensionMismatchError, VertexRangeError
from hyperlu.hypergraph import (
    SimpleGraph,
    WeightedHypergraph,
    from_graph,
    is_graph_state,
    normalize_edge,
    star_graph,
    states_equal,
    to_graph,
)
from hyperlu.weights import Weight


class TestCanonicalize:
    def test_even_weight_vanishes(self):
        h = WeightedHypergraph.make(2, [((0, 1), Weight(2))])
        assert h.edges == ()

    def test_negative_single_qubit_weight(self):
        h = WeightedHypergraph.make(2, [((1,), Weight(-5))])
        assert h.weight((1,)) == Weight(1)

    def test_weight_six_disappears(self):
        h = WeightedHypergraph.make(3, [((0, 2), Weight(6))])
        assert h.edges == ()

    def test_empty_edge_folds_into_phase(self):
        h = WeightedHypergraph.make(2, [((), Weight(1, 1)), ((0,), Weight(1))])
        assert h.phase == Weight(1, 1)
        assert h.weight(()) == Weight(1, 1)

    def test_idempotent_on_canonical(self):
        h = WeightedHypergraph.make(3, [((0, 1), Weight(1, 2)), ((2,), Weight(1))])
        assert WeightedHypergraph.make(h.n, h.edges, h.phase) == h

    @given(hypergraphs())
    def test_idempotent_property(self, h):
        once = WeightedHypergraph.make(h.n, h.edges, h.phase)
        assert WeightedHypergraph.make(once.n, once.edges, once.phase) == once

    def test_duplicate_edges_accumulate(self):
        h = WeightedHypergraph.make(2, [((0, 1), Weight(1, 1)), ((1, 0), Weight(1, 1))])
        assert h.weight((0, 1)) == Weight(1)


class TestAddWeight:
    def test_insert_into_empty(self):
        h = WeightedHypergraph.make(2)
        out = WeightedHypergraph.make(2, [*h.edges, ((1,), Weight(1, 2))], h.phase)
        assert out.weight((1,)) == Weight(1, 2)

    def test_cancellation(self):
        h = WeightedHypergraph.make(2, [((1,), Weight(1, 2))])
        assert WeightedHypergraph.make(2, [*h.edges, ((1,), Weight(-1, 2))], h.phase).edges == ()

    def test_repeated_subtraction_wraps(self):
        # 1/4 - 2/4 = -1/4, i.e. 7/4 modulo 2
        h = WeightedHypergraph.make(2, [((1,), Weight(1, 2))])
        for _ in range(2):
            h = WeightedHypergraph.make(2, [*h.edges, ((1,), Weight(-1, 2))], h.phase)
        assert h.weight((1,)) == Weight(7, 2)

    def test_out_of_range(self):
        h = WeightedHypergraph.make(2)
        with pytest.raises(VertexRangeError):
            WeightedHypergraph.make(2, [*h.edges, ((5,), Weight(1))], h.phase)

    @given(hypergraphs(), weights())
    def test_add_then_subtract_restores(self, h, w):
        added = WeightedHypergraph.make(h.n, [*h.edges, ((0,), w)], h.phase)
        out = WeightedHypergraph.make(h.n, [*added.edges, ((0,), -w)], h.phase)
        assert out == h


class TestStatesEqual:
    def test_reflexive(self):
        h = WeightedHypergraph.make(2, [((0, 1), Weight(1))])
        assert states_equal(h, h)

    def test_global_phase_flag(self):
        h = WeightedHypergraph.make(2, [((0, 1), Weight(1))])
        shifted = WeightedHypergraph.make(2, h.edges, h.phase + Weight(1))
        assert not states_equal(h, shifted)
        assert states_equal(h, shifted, ignore_global_phase=True)

    def test_size_mismatch_raises(self):
        a = WeightedHypergraph.make(2)
        b = WeightedHypergraph.make(3)
        with pytest.raises(DimensionMismatchError):
            states_equal(a, b)

    @given(hypergraphs(), hypergraphs())
    def test_symmetric(self, a, b):
        if a.n != b.n:
            return
        assert states_equal(a, b) == states_equal(b, a)

    @given(hypergraphs(), hypergraphs(), hypergraphs())
    def test_transitive(self, a, b, c):
        if not (a.n == b.n == c.n):
            return
        if states_equal(a, b) and states_equal(b, c):
            assert states_equal(a, c)


class TestGraphStates:
    def test_empty_graph(self):
        h = from_graph(SimpleGraph.empty(3))
        assert h.edges == () and h.n == 3

    def test_single_edge(self):
        h = from_graph(SimpleGraph.from_edges(2, [(0, 1)]))
        assert h.edges == (((0, 1), Weight(1)),)

    @given(simple_graphs())
    def test_from_graph_is_graph_state(self, g):
        assert is_graph_state(from_graph(g))

    @given(simple_graphs())
    def test_round_trip_through_state(self, g):
        assert to_graph(from_graph(g)) == g

    def test_three_edge_is_not_graph_state(self):
        h = WeightedHypergraph.make(4, [((1, 2, 3), Weight(1))])
        assert not is_graph_state(h)

    def test_fractional_two_edge_is_not_graph_state(self):
        h = WeightedHypergraph.make(3, [((1, 2), Weight(1, 1))])
        assert not is_graph_state(h)


class TestSimpleGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, (2, 0))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(2, [(1, 1)])

    def test_star_shape(self):
        g = star_graph(4)
        assert g.degrees() == (3, 1, 1, 1)
        assert g.is_connected()

    def test_bipartite_coloring_on_odd_cycle(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        colors, violation = g.bipartite_coloring()
        assert colors is None and violation is not None

    def test_normalize_edge_sorts_and_dedups(self):
        assert normalize_edge([3, 1, 3, 0]) == (0, 1, 3)
