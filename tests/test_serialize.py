"""File-format round trips and DOT determinism."""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from conftest import hypergraphs, simple_graphs
from hyperlu import serialize
from hyperlu.hypergraph import SimpleGraph, WeightedHypergraph, from_graph, star_graph
from hyperlu.transforms import lc_gate, x_gate, x_power_gate, z_power_gate
from hyperlu.weights import Weight


@given(hypergraphs())
def test_hypergraph_json_round_trip(h):
    again = serialize.hypergraph_from_dict(
        json.loads(json.dumps(serialize.hypergraph_to_dict(h)))
    )
    assert again == h


def test_hypergraph_json_shape():
    h = WeightedHypergraph.make(
        3, [((0, 1), Weight(1)), ((2,), Weight(7, 2))], phase=Weight(1, 1)
    )
    data = serialize.hypergraph_to_dict(h)
    assert data == {
        "n": 3,
        "edges": [{"v": [0, 1], "w": "1"}, {"v": [2], "w": "7/4"}],
        "phase": "1/2",
    }


@given(simple_graphs())
def test_adjacency_round_trip(g):
    assert serialize.graph_from_adjacency_text(serialize.graph_to_adjacency_text(g)) == g


def test_adjacency_text_shape():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    assert serialize.graph_to_adjacency_text(g) == "3\n010\n100\n000\n"


def test_adjacency_rejects_ragged_rows():
    with pytest.raises(ValueError):
        serialize.graph_from_adjacency_text("2\n01\n1")


def test_sequence_round_trip():
    seq = (
        x_power_gate(0, Weight(1, 2)),
        z_power_gate(3, Weight(-15, 2)),
        x_gate(2),
        lc_gate(1),
    )
    items = serialize.sequence_to_list(seq)
    assert items[0] == {"q": 0, "g": "Xp", "a": "1/4"}
    assert items[2] == {"q": 2, "g": "X"}
    assert serialize.sequence_from_list(json.loads(json.dumps(items))) == seq


def test_sequence_rejects_unknown_kind():
    with pytest.raises(ValueError):
        serialize.sequence_from_list([{"q": 0, "g": "H"}])


def test_load_state_accepts_adjacency(tmp_path):
    g = star_graph(3)
    p = tmp_path / "g.adj"
    p.write_text(serialize.graph_to_adjacency_text(g))
    assert serialize.load_state(p) == from_graph(g)
    assert serialize.load_graph(p) == g


def test_load_graph_accepts_graph_state_json(tmp_path):
    g = star_graph(3)
    p = tmp_path / "g.json"
    p.write_text(serialize.dump_hypergraph(from_graph(g)))
    assert serialize.load_graph(p) == g


class TestDot:
    def test_plain_and_fancy_edges(self):
        h = WeightedHypergraph.make(
            4,
            [
                ((0, 1), Weight(1)),
                ((1, 2), Weight(3, 1)),
                ((1, 2, 3), Weight(1)),
                ((3,), Weight(1, 2)),
            ],
        )
        dot = serialize.hypergraph_to_dot(h)
        assert "q0 -- q1;" in dot
        assert 'q1 -- q2 [style=dashed, label="3/2"]' in dot
        assert 'shape=box, label="1"' in dot  # the three-edge hub
        assert 'shape=box, label="1/4"' in dot  # the single-qubit edge hub
        assert "q3 -- w" in dot

    def test_deterministic(self):
        g = star_graph(5)
        assert serialize.graph_to_dot(g) == serialize.graph_to_dot(g)

    def test_phase_label(self):
        h = WeightedHypergraph.make(1, phase=Weight(1, 1))
        assert 'label="phase 1/2"' in serialize.hypergraph_to_dot(h)


@pytest.mark.parametrize("data", [[1, 2], None, "n", 3])
def test_state_must_be_an_object(data):
    with pytest.raises(ValueError, match="state must be an object"):
        serialize.hypergraph_from_dict(data)


def test_edge_bit_budget_is_inclusive():
    """2^14 edges (i, 2^18 - 1) hold 2^14 * 2^18 = MAX_EDGE_BITS bits and
    load; one more edge, even a single vertex, is refused."""
    from hyperlu.errors import SizeLimitError
    from hyperlu.hypergraph import MAX_EDGE_BITS

    n = 1 << 18
    data = {"n": n, "edges": [{"v": [n - 1, i], "w": "1"} for i in range(1 << 14)]}
    assert (1 << 14) * n == MAX_EDGE_BITS
    assert len(serialize.hypergraph_from_dict(data).edges) == 1 << 14
    data["edges"].append({"v": [0], "w": "1/2"})
    with pytest.raises(SizeLimitError, match="edges of 4294967297 bits exceed 4294967296"):
        serialize.hypergraph_from_dict(data)
