from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from hyperlu.hypergraph import SimpleGraph, WeightedHypergraph
from hyperlu.weights import Weight

# the verify workload's construction specs, in its job order
VERIFY_LADDER = (
    "bipartite:7:5", "twentyseven", "bipartite:7:4", "bipartite:8:5", "bipartite:11:9",
    "bipartite:11:8", "bipartite:11:4", "bipartite:11:7", "bipartite:11:6", "bipartite:9:5",
)
# small bipartite specs: four whose sweep does not cancel, two whose split is refused
SMALL_SPECS = (
    "bipartite:5:2", "bipartite:6:3", "bipartite:4:4",
    "bipartite:3:2", "bipartite:1:1", "bipartite:2:1",
)


def per_subset_ledger(g, split, alpha: Fraction) -> dict[tuple[int, ...], Fraction]:
    """The sweep ledger as one Fraction addition per subset occurrence."""
    raw = defaultdict(Fraction)
    for v in split.right:
        nbrs = g.neighbors(v)
        for size in range(1, len(nbrs) + 1):
            contrib = Fraction((-2) ** (size - 1)) * alpha
            for subset in itertools.combinations(nbrs, size):
                raw[subset] += contrib
    return dict(raw)


def weights(max_exp: int = 3) -> st.SearchStrategy[Weight]:
    return st.builds(
        Weight,
        st.integers(min_value=-32, max_value=32),
        st.integers(min_value=0, max_value=max_exp),
    )


def nonzero_weights(max_exp: int = 3) -> st.SearchStrategy[Weight]:
    return weights(max_exp).filter(lambda w: not w.is_zero)


@st.composite
def edges_on(draw, n: int, allow_empty: bool = False):
    vs = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=0 if allow_empty else 1))
    return tuple(sorted(vs))


@st.composite
def hypergraphs(draw, max_n: int = 5, max_edges: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    count = draw(st.integers(min_value=0, max_value=max_edges))
    items = [(draw(edges_on(n)), draw(weights())) for _ in range(count)]
    phase = draw(weights())
    return WeightedHypergraph.make(n, items, phase)


@st.composite
def simple_graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return SimpleGraph.from_edges(n, chosen)


def all_graphs(n: int) -> list[SimpleGraph]:
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        out.append(SimpleGraph.from_edges(n, edges))
    return out


def connected_graphs(n: int) -> list[SimpleGraph]:
    return [g for g in all_graphs(n) if g.is_connected()]


@pytest.fixture
def star4() -> SimpleGraph:
    from hyperlu.hypergraph import star_graph

    return star_graph(4)


@pytest.fixture
def triangle() -> SimpleGraph:
    from hyperlu.hypergraph import complete_graph

    return complete_graph(3)
