"""Trusted graph paths against the validated slow path.

Local complementation results are built without re-validation. Here
they are compared with graph-by-graph folds in which every step goes
through the validating constructor, and malformed external input is
checked to keep its error types and messages.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_graphs, simple_graphs
from hyperlu import counterexamples as cx
from hyperlu import lc_solver, serialize
from hyperlu.errors import VertexRangeError
from hyperlu.hypergraph import SimpleGraph, complete_graph, path_graph, star_graph
from hyperlu.lc_solver import BipartiteSplit, lc_orbit
from hyperlu.transforms import local_complement


def slow_local_complement(g: SimpleGraph, v: int) -> SimpleGraph:
    """Toggle every pair of neighbors of ``v``; validated on construction."""
    edges = set(g.edge_list())
    edges ^= set(itertools.combinations(g.neighbors(v), 2))
    return SimpleGraph.from_edges(g.n, edges)


def slow_orbit(g: SimpleGraph, cap: int) -> tuple[set[SimpleGraph], bool]:
    """Breadth-first closure over validated graphs, vertices in order."""
    seen, queue = {g}, [g]
    for cur in queue:
        for v in range(g.n):
            nxt = slow_local_complement(cur, v)
            if nxt not in seen:
                if len(seen) >= cap:
                    return seen, True
                seen.add(nxt)
                queue.append(nxt)
    return seen, False


def slow_coloring(g: SimpleGraph):
    """Depth-first two-colouring that scans ``neighbors()`` in order."""
    colors = [-1] * g.n
    for start in range(g.n):
        if colors[start] != -1:
            continue
        colors[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if colors[w] == -1:
                    colors[w] = colors[u] ^ 1
                    stack.append(w)
                elif colors[w] == colors[u]:
                    return None, (min(u, w), max(u, w))
    return tuple(colors), None


def slow_sequence(g: SimpleGraph, split: BipartiteSplit, subset) -> tuple:
    """Graph-by-graph fold of the four stages, then the two-colouring:
    (graph, violating edge, left, right)."""
    chosen = sorted(set(subset))
    work = g
    for stage in (split.left, chosen, split.left, chosen):
        for v in stage:
            work = slow_local_complement(work, v)
    colors, violation = slow_coloring(work)
    if violation is not None:
        return work, violation, None, None
    side0 = tuple(v for v in range(work.n) if colors[v] == 0)
    side1 = tuple(v for v in range(work.n) if colors[v] == 1)
    if (len(side1), side1) < (len(side0), side0):
        side0, side1 = side1, side0
    return work, None, side0, side1


def reference_check(n: int, rows: tuple[int, ...]) -> None:
    """The adjacency checks written out pair by pair, in their order."""
    if len(rows) != n:
        raise ValueError("adjacency row count differs from n")
    for i, r in enumerate(rows):
        if r >> n:
            raise VertexRangeError(f"row {i} has bits beyond n={n}")
        if (r >> i) & 1:
            raise ValueError(f"nonzero diagonal at {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if ((rows[i] >> j) & 1) != ((rows[j] >> i) & 1):
                raise ValueError(f"adjacency not symmetric at ({i},{j})")


def outcome_of(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


@st.composite
def split_instances(draw, max_n: int = 9):
    """A graph, a two-sided split of its vertices and a right-side subset;
    half of the graphs only have edges across the split."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    left = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n - 1))
    right = [v for v in range(n) if v not in left]
    pairs = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        pairs = [(i, j) for i, j in pairs if (i in left) != (j in left)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [p for k, p in enumerate(pairs) if (bits >> k) & 1]
    subset = draw(st.lists(st.sampled_from(right), max_size=len(right)))
    return SimpleGraph.from_edges(n, edges), BipartiteSplit(tuple(left), tuple(right)), subset


class TestLocalComplement:
    @given(simple_graphs(max_n=9), st.data())
    def test_matches_validated_fold_and_is_an_involution(self, g, data):
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        out = local_complement(g, v)
        assert SimpleGraph(out.n, out.rows) == out  # passes the public checks
        assert out == slow_local_complement(g, v)
        assert local_complement(out, v) == g

    @pytest.mark.parametrize("v", [-1, 3, 7])
    def test_out_of_range_vertex_keeps_its_error(self, v):
        with pytest.raises(VertexRangeError, match=f"vertex {v} out of range for n=3"):
            local_complement(SimpleGraph.empty(3), v)


class TestOrbit:
    # graphs on both sides of lc_solver.PACKED_MAX_N = 16 (packed ints up
    # to 16 vertices, row tuples above)
    @settings(max_examples=60, deadline=None)
    @given(simple_graphs(max_n=18), st.integers(min_value=1, max_value=40))
    @example(path_graph(16), 25)
    @example(path_graph(17), 25)
    @example(complete_graph(16), 3)
    @example(star_graph(17), 40)
    def test_matches_validated_bfs_under_small_caps(self, g, cap):
        orbit = lc_orbit(g, cap=cap)
        members, truncated = slow_orbit(g, cap)
        assert orbit.size == len(orbit.graphs)
        assert orbit.graphs == frozenset(members)
        assert orbit.truncated == truncated
        assert all(SimpleGraph(m.n, m.rows) == m for m in orbit.graphs)

    @pytest.mark.parametrize("n", [16, 17])
    def test_orbit_out_file_matches_row_walk_and_validated_bfs(self, tmp_path, capsys, monkeypatch, n):
        """Either side of the packed limit, the ``--out`` file equals the
        one of a forced row walk and the sorted blocks of ``slow_orbit``."""
        import random

        from hyperlu.cli import main

        rng = random.Random(n)
        g = SimpleGraph.from_edges(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.3])
        path = tmp_path / "g.adj"
        path.write_text(serialize.graph_to_adjacency_text(g))
        results = []
        for limit in (lc_solver.PACKED_MAX_N, 0):  # as shipped, then rows only
            monkeypatch.setattr(lc_solver, "PACKED_MAX_N", limit)
            out = tmp_path / f"orbit{limit}.txt"
            code = main(["orbit", str(path), "--cap", "700", "--out", str(out)])
            results.append((code, capsys.readouterr().out, out.read_text()))
        assert results[0] == results[1]
        members, truncated = slow_orbit(g, 700)
        assert truncated and results[0][0] == 2
        assert results[0][2] == "\n".join(sorted(serialize.graph_to_adjacency_text(m) for m in members))

    def test_toggle_memo_holds_at_most_one_entry_per_neighbourhood(self, monkeypatch):
        memos = []

        class Recording(lc_solver._Toggles):
            def __init__(self, n, w):
                super().__init__(n, w)
                memos.append((n, self))

        monkeypatch.setattr(lc_solver, "_Toggles", Recording)
        cycle10 = SimpleGraph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
        cases = ((complete_graph(4), 100), (cycle10, 100_000), (path_graph(16), 3000))
        orbits = [lc_orbit(g, cap=cap) for g, cap in cases]
        assert [n for n, _ in memos] == [4, 10, 16]
        for (n, memo), orbit in zip(memos, orbits):
            assert len(memo) <= 1 << n
            # keyed by the neighbourhoods of expanded members: all of
            # them for a full orbit, some of them for a truncated one
            rows = {r for m in orbit.graphs for r in m.rows}
            assert set(memo) == rows if not orbit.truncated else set(memo) <= rows
        assert [o.truncated for o in orbits] == [False, False, True]

    @settings(max_examples=30, deadline=None)
    @given(simple_graphs(max_n=6))
    def test_matches_validated_bfs_in_full(self, g):
        orbit = lc_orbit(g)
        assert not orbit.truncated
        assert orbit.graphs == frozenset(slow_orbit(g, 10_000)[0])


class TestBipartitePreservingSequence:
    def test_coloring_scans_neighbors_in_order_on_every_small_graph(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                assert g.bipartite_coloring() == slow_coloring(g), g

    @settings(max_examples=150, deadline=None)
    @given(split_instances())
    def test_matches_graph_by_graph_fold(self, instance):
        g, split, subset = instance
        outcome = cx.bipartite_preserving_sequence(g, split, subset)
        graph, violation, left, right = slow_sequence(g, split, subset)
        assert outcome.graph == graph
        assert SimpleGraph(graph.n, outcome.graph.rows) == graph
        assert outcome.violating_edge == violation
        assert outcome.ok == (violation is None)
        if violation is None:
            assert (outcome.split.left, outcome.split.right) == (left, right)
        else:
            assert outcome.split is None

    def test_out_of_range_split_vertex_keeps_its_error(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        split = BipartiteSplit((1, 5), (0, 2))
        with pytest.raises(VertexRangeError, match="vertex 5 out of range for n=3"):
            cx.bipartite_preserving_sequence(g, split, (0,))


@st.composite
def raw_rows(draw):
    """A symmetric adjacency with a few bits flipped (off-diagonal, on the
    diagonal or beyond ``n``), sometimes with a row too many or too few."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    rows = [0] * n
    for k, (i, j) in enumerate(pairs):
        if (bits >> k) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    if n:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n)), max_size=4)):
            rows[i] ^= 1 << j
    count = draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 0)]))
    return n, tuple((rows + [0])[:count])


class TestMalformedInput:
    @settings(max_examples=300)
    @given(raw_rows())
    def test_constructor_keeps_error_types_and_messages(self, case):
        n, rows = case
        assert outcome_of(SimpleGraph, n, rows) == outcome_of(reference_check, n, rows)

    @given(raw_rows())
    def test_adjacency_loader_keeps_error_types_and_messages(self, case):
        n, rows = case
        rows = tuple(r & ((1 << n) - 1) for r in rows)
        if len(rows) != n:
            return
        text = f"{n}\n" + "".join(
            "".join("1" if (r >> j) & 1 else "0" for j in range(n)) + "\n" for r in rows
        )
        assert outcome_of(serialize.graph_from_adjacency_text, text) == outcome_of(
            reference_check, n, rows
        )

    def test_asymmetric_text_names_the_first_pair(self):
        with pytest.raises(ValueError, match=r"adjacency not symmetric at \(0,2\)"):
            serialize.graph_from_adjacency_text("3\n001\n000\n010\n")
