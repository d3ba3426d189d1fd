"""LC-equivalence solver, orbits, and the bipartite case analysis."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from hyperlu.errors import PreconditionError
from hyperlu.hypergraph import SimpleGraph, complete_graph, star_graph
from hyperlu.lc_solver import (
    BipartiteSplit,
    CliffordWitness,
    complementation_edge_parity,
    lc_equivalent,
    lc_orbit,
    lemma_case_analysis,
    verify_witness,
)
from hyperlu.transforms import local_complement


def five_vertex_pair() -> tuple[SimpleGraph, SimpleGraph]:
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 3), (1, 4), (0, 3), (2, 3)])
    return g, local_complement(g, 1)


class TestLcEquivalent:
    def test_identity_witness_on_equal_graphs(self):
        g = star_graph(4)
        w = lc_equivalent(g, g)
        assert w == CliffordWitness((1,) * 4, (0,) * 4, (0,) * 4, (1,) * 4)
        assert verify_witness(g, g, w)

    def test_complemented_pair_has_witness(self):
        g1, g2 = five_vertex_pair()
        w = lc_equivalent(g1, g2)
        assert w is not None
        assert verify_witness(g1, g2, w)

    def test_edge_vs_empty_is_negative(self):
        g1 = SimpleGraph.from_edges(2, [(0, 1)])
        g2 = SimpleGraph.empty(2)
        assert lc_equivalent(g1, g2) is None

    def test_size_mismatch(self):
        from hyperlu.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            lc_equivalent(SimpleGraph.empty(2), SimpleGraph.empty(3))

    def test_witness_constructor_enforces_nondegeneracy(self):
        with pytest.raises(ValueError):
            CliffordWitness((0,), (0,), (0,), (0,))

    def test_exhaustive_cross_validation_up_to_four_vertices(self):
        """Solver verdicts match orbit membership for every connected
        labeled pair on up to 4 vertices."""
        for n in (2, 3, 4):
            pool = connected_graphs(n)
            orbits = {g: lc_orbit(g).graphs for g in pool}
            for g1 in pool:
                for g2 in pool:
                    witness = lc_equivalent(g1, g2)
                    member = g2 in orbits[g1]
                    assert (witness is not None) == member, (g1, g2)
                    if witness is not None:
                        assert verify_witness(g1, g2, witness)


class TestOrbit:
    def test_edgeless_orbit_is_singleton(self):
        g = SimpleGraph.empty(4)
        orbit = lc_orbit(g)
        assert orbit.graphs == frozenset({g}) and not orbit.truncated

    def test_triangle_orbit(self):
        orbit = lc_orbit(complete_graph(3))
        expected = {
            complete_graph(3),
            SimpleGraph.from_edges(3, [(0, 1), (0, 2)]),
            SimpleGraph.from_edges(3, [(0, 1), (1, 2)]),
            SimpleGraph.from_edges(3, [(0, 2), (1, 2)]),
        }
        assert orbit.graphs == frozenset(expected)

    def test_single_edge_orbit(self):
        g = SimpleGraph.from_edges(2, [(0, 1)])
        assert lc_orbit(g).graphs == frozenset({g})

    def test_cap_flags_truncation(self):
        orbit = lc_orbit(star_graph(6), cap=2)
        assert orbit.truncated
        assert len(orbit.graphs) <= 2


class TestSplit:
    def test_validate_rejects_intra_side_edge(self):
        g = complete_graph(3)
        split = BipartiteSplit((0, 1), (2,))
        with pytest.raises(PreconditionError) as exc:
            split.validate(g)
        assert exc.value.edge == (0, 1)

    def test_validate_rejects_non_cover(self):
        g = SimpleGraph.empty(3)
        with pytest.raises(PreconditionError):
            BipartiteSplit((0,), (1,)).validate(g)


class TestEdgeParity:
    @pytest.mark.parametrize("degree,parity", [(5, 0), (4, 0), (2, 1), (3, 1)])
    def test_choose_two_parity(self, degree, parity):
        g = star_graph(degree + 1)
        split = BipartiteSplit(tuple(range(1, degree + 1)), (0,))
        assert complementation_edge_parity(g, split, 0) == parity
        assert math.comb(degree, 2) % 2 == parity

    def test_wrong_side_rejected(self):
        g = star_graph(3)
        split = BipartiteSplit((0,), (1, 2))
        with pytest.raises(PreconditionError):
            complementation_edge_parity(g, split, 0)

    @settings(max_examples=40)
    @given(st.data())
    def test_parity_sum_matches_explicit_complementations(self, data):
        k1 = data.draw(st.integers(min_value=1, max_value=6))
        k2 = data.draw(st.integers(min_value=1, max_value=6))
        pairs = [(u, k1 + v) for u in range(k1) for v in range(k2)]
        chosen = data.draw(st.sets(st.sampled_from(pairs)))
        g = SimpleGraph.from_edges(k1 + k2, chosen)
        split = BipartiteSplit(tuple(range(k1)), tuple(range(k1, k1 + k2)))
        subset = data.draw(st.sets(st.sampled_from(split.right)))

        predicted = sum(complementation_edge_parity(g, split, j) for j in subset) % 2
        work = g
        for j in sorted(subset):
            work = local_complement(work, j)
        left_mask = (1 << k1) - 1
        produced = sum((work.rows[u] & left_mask).bit_count() for u in range(k1)) // 2
        assert produced % 2 == predicted


def bipartite_with_left_additions(k1, k2, cross_pairs, extra_left):
    n = k1 + k2
    g1 = SimpleGraph.from_edges(n, cross_pairs)
    g2 = SimpleGraph.from_edges(n, list(cross_pairs) + list(extra_left))
    split = BipartiteSplit(tuple(range(k1)), tuple(range(k1, n)))
    return g1, split, g2


class TestLemmaAnalysis:
    def test_trivial_eta_gives_empty_set(self):
        g1, split, g2 = bipartite_with_left_additions(
            2, 3, [(0, 2), (0, 3), (1, 3), (1, 4)], []
        )
        report = lemma_case_analysis(g1, split, g2)
        assert report.case1_excluded
        assert report.case2_solvable
        assert report.complementation_set == ()
        assert report.graph_check_passed

    def test_single_complementation_is_recovered(self):
        g1 = SimpleGraph.from_edges(5, [(0, 3), (1, 3), (2, 3), (0, 4)])
        split = BipartiteSplit((0, 1, 2), (3, 4))
        g2 = local_complement(g1, 3)
        report = lemma_case_analysis(g1, split, g2)
        assert report.case2_solvable
        assert report.complementation_set == (3,)
        assert report.graph_check_passed

    def test_disconnected_rejected(self):
        g1, split, g2 = bipartite_with_left_additions(2, 3, [(0, 2)], [])
        with pytest.raises(PreconditionError):
            lemma_case_analysis(g1, split, g2)

    def test_equal_sides_rejected(self):
        g1, split, g2 = bipartite_with_left_additions(2, 2, [(0, 2), (1, 3), (0, 3)], [])
        with pytest.raises(PreconditionError):
            lemma_case_analysis(g1, split, g2)

    def test_impossible_eta_yields_certificate(self):
        # one right vertex adjacent to all three left vertices: its
        # complementation toggles the whole left triangle at once, so a
        # single left edge can never be produced
        g1 = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        split = BipartiteSplit((0, 1, 2), (3,))
        g2 = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3), (0, 1)])
        report = lemma_case_analysis(g1, split, g2)
        assert not report.case2_solvable
        assert report.needed_edge_count == 1
        # the lone toggle flips three edges (odd), so the refutation
        # comes from the linear system rather than bare parity
        assert report.certificate == "linear-system"
        assert report.toggle_parities == {3: 1}
        assert lc_equivalent(g1, g2) is None

    def test_lemma_agrees_with_solver_on_small_instances(self):
        """Each instance runs with the left side at 0..k1-1 and again under
        a seeded relabelling, which interleaves the sides."""
        rng = random.Random(2004)
        cases = 0
        for k1, k2 in ((1, 2), (2, 3), (3, 2), (2, 4)):
            n = k1 + k2
            cross = [(u, k1 + v) for u in range(k1) for v in range(k2)]
            for bits in range(1 << len(cross)):
                chosen = [cross[i] for i in range(len(cross)) if (bits >> i) & 1]
                if not SimpleGraph.from_edges(n, chosen).is_connected():
                    continue
                left_pairs = list(itertools.combinations(range(k1), 2))
                for lbits in range(1 << len(left_pairs)):
                    extra = [left_pairs[i] for i in range(len(left_pairs)) if (lbits >> i) & 1]
                    shuffled = list(range(n))
                    rng.shuffle(shuffled)
                    for label in (list(range(n)), shuffled):
                        g1 = SimpleGraph.from_edges(n, [(label[u], label[v]) for u, v in chosen])
                        g2 = SimpleGraph.from_edges(
                            n, [(label[u], label[v]) for u, v in chosen + extra]
                        )
                        split = BipartiteSplit(tuple(label[:k1]), tuple(label[k1:]))
                        report = lemma_case_analysis(g1, split, g2)
                        witness = lc_equivalent(g1, g2)
                        assert report.case2_solvable == (witness is not None), (g1, g2)
                        cases += 1
        assert cases == 2 * 321


def recursive_search(basis: list[int], n: int, max_nodes: int) -> int | None:
    """The nullspace search as the plain recursion it unrolls."""
    from hyperlu.errors import InconclusiveError
    from hyperlu.gf2 import echelonize
    from hyperlu.lc_solver import _VALID_PATTERNS

    order = echelonize(basis)
    d = len(order)
    leads = [(vec & -vec).bit_length() - 1 for vec in order]
    budget = max_nodes

    def rec(j: int, x: int, checked: int) -> int | None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise InconclusiveError(
                f"witness search exceeded {max_nodes} nodes (nullspace dimension {d})"
            )
        limit = leads[j] // 4 if j < d else n
        if any(((x >> (4 * v)) & 15) not in _VALID_PATTERNS for v in range(checked, limit)):
            return None
        if j == d:
            return x
        found = rec(j + 1, x, limit)
        return found if found is not None else rec(j + 1, x ^ order[j], limit)

    return rec(0, 0, 0)


class TestNullspaceSearch:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.data())
    def test_matches_the_recursion_node_for_node(self, n, data):
        from hyperlu.gf2 import solve_linear_gf2
        from hyperlu.lc_solver import _lc_system, _search_nullspace

        pairs = list(itertools.combinations(range(n), 2))
        g1 = SimpleGraph.from_edges(n, data.draw(st.sets(st.sampled_from(pairs))))
        if data.draw(st.booleans()):
            g2 = g1
            for v in data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=6)):
                g2 = local_complement(g2, v)
        else:
            g2 = SimpleGraph.from_edges(n, data.draw(st.sets(st.sampled_from(pairs))))
        basis = list(solve_linear_gf2(_lc_system(g1, g2), 0).nullspace)
        budget = data.draw(st.integers(min_value=1, max_value=300))

        def outcome(search):
            try:
                return "found", search(basis, n, budget)
            except Exception as exc:
                return type(exc).__name__, str(exc)

        assert outcome(_search_nullspace) == outcome(recursive_search)
