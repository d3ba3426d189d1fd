"""Power-of-product expansion against the brute-force involution oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlu.errors import SizeLimitError
from hyperlu.phase_algebra import involution_power_check, power_of_product
from hyperlu.weights import Weight


def edge_diagonal(n: int, edge: tuple[int, ...]) -> np.ndarray:
    """Diagonal of a single phase gate: -1 exactly on all-ones of the edge."""
    idx = np.arange(1 << n)
    mask = sum(1 << v for v in edge)
    return np.where((idx & mask) == mask, -1.0, 1.0)


def product_diagonal(n: int, edges) -> np.ndarray:
    d = np.ones(1 << n)
    for e in edges:
        d = d * edge_diagonal(n, e)
    return d


def delta_diagonal(n: int, delta: dict) -> np.ndarray:
    idx = np.arange(1 << n)
    phases = np.zeros(1 << n)
    for e, w in delta.items():
        mask = sum(1 << v for v in e)
        phases[(idx & mask) == mask] += float(w)
    return np.exp(1j * np.pi * phases)


class TestFormula:
    def test_two_edges(self):
        e1, e2 = (0,), (1,)
        a = Weight(1, 2)
        delta = power_of_product([e1, e2], a)
        assert delta == {e1: a, e2: a, (0, 1): a * -2}

    def test_three_edges(self):
        a = Weight(1, 2)
        delta = power_of_product([(0,), (1,), (2,)], a)
        assert delta[(0,)] == a
        assert delta[(0, 1)] == a * -2
        assert delta[(0, 1, 2)] == a * 4

    def test_integer_exponent_keeps_singles_only(self):
        edges = [(i,) for i in range(5)]
        delta = power_of_product(edges, Weight(1))
        assert delta == {e: Weight(1) for e in edges}

    def test_zero_exponent(self):
        assert power_of_product([(0,), (1,)], Weight(0)) == {}

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            power_of_product([(0, 1), (1, 0)], Weight(1, 1))

    def test_subset_cap_bounds_both_paths(self):
        # 25 edges: all 2^25 - 1 subsets exceed the cap, the 2,625 of size
        # at most 3 (exponent 1/4) do not
        edges = [(v,) for v in range(25)]
        with pytest.raises(SizeLimitError, match="more than 16777215 subsets"):
            power_of_product(edges, Weight(1, 2), prune=False)
        assert len(power_of_product(edges, Weight(1, 2))) == 2625

    def test_empty_edge_contributes_phase(self):
        delta = power_of_product([()], Weight(1, 2))
        assert delta == {(): Weight(1, 2)}

    def test_overlapping_edges_non_multiplicative(self):
        # the union correction is what distinguishes (GH)^a from G^a H^a
        delta = power_of_product([(0, 1), (1, 2)], Weight(1, 1))
        assert delta[(0, 1, 2)] == Weight(1)


class TestInvolutionOracle:
    def test_identity_diagonal(self):
        out = involution_power_check(np.ones(4), 0.37)
        assert np.allclose(out, 1.0)

    def test_product_then_power(self):
        # (C_a C_b)^alpha on two qubits: corners stay 1
        d = product_diagonal(2, [(0,), (1,)])
        out = involution_power_check(d, 0.5)
        p = np.exp(1j * np.pi * 0.5)
        assert np.allclose(out, [1, p, p, 1])

    def test_separate_powers_multiplied(self):
        p = np.exp(1j * np.pi * 0.5)
        a = involution_power_check(edge_diagonal(2, (0,)), 0.5)
        b = involution_power_check(edge_diagonal(2, (1,)), 0.5)
        assert np.allclose(a * b, [1, p, p, p * p])

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            involution_power_check(np.array([1.0, 0.5]), 0.5)

    def test_rejects_oversize(self):
        with pytest.raises(SizeLimitError):
            involution_power_check(np.ones(1 << 13), 0.5)


def all_edges(n):
    out = []
    for size in range(1, n + 1):
        out += list(itertools.combinations(range(n), size))
    return out


@pytest.mark.parametrize("alpha", [Weight(1, 2), Weight(1, 1), Weight(3, 2), Weight(1), Weight(3, 1)])
def test_oracle_equivalence_exhaustive_small(alpha):
    """Every <=3-edge product over 3 qubits matches the oracle."""
    n = 3
    pool = all_edges(n)
    for k in (1, 2, 3):
        for edges in itertools.combinations(pool, k):
            delta = power_of_product(list(edges), alpha)
            predicted = delta_diagonal(n, delta)
            target = involution_power_check(product_diagonal(n, edges), alpha)
            assert np.max(np.abs(predicted - target)) <= 1e-12


@settings(max_examples=60)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=4), min_size=1).map(
            lambda s: tuple(sorted(s))
        ),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=3),
)
def test_exponent_additivity(edges, p1, q1, p2, q2):
    a1, a2 = Weight(p1, q1), Weight(p2, q2)
    merged: dict = {}
    for delta in (power_of_product(edges, a1), power_of_product(edges, a2)):
        for e, w in delta.items():
            merged[e] = merged.get(e, Weight(0)) + w
    merged = {e: w for e, w in merged.items() if not w.is_zero}
    assert merged == power_of_product(edges, a1 + a2)


@settings(max_examples=60)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=4), min_size=1).map(
            lambda s: tuple(sorted(s))
        ),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=3),
)
def test_pruning_soundness(edges, p, q):
    alpha = Weight(p, q)
    pruned = power_of_product(edges, alpha, prune=True)
    full = power_of_product(edges, alpha, prune=False)
    assert pruned == full
