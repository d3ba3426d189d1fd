"""State-vector reference implementation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from conftest import hypergraphs
from hyperlu import oracle
from hyperlu.errors import DimensionMismatchError, SizeLimitError, VertexRangeError
from hyperlu.hypergraph import WeightedHypergraph
from hyperlu.weights import Weight


class TestSynthesize:
    def test_plus_state(self):
        pv = oracle.synthesize(WeightedHypergraph.make(1))
        assert np.array_equal(pv.phases, [0.0, 0.0])

    def test_controlled_phase_pair(self):
        h = WeightedHypergraph.make(2, [((0, 1), Weight(1))])
        pv = oracle.synthesize(h)
        assert np.array_equal(pv.phases, [0, 0, 0, 1])

    def test_quarter_weight_single(self):
        h = WeightedHypergraph.make(1, [((0,), Weight(1, 2))])
        pv = oracle.synthesize(h)
        assert np.array_equal(pv.phases, [0, 0.25])

    def test_global_phase_everywhere(self):
        h = WeightedHypergraph.make(1, phase=Weight(1, 1))
        pv = oracle.synthesize(h)
        assert np.array_equal(pv.phases, [0.5, 0.5])

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            oracle.synthesize(WeightedHypergraph.make(21))

    @given(hypergraphs(max_n=4))
    def test_canonicalization_never_changes_the_state(self, h):
        a = oracle.synthesize(h)
        b = oracle.synthesize(WeightedHypergraph.make(h.n, h.edges, h.phase))
        assert np.array_equal(a.phases, b.phases)


class TestXPowerMatrix:
    def test_full_power_is_pauli_x(self):
        assert np.max(np.abs(oracle.x_power_matrix(1.0) - oracle.PAULI_X)) < 1e-12

    def test_zero_power_is_identity(self):
        assert np.max(np.abs(oracle.x_power_matrix(0.0) - np.eye(2))) < 1e-12

    def test_half_power_value(self):
        expected = 0.5 * ((1 + 1j) * np.eye(2) + (1 - 1j) * oracle.PAULI_X)
        got = oracle.x_power_matrix(0.5)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.max(np.abs(got @ got.conj().T - np.eye(2))) < 1e-12
        assert np.max(np.abs(got @ got - oracle.PAULI_X)) < 1e-12

    def test_additivity_over_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(-3, 3, size=2)
            lhs = oracle.x_power_matrix(a) @ oracle.x_power_matrix(b)
            rhs = oracle.x_power_matrix(a + b)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestApplyUnitary:
    def test_identity(self):
        s = oracle.dense_state(WeightedHypergraph.make(2, [((0, 1), Weight(1))]))
        out = oracle.apply_unitary_1q(s, 0, np.eye(2))
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_x_flips_basis_state(self):
        zero = oracle.DenseState(1, np.array([1.0, 0.0], dtype=complex))
        out = oracle.apply_unitary_1q(zero, 0, oracle.PAULI_X)
        assert np.allclose(out.amplitudes, [0.0, 1.0])

    def test_half_power_twice_equals_x(self):
        rng = np.random.default_rng(1)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        s = oracle.DenseState(3, amps)
        half = oracle.x_power_matrix(0.5)
        twice = oracle.apply_unitary_1q(oracle.apply_unitary_1q(s, 1, half), 1, half)
        once = oracle.apply_unitary_1q(s, 1, oracle.PAULI_X)
        assert np.max(np.abs(twice.amplitudes - once.amplitudes)) < 1e-12

    def test_rejects_non_unitary(self):
        s = oracle.dense_state(WeightedHypergraph.make(1))
        with pytest.raises(ValueError):
            oracle.apply_unitary_1q(s, 0, np.array([[1, 0], [0, 2.0]]))

    def test_rejects_bad_qubit(self):
        s = oracle.dense_state(WeightedHypergraph.make(1))
        with pytest.raises(VertexRangeError):
            oracle.apply_unitary_1q(s, 3, np.eye(2))


class TestGlobalPhaseEquality:
    def test_equal_to_itself(self):
        s = oracle.dense_state(WeightedHypergraph.make(2, [((0, 1), Weight(1))]))
        assert oracle.equal_up_to_global_phase(s, s)

    def test_sign_flip_is_equal(self):
        s = oracle.dense_state(WeightedHypergraph.make(2))
        flipped = oracle.DenseState(2, -s.amplitudes)
        assert oracle.equal_up_to_global_phase(s, flipped)

    def test_orthogonal_states_differ(self):
        a = oracle.DenseState(1, np.array([1.0, 0.0], dtype=complex))
        b = oracle.DenseState(1, np.array([0.0, 1.0], dtype=complex))
        assert not oracle.equal_up_to_global_phase(a, b)

    def test_size_mismatch(self):
        a = oracle.dense_state(WeightedHypergraph.make(1))
        b = oracle.dense_state(WeightedHypergraph.make(2))
        with pytest.raises(DimensionMismatchError):
            oracle.equal_up_to_global_phase(a, b)


def test_phase_vectors_equal_up_to_global():
    h = WeightedHypergraph.make(2, [((0,), Weight(1, 2))])
    shifted = WeightedHypergraph.make(2, h.edges, phase=Weight(3, 1))
    a = oracle.synthesize(h)
    b = oracle.synthesize(shifted)
    assert oracle.phase_vectors_equal(a, b)
    other = oracle.synthesize(WeightedHypergraph.make(2, [((1,), Weight(1, 2))]))
    assert not oracle.phase_vectors_equal(a, other)
