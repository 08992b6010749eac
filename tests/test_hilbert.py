"""State construction, Dicke states, partial traces and pure-state overlap."""

import math

import numpy as np
import pytest

from starclone.hilbert import (
    QubitDensityMatrix,
    StateVector,
    fidelity_pure,
    prepare_initial,
    reduce_qubit,
)

SQRT2 = math.sqrt(2.0)


def random_pair(rng):
    theta = math.acos(float(rng.uniform(-1, 1)))
    phi = float(rng.uniform(0, 2 * math.pi))
    return math.cos(theta / 2), math.sin(theta / 2) * complex(
        math.cos(phi), math.sin(phi)
    )


def dicke(m, k):
    """|S(m, k)> on the outer register: the central-|0> half of prepare_initial(1, 0, m, k)."""
    amplitudes = prepare_initial(1, 0, m, k).amplitudes
    assert not amplitudes[1::2].any()  # the central-|1> half is empty
    return amplitudes[0::2]


class TestDickeState:
    def test_two_one_is_symmetric_pair(self):
        expected = np.zeros(4, dtype=complex)
        expected[1] = expected[2] = 1.0 / SQRT2
        assert np.allclose(dicke(2, 1), expected, atol=1e-15)

    def test_three_two_is_one_bit_permutations(self):
        outer = dicke(3, 2)
        expected = np.zeros(8, dtype=complex)
        expected[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
        assert np.allclose(outer, expected, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_k_zero_is_all_ones(self, m):
        outer = dicke(m, 0)
        expected = np.zeros(1 << m, dtype=complex)
        expected[(1 << m) - 1] = 1.0
        assert np.array_equal(outer, expected)

    @pytest.mark.parametrize("m,k", [(2, 1), (5, 2), (6, 6), (7, 3), (8, 5)])
    def test_support_and_normalization(self, m, k):
        outer = dicke(m, k)
        nonzero = np.flatnonzero(outer)
        assert len(nonzero) == math.comb(m, k)
        assert np.allclose(
            outer[nonzero], 1.0 / math.sqrt(math.comb(m, k)), atol=0
        )
        assert abs(np.vdot(outer, outer).real - 1.0) < 1e-12
        # every support index holds exactly m - k one-bits
        for idx in nonzero:
            assert bin(int(idx)).count("1") == m - k

    @pytest.mark.parametrize("m,k", [(3, -1), (3, 4), (0, 0)])
    def test_domain_errors(self, m, k):
        with pytest.raises(ValueError):
            prepare_initial(1, 0, m, k)


class TestPrepareInitial:
    def test_alpha_one_product(self):
        state = prepare_initial(1, 0, 2, 1)
        expected = np.zeros(8, dtype=complex)
        expected[[2, 4]] = 1.0 / SQRT2  # |0> central times (|01> + |10>)
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_single_outer_qubit(self):
        state = prepare_initial(1 / SQRT2, 1 / SQRT2, 1, 0)
        expected = np.zeros(4, dtype=complex)
        expected[[2, 3]] = 1.0 / SQRT2  # (|0> + |1>) times outer |1>
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_equatorial_amplitudes(self):
        theta, phi = math.pi / 2, math.pi / 3
        alpha = math.cos(theta / 2)
        beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)
        state = prepare_initial(alpha, beta, 2, 1)
        outer = np.array([0.0, 1.0, 1.0, 0.0]) / SQRT2  # |S(2, 1)>
        assert np.allclose(state.amplitudes[0::2], alpha * outer, atol=1e-15)
        assert np.allclose(state.amplitudes[1::2], beta * outer, atol=1e-15)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            prepare_initial(1.0, 0.5, 2, 1)

    def test_rejects_nan_pair(self):
        with pytest.raises(ValueError):
            prepare_initial(math.nan, 0.0, 2, 1)

    def test_norm_after_preparation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha, beta = random_pair(rng)
            m = int(rng.integers(1, 7))
            k = int(rng.integers(0, m + 1))
            state = prepare_initial(alpha, beta, m, k)
            assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12


class TestReduceQubit:
    def test_bell_state_marginal(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / SQRT2)
        for q in (0, 1):
            rho = reduce_qubit(bell, q)
            assert abs(rho.rho00 - 0.5) < 1e-15
            assert abs(rho.rho11 - 0.5) < 1e-15
            assert abs(rho.rho01) < 1e-15

    def test_product_state_marginal_is_pure(self):
        rng = np.random.default_rng(3)
        alpha, beta = random_pair(rng)
        amplitudes = np.zeros(4, dtype=complex)
        amplitudes[0], amplitudes[1] = alpha, beta  # qubit 1 stays |0>
        rho = reduce_qubit(StateVector(2, amplitudes), 0)
        assert abs(rho.rho00 - abs(alpha) ** 2) < 1e-15
        assert abs(rho.rho01 - alpha * np.conj(beta)) < 1e-15
        assert rho.eigenvalues()[1] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m,k", [(2, 1), (4, 0), (5, 3), (6, 6)])
    def test_dicke_marginal_weights(self, m, k):
        # independent counting oracle: an outer qubit of |S(M, k)> is |0>
        # with probability C(M-1, k-1)/C(M, k) = k/M
        rng = np.random.default_rng(11)
        alpha, beta = random_pair(rng)
        psi = prepare_initial(alpha, beta, m, k)
        p_zero = (
            math.comb(m - 1, k - 1) / math.comb(m, k) if k >= 1 else 0.0
        )
        assert abs(p_zero - k / m) < 1e-15
        for q in range(1, m + 1):
            rho = reduce_qubit(psi, q)
            assert abs(rho.rho00 - k / m) < 1e-12
            assert abs(rho.rho11 - (m - k) / m) < 1e-12
            assert abs(rho.rho01) < 1e-12

    def test_outer_marginals_identical(self):
        rng = np.random.default_rng(5)
        alpha, beta = random_pair(rng)
        psi = prepare_initial(alpha, beta, 5, 2)
        reference = reduce_qubit(psi, 1).matrix
        for q in range(2, 6):
            assert np.abs(reduce_qubit(psi, q).matrix - reference).max() < 1e-12

    def test_index_out_of_range(self):
        psi = prepare_initial(1, 0, 2, 1)
        with pytest.raises(ValueError):
            reduce_qubit(psi, 3)
        with pytest.raises(ValueError):
            reduce_qubit(psi, -1)


class TestFidelityPure:
    def test_projector_gives_one(self):
        rng = np.random.default_rng(1)
        alpha, beta = random_pair(rng)
        rho = QubitDensityMatrix(
            abs(alpha) ** 2, alpha * np.conj(beta), abs(beta) ** 2
        )
        assert fidelity_pure(rho, alpha, beta) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_gives_half(self):
        rho = QubitDensityMatrix(0.5, 0.0, 0.5)
        rng = np.random.default_rng(2)
        for _ in range(5):
            alpha, beta = random_pair(rng)
            assert fidelity_pure(rho, alpha, beta) == pytest.approx(0.5, abs=1e-14)

    def test_universal_output_matrix_fidelity(self):
        rho = QubitDensityMatrix(5.0 / 6.0, 0.0, 1.0 / 6.0)
        assert fidelity_pure(rho, 1.0, 0.0) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            # random mixed state from a random two-qubit pure state
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = StateVector(2, raw / np.linalg.norm(raw))
            rho = reduce_qubit(psi, 0)
            alpha, beta = random_pair(rng)
            f = fidelity_pure(rho, alpha, beta)
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_rejects_unnormalized_state(self):
        rho = QubitDensityMatrix(0.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            fidelity_pure(rho, 1.0, 1.0)

    def test_rejects_nan_state(self):
        with pytest.raises(ValueError):
            fidelity_pure(QubitDensityMatrix(1, 0, 0), math.nan, 0.0)


class TestQubitDensityMatrix:
    def test_rho10_is_exact_conjugate(self):
        rho = QubitDensityMatrix(0.6, 0.1 + 0.2j, 0.4)
        assert rho.rho10 == np.conj(rho.rho01)
        assert np.array_equal(rho.matrix[1, 0], np.conj(rho.matrix[0, 1]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            QubitDensityMatrix(0.7, 0.0, 0.4)

    def test_rejects_negative_spectrum(self):
        with pytest.raises(ValueError):
            QubitDensityMatrix(0.5, 0.7, 0.5)

    def test_rejects_complex_diagonal(self):
        with pytest.raises(ValueError):
            QubitDensityMatrix(0.5 + 0.1j, 0.0, 0.5 - 0.1j)

    @pytest.mark.parametrize(
        "entries",
        [
            (math.nan, 0.0, math.nan),
            (0.5, math.nan, 0.5),
            (0.5, complex(0.0, math.inf), 0.5),
            (complex(0.5, math.nan), 0.0, 0.5),
            (math.nan, 0.0, 1.0),
        ],
    )
    def test_rejects_non_finite_entries(self, entries):
        with pytest.raises(ValueError):
            QubitDensityMatrix(*entries)

    def test_eigenvalues_closed_form(self):
        rho = QubitDensityMatrix(0.7, 0.1 - 0.15j, 0.3)
        lo, hi = rho.eigenvalues()
        ref = np.linalg.eigvalsh(rho.matrix)
        assert abs(lo - ref[0]) < 1e-14
        assert abs(hi - ref[1]) < 1e-14


class TestStateVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(3, dtype=complex))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError):
            StateVector(1, [math.nan, 0])

    def test_amplitudes_read_only(self):
        psi = prepare_initial(1, 0, 2, 1)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0
