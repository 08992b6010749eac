"""Each evolution route on its own (exact limits, edge phases, conservation laws, the
cache) and block propagation against the dense oracle on a fixed seed.

tests/test_routes.py compares the routes over the whole stratified domain.
"""

import math

import numpy as np
import pytest

from starclone.dynamics import (
    amplitudes_from_brute_force,
    evolve_analytic,
    evolve_brute_force,
)
from starclone.hilbert import StateVector, prepare_initial, reduce_qubit
from starclone.star_model import ModelParams, build_full_hamiltonian

from spectral_reference import edge_eigenstate


def random_tuple(rng, m_max=6, t_max=50.0):
    m = int(rng.integers(1, m_max + 1))
    return (
        ModelParams(m, float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
        int(rng.integers(0, m + 1)),
        float(rng.uniform(0, t_max)),
    )


class TestEvolveAnalytic:
    def test_identity_at_t0_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            params, k, _ = random_tuple(rng)
            amp = evolve_analytic(params, k, 0.0)
            assert (amp.f1, amp.f2, amp.g1, amp.g2) == (1 + 0j, 0j, 0j, 1 + 0j)

    def test_full_transfer_in_m2_block(self):
        # the k = 1 block of the lam = 0, B = 0 star is a pure sqrt(2)
        # rotation, so |f2(t)| = |sin(sqrt(2) t)|
        params = ModelParams(2, 0.0, 0.0)
        for t in (0.3, 0.9, math.pi / (2 * math.sqrt(2.0))):
            amp = evolve_analytic(params, 1, t)
            assert abs(abs(amp.f2) - abs(math.sin(math.sqrt(2.0) * t))) < 1e-12
        full = evolve_analytic(params, 1, math.pi / (2 * math.sqrt(2.0)))
        assert abs(abs(full.f2) ** 2 - 1.0) < 1e-12

    def test_edge_amplitudes_are_pure_phases(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            params, _, t = random_tuple(rng)
            bottom = evolve_analytic(params, 0, t)
            assert bottom.g1 == 0j
            assert abs(abs(bottom.g2) - 1.0) < 1e-12
            expected = np.exp(-1j * edge_eigenstate(params, "bottom").energy * t)
            assert abs(bottom.g2 - expected) < 1e-12
            top = evolve_analytic(params, params.M, t)
            assert top.f2 == 0j
            expected = np.exp(-1j * edge_eigenstate(params, "top").energy * t)
            assert abs(top.f1 - expected) < 1e-12

    def test_domain_errors(self):
        params = ModelParams(3, 0.5, 0.5)
        with pytest.raises(ValueError):
            evolve_analytic(params, 4, 1.0)
        with pytest.raises(ValueError):
            evolve_analytic(params, -1, 1.0)
        with pytest.raises(ValueError):
            evolve_analytic(params, 1, -0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError):
            evolve_analytic(ModelParams(3, 0.5, 0.5), 1, t)


class TestEvolveBruteForce:
    def test_identity_at_t0(self):
        psi0 = prepare_initial(0.6, 0.8j, 3, 1)
        psi = evolve_brute_force(ModelParams(3, 1.2, -0.7), psi0, 0.0)
        assert np.abs(psi.amplitudes - psi0.amplitudes).max() < 1e-13

    def test_edge_state_is_stationary(self):
        params = ModelParams(4, 0.9, 1.7)
        edge = edge_eigenstate(params, "top")
        t = 2.31
        psi = evolve_brute_force(params, edge.expand(), t)
        expected = np.exp(-1j * edge.energy * t) * edge.expand().amplitudes
        assert np.abs(psi.amplitudes - expected).max() < 1e-12

    def test_universal_point_reduced_matrix(self):
        # lam = 2, B = 0, t = pi/(2 sqrt 3) turns |S(2,1)> into two clones
        # with rho = (1/6) [[5|a|^2 + |b|^2, 4 a b*], [., |a|^2 + 5 |b|^2]]
        alpha = beta = 1.0 / math.sqrt(2.0)
        params = ModelParams(2, 2.0, 0.0)
        psi = evolve_brute_force(
            params, prepare_initial(alpha, beta, 2, 1), math.pi / (2 * math.sqrt(3.0))
        )
        rho = reduce_qubit(psi, 1).matrix
        expected = np.array([[3.0, 2.0], [2.0, 3.0]]) / 6.0
        assert np.abs(rho - expected).max() < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        params, k, t = random_tuple(rng)
        psi = evolve_brute_force(params, prepare_initial(1, 0, params.M, k), t)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-11

    def test_energy_conservation(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            params, k, t = random_tuple(rng, m_max=5)
            ham = build_full_hamiltonian(params).matrix
            psi0 = prepare_initial(0.6, 0.8, params.M, k)
            psi_t = evolve_brute_force(params, psi0, t)
            e0 = np.vdot(psi0.amplitudes, ham @ psi0.amplitudes).real
            et = np.vdot(psi_t.amplitudes, ham @ psi_t.amplitudes).real
            assert abs(e0 - et) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(5)
        params = ModelParams(4, 1.3, -0.4)
        t = 7.7
        psi_a = prepare_initial(1, 0, 4, 1)  # central |0>, orthogonal to psi_b
        psi_b = prepare_initial(0, 1, 4, 3)
        alpha, beta = 0.6, 0.8j
        combined = StateVector(
            5, alpha * psi_a.amplitudes + beta * psi_b.amplitudes
        )
        lhs = evolve_brute_force(params, combined, t).amplitudes
        rhs = (
            alpha * evolve_brute_force(params, psi_a, t).amplitudes
            + beta * evolve_brute_force(params, psi_b, t).amplitudes
        )
        assert np.abs(lhs - rhs).max() < 1e-11

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve_brute_force(ModelParams(3, 0, 0), prepare_initial(1, 0, 2, 1), 1.0)


class TestOracleEquivalence:
    """Block propagation equals dense projections; dense projections where the answer is
    exact, and their eigensystem cache."""

    def test_agreement_200_random_tuples(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            params, k, t = random_tuple(rng)
            analytic = evolve_analytic(params, k, t)
            dense = amplitudes_from_brute_force(params, k, t)
            worst = max(
                worst,
                abs(analytic.f1 - dense.f1),
                abs(analytic.f2 - dense.f2),
                abs(analytic.g1 - dense.g1),
                abs(analytic.g2 - dense.g2),
            )
        assert worst < 1e-10

    def test_t0_projections(self):
        dense = amplitudes_from_brute_force(ModelParams(3, 2.2, 0.4), 2, 0.0)
        assert abs(dense.f1 - 1) < 1e-13 and abs(dense.g2 - 1) < 1e-13
        assert abs(dense.f2) < 1e-13 and abs(dense.g1) < 1e-13

    def test_k0_beta_branch_is_stationary(self):
        params = ModelParams(4, -1.1, 0.8)
        for t in (0.5, 3.0, 20.0):
            dense = amplitudes_from_brute_force(params, 0, t)
            assert dense.g1 == 0j
            assert abs(abs(dense.g2) - 1.0) < 1e-11

    def test_kM_alpha_branch_is_stationary(self):
        params = ModelParams(4, 0.7, -2.0)
        dense = amplitudes_from_brute_force(params, 4, 11.0)
        assert dense.f2 == 0j
        assert abs(abs(dense.f1) - 1.0) < 1e-11

    def test_dense_cache_reused_across_times(self):
        from starclone.dynamics import _dense_eigensystem

        params = ModelParams(5, 0.123456, 0.654321)
        _dense_eigensystem.cache_clear()
        for t in (0.1, 0.2, 0.3):
            evolve_brute_force(params, prepare_initial(1, 0, 5, 2), t)
        info = _dense_eigensystem.cache_info()
        assert info.misses == 1
        assert info.hits == 2
