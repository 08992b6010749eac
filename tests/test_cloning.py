"""Fidelity formulas, bounds, presets and the reduced clone matrices."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from starclone.cloning import (
    _normal_form,
    bloch_amplitudes,
    fidelity_closed_form,
    heisenberg_max_fidelity,
    kM_fidelity,
    make_clone_report,
    optimal_pcc_bound,
    pcc_fidelity,
    preset_ancilla_free,
    preset_k_equals_m,
    preset_optimal,
    reduced_central,
    reduced_outer,
    state_bound,
    universal_clone_matrix,
    universal_preset,
    xx_fidelity,
)
from starclone.dynamics import evolve_analytic, evolve_brute_force
from starclone.errors import FormulaInconsistencyError
from starclone.hilbert import fidelity_pure, prepare_initial, reduce_qubit
from starclone.star_model import ModelParams


def random_tuple(rng, m_max=6, t_max=50.0):
    m = int(rng.integers(1, m_max + 1))
    return (
        ModelParams(m, float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
        int(rng.integers(0, m + 1)),
        float(rng.uniform(0, t_max)),
    )


def random_bloch(rng):
    return bloch_amplitudes(
        math.acos(float(rng.uniform(-1, 1))), float(rng.uniform(0, 2 * math.pi))
    )


class TestReducedOuter:
    def test_t0_marginal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            params, k, _ = random_tuple(rng)
            alpha, beta = random_bloch(rng)
            rho = reduced_outer(evolve_analytic(params, k, 0.0), alpha, beta)
            assert abs(rho.rho00 - k / params.M) < 1e-12
            assert abs(rho.rho11 - (params.M - k) / params.M) < 1e-12
            assert abs(rho.rho01) < 1e-12

    def test_matches_dense_partial_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            params, k, t = random_tuple(rng)
            alpha, beta = random_bloch(rng)
            formula = reduced_outer(evolve_analytic(params, k, t), alpha, beta)
            psi = evolve_brute_force(params, prepare_initial(alpha, beta, params.M, k), t)
            dense = reduce_qubit(psi, 1)
            assert np.abs(formula.matrix - dense.matrix).max() < 1e-10

    def test_universal_point_matrix(self):
        preset = universal_preset()
        rng = np.random.default_rng(2)
        for _ in range(10):
            alpha, beta = random_bloch(rng)
            amp = evolve_analytic(preset.params(), preset.k, preset.t)
            rho = reduced_outer(amp, alpha, beta)
            expected = universal_clone_matrix(alpha, beta)
            assert np.abs(rho.matrix - expected.matrix).max() < 1e-12

    def test_nonunitary_amplitudes_rejected(self):
        amp = evolve_analytic(ModelParams(3, 1.0, 0.0), 1, 2.0)
        broken = replace(amp, f1=amp.f1 * 1.01)
        with pytest.raises(FormulaInconsistencyError):
            reduced_outer(broken, 1.0, 0.0)


    @pytest.mark.parametrize("reduce", [reduced_outer, reduced_central])
    @pytest.mark.parametrize("field", ["f1", "g2"])
    def test_nan_amplitude_rejected(self, reduce, field):
        amp = evolve_analytic(ModelParams(3, 1.0, 0.0), 1, 2.0)
        broken = replace(amp, **{field: complex(math.nan, 0.0)})
        with pytest.raises(FormulaInconsistencyError):
            reduce(broken, 1.0, 0.0)


class TestReducedCentral:
    def test_matches_dense_partial_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            params, k, t = random_tuple(rng)
            alpha, beta = random_bloch(rng)
            formula = reduced_central(evolve_analytic(params, k, t), alpha, beta)
            psi = evolve_brute_force(params, prepare_initial(alpha, beta, params.M, k), t)
            dense = reduce_qubit(psi, 0)
            assert np.abs(formula.matrix - dense.matrix).max() < 1e-10


class TestPccFidelity:
    def test_t0_is_half(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            params, k, _ = random_tuple(rng)
            assert pcc_fidelity(evolve_analytic(params, k, 0.0)) == 0.5

    def test_reference_maximum_m2(self):
        amp = evolve_analytic(ModelParams(2, 0.0, 0.471405), 0, 3.33216)
        assert abs(pcc_fidelity(amp) - 0.853553) < 5e-6


class TestClosedForm:
    def test_t0_is_half(self):
        assert fidelity_closed_form(5, 2, 1.7, 0.9, 0.0) == 0.5
        assert fidelity_closed_form(4, 4, 0.0, 1.0, 0.0) == 0.5  # guard path

    def test_even_preset_value(self):
        f = fidelity_closed_form(4, 2, math.sqrt(24.0), 0.0, math.pi / math.sqrt(48.0))
        assert abs(f - 0.806186) < 5e-7
        assert abs(f - (0.5 + math.sqrt(24.0) / 16.0)) < 1e-12

    def test_matches_block_propagation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            params, k, t = random_tuple(rng)
            closed = float(fidelity_closed_form(params.M, k, params.lam, params.B, t))
            assert abs(closed - pcc_fidelity(evolve_analytic(params, k, t))) < 1e-9

    def test_guard_paths_match_blocks(self):
        # eta vanishes only for lam = 0 with k = 0 or k = M
        for m, k in ((3, 0), (3, 3), (1, 0), (1, 1)):
            params = ModelParams(m, 0.0, 1.3)
            for t in (0.7, 5.0, 31.0):
                closed = float(fidelity_closed_form(m, k, 0.0, 1.3, t))
                assert abs(closed - pcc_fidelity(evolve_analytic(params, k, t))) < 1e-12

    def test_vectorized_matches_scalar(self):
        times = np.linspace(0.0, 12.0, 50)
        vec = fidelity_closed_form(4, 1, 0.8, 0.3, times)
        scalar = np.array([fidelity_closed_form(4, 1, 0.8, 0.3, t) for t in times])
        assert np.array_equal(vec, scalar)
        # guard path stays vectorized too
        vec = fidelity_closed_form(3, 0, 0.0, 0.3, times)
        scalar = np.array([fidelity_closed_form(3, 0, 0.0, 0.3, t) for t in times])
        assert np.abs(vec - scalar).max() < 1e-15

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            fidelity_closed_form(3, 5, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "lam, B, t",
        [
            (0.5, 0.3, -1.0),
            (0.5, 0.3, math.nan),
            (0.5, 0.3, math.inf),
            (0.5, 0.3, np.array([0.0, 1.0, -1.0])),
            (0.5, 0.3, np.array([0.0, np.nan])),
            (math.nan, 0.3, 1.0),
            (-math.inf, 0.3, 1.0),
            (0.5, math.nan, 1.0),
            (0.5, np.array([0.1, np.inf]), 1.0),
        ],
    )
    def test_non_finite_or_negative_inputs_rejected(self, lam, B, t):
        with pytest.raises(ValueError):
            fidelity_closed_form(3, 1, lam, B, t)

    def test_huge_lambda_stays_finite(self):
        # lam^2 would overflow inside the gaps; hypot keeps them finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = float(fidelity_closed_form(3, 1, 1e200, 0.3, 1.0))
        assert math.isfinite(f)
        assert f <= state_bound(3, 1)

    def test_degenerate_gap_is_exact_limit(self):
        # lam = 0, k = M: eta1 = 0, and sin(eta1 t/2)/eta1 -> t/2 turns the
        # closed form into the polarized-register formula
        times = np.linspace(0.0, 40.0, 401)
        for m in (1, 3, 6):
            closed = fidelity_closed_form(m, m, 0.0, 0.7, times)
            assert np.abs(closed - kM_fidelity(m, 0.0, 0.7, times)).max() < 1e-13


class TestBounds:
    def test_state_bound_values(self):
        assert abs(state_bound(2, 0) - (0.5 + math.sqrt(2.0) / 4.0)) < 1e-15
        assert state_bound(1, 0) == 1.0

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_even_bound_at_half_filling(self, m):
        assert abs(state_bound(m, m // 2) - optimal_pcc_bound(m)) < 1e-15

    def test_optimal_bound_values(self):
        assert abs(optimal_pcc_bound(2) - 0.853553) < 5e-7
        assert optimal_pcc_bound(5) == pytest.approx(0.8, abs=1e-15)
        assert abs(optimal_pcc_bound(8) - 0.779508) < 5e-7

    def test_normal_form_ceiling_at_lam0(self):
        # q = 0 at lam = 0, so F <= 1/2 + |p+| + |p-|, and that ceiling is the bound
        for m in range(1, 13):
            for k in range(m + 1):
                p_plus, p_minus, q, _, _ = _normal_form(m, k, 0.0)
                assert q == 0.0
                assert abs(0.5 + abs(p_plus) + abs(p_minus) - state_bound(m, k)) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            state_bound(3, 4)
        with pytest.raises(ValueError):
            optimal_pcc_bound(0)


class TestXXFidelity:
    def test_reference_maximum_m3(self):
        assert abs(xx_fidelity(3, 1, 0.0311526, 252.113) - 0.833319) < 5e-6

    def test_equals_closed_form_at_lam0(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(0, m + 1))
            b, t = float(rng.uniform(-3, 3)), float(rng.uniform(0, 60))
            assert (
                abs(float(xx_fidelity(m, k, b, t)) - float(fidelity_closed_form(m, k, 0.0, b, t)))
                < 1e-10
            )

    def test_no_field_means_no_cloning(self):
        for t in np.linspace(0, 40, 17):
            assert xx_fidelity(5, 2, 0.0, float(t)) == 0.5


class TestHeisenbergMax:
    def test_values(self):
        assert abs(heisenberg_max_fidelity(2, 0) - 5.0 / 6.0) < 1e-15
        assert heisenberg_max_fidelity(4, 2) == pytest.approx(0.62, abs=1e-15)

    def test_matches_closed_form_at_maximizer(self):
        for m in range(1, 9):
            t = math.pi / (m + 1)
            for k in range(m + 1):
                closed = float(fidelity_closed_form(m, k, 1.0, 0.0, t))
                assert abs(closed - heisenberg_max_fidelity(m, k)) < 1e-9


class TestPolarizedRegister:
    def test_stated_maximizer_m4(self):
        assert abs(float(kM_fidelity(4, 0.0, 2.0, math.pi / 4.0)) - 0.75) < 1e-12

    def test_t0_is_half(self):
        assert float(kM_fidelity(6, 1.2, 0.7, 0.0)) == 0.5

    def test_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            lam = float(rng.uniform(-3, 3))
            b, t = float(rng.uniform(-3, 3)), float(rng.uniform(0, 60))
            assert (
                abs(float(kM_fidelity(m, lam, b, t)) - float(fidelity_closed_form(m, m, lam, b, t)))
                < 1e-10
            )

    @pytest.mark.parametrize("m", range(1, 10))
    def test_maximum_value(self, m):
        f = float(kM_fidelity(m, 0.0, math.sqrt(m), math.pi / (2 * math.sqrt(m))))
        assert abs(f - (0.5 + 0.5 / math.sqrt(m))) < 1e-9


class TestPresets:
    def test_even_preset_m2(self):
        preset = preset_optimal(2)
        assert preset.name == "pcc_even"
        assert preset.k == 1
        assert abs(preset.lam - math.sqrt(8.0)) < 1e-15
        assert preset.B == 0.0
        assert abs(preset.t - math.pi / 4.0) < 1e-15
        assert abs(preset.fidelity - 0.853553) < 5e-7

    def test_odd_preset_m3(self):
        preset = preset_optimal(3)
        assert preset.name == "pcc_odd"
        assert preset.k == 1
        assert abs(preset.lam - math.sqrt(13.0)) < 1e-15
        assert preset.B == 2.0
        assert abs(preset.t - math.pi / 4.0) < 1e-15
        assert abs(preset.fidelity - 5.0 / 6.0) < 1e-12

    @pytest.mark.parametrize("m", range(2, 9))
    def test_presets_reach_bound_closed_form(self, m):
        preset = preset_optimal(m)
        f = float(fidelity_closed_form(m, preset.k, preset.lam, preset.B, preset.t))
        assert abs(f - optimal_pcc_bound(m)) < 1e-9

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_presets_verified_by_dense_evolution(self, m):
        preset = preset_optimal(m)
        alpha, beta = bloch_amplitudes(math.pi / 2, 0.77)
        psi = evolve_brute_force(
            preset.params(), prepare_initial(alpha, beta, m, preset.k), preset.t
        )
        f = fidelity_pure(reduce_qubit(psi, 1), alpha, beta)
        assert abs(f - optimal_pcc_bound(m)) < 1e-9

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_preset_is_locally_optimal(self, m):
        preset = preset_optimal(m)
        base = float(fidelity_closed_form(m, preset.k, preset.lam, preset.B, preset.t))
        for delta in (-1e-3, 1e-3):
            perturbed = (
                fidelity_closed_form(m, preset.k, preset.lam + delta, preset.B, preset.t),
                fidelity_closed_form(m, preset.k, preset.lam, preset.B + delta, preset.t),
                fidelity_closed_form(m, preset.k, preset.lam, preset.B, preset.t + delta),
            )
            for value in perturbed:
                assert float(value) <= base + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            preset_optimal(1)
        with pytest.raises(ValueError):
            preset_ancilla_free(3)
        with pytest.raises(ValueError):
            preset_ancilla_free(0)


class TestAncillaFree:
    def test_m2_parameters(self):
        preset = preset_ancilla_free(2)
        assert (preset.k, preset.lam, preset.B) == (1, 4.0, 0.0)
        assert abs(preset.t - math.pi / math.sqrt(24.0)) < 1e-15
        assert abs(preset.fidelity - 5.0 / 6.0) < 1e-15
        assert preset.copies == 3

    @pytest.mark.parametrize("m_outer,expected", [(2, 5.0 / 6.0), (4, 0.8)])
    def test_all_qubits_carry_equal_clones(self, m_outer, expected):
        preset = preset_ancilla_free(m_outer)
        alpha, beta = bloch_amplitudes(math.pi / 2, 1.234)
        psi = evolve_brute_force(
            preset.params(), prepare_initial(alpha, beta, m_outer, preset.k), preset.t
        )
        matrices = [reduce_qubit(psi, q).matrix for q in range(m_outer + 1)]
        for mat in matrices[1:]:
            assert np.abs(mat - matrices[0]).max() < 1e-10
        for q in range(m_outer + 1):
            f = fidelity_pure(reduce_qubit(psi, q), alpha, beta)
            assert abs(f - expected) < 1e-9

    def test_claimed_fidelity_is_next_odd_bound(self):
        for m_outer in (2, 4, 6, 8):
            preset = preset_ancilla_free(m_outer)
            assert abs(preset.fidelity - optimal_pcc_bound(m_outer + 1)) < 1e-15


class TestUniversal:
    def test_basis_input(self):
        rho = universal_clone_matrix(1.0, 0.0)
        assert abs(rho.rho00 - 5.0 / 6.0) < 1e-15
        assert abs(rho.rho11 - 1.0 / 6.0) < 1e-15
        assert fidelity_pure(rho, 1.0, 0.0) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_equatorial_input(self):
        alpha = beta = 1.0 / math.sqrt(2.0)
        rho = universal_clone_matrix(alpha, beta)
        assert abs(rho.rho01 - 1.0 / 3.0) < 1e-15
        assert fidelity_pure(rho, alpha, beta) == pytest.approx(5.0 / 6.0, abs=1e-14)

    def test_preset_parameters(self):
        preset = universal_preset()
        assert (preset.M, preset.k, preset.lam, preset.B) == (2, 1, 2.0, 0.0)
        assert abs(preset.t - math.pi / (2 * math.sqrt(3.0))) < 1e-15

    def test_input_independence_dense(self):
        preset = universal_preset()
        rng = np.random.default_rng(10)
        for _ in range(25):
            alpha, beta = random_bloch(rng)
            psi = evolve_brute_force(
                preset.params(), prepare_initial(alpha, beta, 2, 1), preset.t
            )
            rho = reduce_qubit(psi, 2)
            assert np.abs(rho.matrix - universal_clone_matrix(alpha, beta).matrix).max() < 1e-10
            assert abs(fidelity_pure(rho, alpha, beta) - 5.0 / 6.0) < 1e-10

    def test_k_equals_m_preset(self):
        preset = preset_k_equals_m(4)
        assert (preset.k, preset.lam) == (4, 0.0)
        assert abs(preset.B - 2.0) < 1e-15
        assert abs(preset.t - math.pi / 4.0) < 1e-15
        assert abs(preset.fidelity - 0.75) < 1e-15


class TestCloneReport:
    def test_methods_agree(self):
        params = ModelParams(3, 1.4, 0.6)
        analytic = make_clone_report(params, 1, 2.5, theta=1.1, phi=0.4, method="analytic")
        brute = make_clone_report(params, 1, 2.5, theta=1.1, phi=0.4, method="brute")
        assert len(analytic.per_qubit_fidelities) == 4
        assert np.abs(
            np.array(analytic.per_qubit_fidelities) - np.array(brute.per_qubit_fidelities)
        ).max() < 1e-10
        assert abs(analytic.equatorial_fidelity - brute.equatorial_fidelity) < 1e-10

    def test_closed_form_method(self):
        params = ModelParams(4, 0.0, 0.0144940)
        report = make_clone_report(params, 1, 108.375, method="closed-form")
        assert abs(report.equatorial_fidelity - 0.806131) < 5e-6
        assert abs(report.per_qubit_fidelities[1] - report.equatorial_fidelity) < 1e-12

    def test_closed_form_rejects_non_equatorial(self):
        with pytest.raises(ValueError):
            make_clone_report(ModelParams(2, 0.0, 0.1), 1, 1.0, theta=0.3, method="closed-form")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            make_clone_report(ModelParams(2, 0.0, 0.1), 1, 1.0, method="magic")
