"""One domain check behind every entry point, and the array-t analytic route.

Every public function that takes a model point (M, k, lam, B, t) rejects
the same inputs with ValueError: M not an integer >= 1, k not an integer in
[0, M] (a bool is neither), a non-finite lam or B, and a NaN, infinite or
negative t, elementwise for arrays.
"""

import math

import numpy as np
import pytest

from starclone import (
    ModelParams,
    evolve_analytic,
    fidelity_closed_form,
    heisenberg_max_fidelity,
    kM_fidelity,
    optimal_pcc_bound,
    pcc_fidelity,
    state_bound,
    xx_fidelity,
)
from starclone.cloning import bloch_amplitudes, make_clone_report
from starclone.dynamics import amplitudes_from_brute_force, evolve_brute_force
from starclone.hilbert import prepare_initial

BAD_CALLS = {
    "xx_fidelity NaN field": lambda: xx_fidelity(3, 1, math.nan, 1.0),
    "kM_fidelity negative time": lambda: kM_fidelity(3, 0.0, 0.3, -1.0),
    "xx_fidelity fractional k": lambda: xx_fidelity(3, 1.5, 0.3, 1.0),
    "ModelParams bool M": lambda: ModelParams(M=True, lam=0, B=0),
    "evolve_analytic one NaN time": lambda: evolve_analytic(
        ModelParams(3, 0.5, 0.2), 1, np.array([0.0, 1.0, np.nan, 2.0])
    ),
    "xx_fidelity infinite time in array": lambda: xx_fidelity(
        3, 1, 0.3, np.array([1.0, np.inf])
    ),
    "xx_fidelity M = 0": lambda: xx_fidelity(0, 0, 0.3, 1.0),
    "kM_fidelity NaN lambda": lambda: kM_fidelity(3, math.nan, 0.3, 1.0),
    "kM_fidelity bool M": lambda: kM_fidelity(True, 0.0, 0.3, 1.0),
    "closed form bool k": lambda: fidelity_closed_form(3, True, 0.5, 0.3, 1.0),
    "closed form M = 0": lambda: fidelity_closed_form(0, 0, 0.5, 0.3, 1.0),
    "state_bound fractional k": lambda: state_bound(3, 0.5),
    "heisenberg_max_fidelity k > M": lambda: heisenberg_max_fidelity(3, 4),
    "optimal_pcc_bound bool M": lambda: optimal_pcc_bound(True),
    "ModelParams string M": lambda: ModelParams(M="3", lam=0.0, B=0.0),
    "evolve_analytic negative time in array": lambda: evolve_analytic(
        ModelParams(3, 0.5, 0.2), 1, np.array([[0.0, 1.0], [-1e-300, 2.0]])
    ),
    "bloch_amplitudes NaN theta": lambda: bloch_amplitudes(math.nan, 0.0),
    "bloch_amplitudes infinite phi": lambda: bloch_amplitudes(1.0, math.inf),
}


@pytest.mark.parametrize("name", list(BAD_CALLS))
def test_bad_input_raises_value_error(name):
    with pytest.raises(ValueError):
        BAD_CALLS[name]()


def test_numpy_integers_and_empty_arrays_are_accepted():
    assert ModelParams(np.int64(3), np.float64(0.5), 0).M == 3
    closed = fidelity_closed_form(3, 1, 0.5, 0.3, 1.0)
    assert fidelity_closed_form(np.int64(3), np.int64(1), 0.5, 0.3, 1.0) == closed
    assert xx_fidelity(3, 1, 0.3, np.array([])).shape == (0,)


def _draws(rng, count):
    for _ in range(count):
        M = int(rng.integers(1, 9))
        k = int(rng.choice([0, M, int(rng.integers(0, M + 1))]))
        lam = float(rng.choice([0.0, rng.uniform(-5.0, 5.0)]))
        yield ModelParams(M, lam, float(rng.uniform(-5.0, 5.0))), k


def test_array_time_equals_scalar_calls():
    rng = np.random.default_rng(11)
    for params, k in _draws(rng, 40):
        times = np.concatenate([[0.0], rng.uniform(0.0, 300.0, 60)])
        amp = evolve_analytic(params, k, times)
        dense = amplitudes_from_brute_force(params, k, times)
        fidelities = pcc_fidelity(amp)
        assert fidelities.shape == times.shape
        for i, t in enumerate(times.tolist()):
            scalar = evolve_analytic(params, k, t)
            dense_scalar = amplitudes_from_brute_force(params, k, t)
            for name in ("f1", "f2", "g1", "g2"):
                assert abs(getattr(amp, name)[i] - getattr(scalar, name)) <= 1e-15
                assert abs(getattr(dense, name)[i] - getattr(dense_scalar, name)) <= 1e-12
            assert abs(fidelities[i] - pcc_fidelity(scalar)) <= 1e-15


def test_array_time_keeps_shape_and_unitarity():
    params = ModelParams(4, 0.7, -0.4)
    times = np.linspace(0.0, 40.0, 12).reshape(3, 4)
    amp = evolve_analytic(params, 2, times)
    for name in ("f1", "f2", "g1", "g2"):
        assert getattr(amp, name).shape == (3, 4)
    assert amp.unitarity_defect().shape == (3, 4)
    assert amp.unitarity_defect().max() < 1e-12
    # both routes keep any t shape: 0-d, (3,) and (3, 4), ladder ends included
    for shaped in (np.asarray(7.5), times[0, :3], times):
        for k in (0, 2, 4):
            for route in (evolve_analytic, amplitudes_from_brute_force):
                amp = route(params, k, shaped)
                for name in ("f1", "f2", "g1", "g2"):
                    assert np.shape(getattr(amp, name)) == shaped.shape
                assert amp.unitarity_defect().max() < 1e-12


def test_array_time_matches_closed_form():
    times = np.linspace(0.0, 60.0, 2001)
    for params, k in _draws(np.random.default_rng(12), 20):
        analytic = pcc_fidelity(evolve_analytic(params, k, times))
        closed = fidelity_closed_form(params.M, k, params.lam, params.B, times)
        assert np.abs(analytic - closed).max() < 1e-9


OVERFLOW_T = 1e308
OVERFLOW_ROUTES = {
    "analytic": lambda: evolve_analytic(ModelParams(8, 3.0, 2.0), 3, OVERFLOW_T),
    "analytic array": lambda: evolve_analytic(
        ModelParams(2, 0.0, 0.0), 1, np.array([0.0, 1.0, OVERFLOW_T])
    ),
    "brute amplitudes": lambda: amplitudes_from_brute_force(
        ModelParams(2, 0.5, 0.1), 1, OVERFLOW_T
    ),
    "brute evolution": lambda: evolve_brute_force(
        ModelParams(2, 0.5, 0.1), prepare_initial(1, 0, 2, 1), OVERFLOW_T
    ),
    "closed form": lambda: fidelity_closed_form(2, 1, 0.0, 0.0, OVERFLOW_T),
    "closed form B column": lambda: fidelity_closed_form(
        4, 1, 0.7, np.array([[0.1], [0.2]]), np.array([0.0, OVERFLOW_T])
    ),
    "xx_fidelity": lambda: xx_fidelity(3, 1, 0.3, OVERFLOW_T),
    "kM_fidelity": lambda: kM_fidelity(3, 0.5, 0.3, OVERFLOW_T),
    "report closed-form": lambda: make_clone_report(
        ModelParams(2, 0.0, 0.0), 1, OVERFLOW_T, method="closed-form"
    ),
    "report brute": lambda: make_clone_report(
        ModelParams(2, 0.0, 0.0), 1, OVERFLOW_T, method="brute"
    ),
}


@pytest.mark.parametrize("name", list(OVERFLOW_ROUTES))
def test_phase_overflow_raises_on_every_route(name):
    """t = 1e308 is finite, but each route's phase t * rate overflows to a NaN."""
    with pytest.raises(ValueError, match="overflows"):
        OVERFLOW_ROUTES[name]()


def test_phase_scale_accepts_large_finite_phases():
    # t * s = 3e300 is finite: the check caps at overflow, not below it
    assert 0.0 <= float(fidelity_closed_form(2, 1, 0.0, 0.0, 1e300)) <= 1.0
