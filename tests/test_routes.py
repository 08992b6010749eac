"""Every route of the model against the others, each relation checked once.

A point (M, k, lam, B, t) has three routes: block propagation
(``evolve_analytic``), the closed form (``fidelity_closed_form`` and its
lam = 0 and k = M kernels) and the dense oracle (``amplitudes_from_brute_force``,
``evolve_brute_force``).  Every test draws from ``strategies`` and allows
``strategies.tolerance``; the last one pins that the draws reach past the
box the older fixed-tolerance tests drew from.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from starclone.cloning import (
    _normal_form,
    _sine_amplitude,
    bloch_amplitudes,
    fidelity_closed_form,
    kM_fidelity,
    pcc_fidelity,
    reduced_central,
    reduced_outer,
    state_bound,
    xx_fidelity,
)
from starclone.dynamics import amplitudes_from_brute_force, evolve_analytic, evolve_brute_force
from starclone.hilbert import fidelity_pure, prepare_initial, reduce_qubit
from starclone.star_model import ModelParams, _block_elements
from strategies import ANY_POINTS, TIMES, points, tolerance

FIELDS = ("f1", "f2", "g1", "g2")
ROUTES = (evolve_analytic, amplitudes_from_brute_force)
PHASES = np.linspace(0.0, 2.0 * math.pi, 9).tolist()


def _amplitudes(params, k, t, theta, phi):
    analytic, dense = (route(params, k, t) for route in ROUTES)
    return max(abs(getattr(analytic, name) - getattr(dense, name)) for name in FIELDS)


def _closed_form(params, k, t, theta, phi):
    closed = float(fidelity_closed_form(params.M, k, params.lam, params.B, t))
    return max(abs(closed - pcc_fidelity(route(params, k, t))) for route in ROUTES)


def _kernels(params, k, t, theta, phi):  # xx_fidelity at lam = 0, kM_fidelity at k = M
    M, lam, B = params.M, params.lam, params.B
    return max(abs(xx_fidelity(M, k, B, t) - fidelity_closed_form(M, k, 0.0, B, t)),
               abs(kM_fidelity(M, lam, B, t) - fidelity_closed_form(M, M, lam, B, t)))


def _reduced(params, k, t, theta, phi):
    alpha, beta = bloch_amplitudes(theta, phi)
    amp = evolve_analytic(params, k, t)
    psi = evolve_brute_force(params, prepare_initial(alpha, beta, params.M, k), t)
    return max(np.abs(reduce(amp, alpha, beta).matrix - reduce_qubit(psi, qubit).matrix).max()
               for reduce, qubit in ((reduced_outer, 1), (reduced_central, 0)))


def _unitarity(params, k, t, theta, phi):
    return max(route(params, k, t).unitarity_defect() for route in ROUTES)


def _above_bound(params, k, t, theta, phi):
    closed = float(fidelity_closed_form(params.M, k, params.lam, params.B, t))
    return max(pcc_fidelity(evolve_analytic(params, k, t)), closed) - state_bound(params.M, k)


def _dense_phase_spread(params, k, t, theta, phi):
    fidelities = []
    for alpha, beta in (bloch_amplitudes(math.pi / 2.0, p) for p in [phi, *PHASES]):
        psi = evolve_brute_force(params, prepare_initial(alpha, beta, params.M, k), t)
        fidelities.append(fidelity_pure(reduce_qubit(psi, 1), alpha, beta))
    return max(fidelities) - min(fidelities)


def _analytic_phase_error(params, k, t, theta, phi):
    amp = evolve_analytic(params, k, t)
    return max(abs(fidelity_pure(reduced_outer(amp, a, b), a, b) - pcc_fidelity(amp))
               for a, b in (bloch_amplitudes(math.pi / 2.0, p) for p in [phi, *PHASES]))


# id: (error at one point, the fixed tolerance an older test held, its (M, |lam|, |B|, t) box)
RELATIONS = {
    "amplitudes-analytic-vs-dense": (_amplitudes, 1e-10, (6, 5.0, 5.0, 50.0)),
    "closed-form-vs-both-routes": (_closed_form, 1e-9, (8, 5.0, 5.0, 60.0)),
    "xx-and-kM-kernels-vs-closed-form": (_kernels, 1e-10, (8, 5.0, 5.0, 60.0)),
    "reduced-matrices-vs-dense-partial-trace": (_reduced, 1e-10, (6, 5.0, 5.0, 50.0)),
    "unitarity-of-both-routes": (_unitarity, 1e-12, (6, 5.0, 5.0, 50.0)),
    "fidelity-above-state-bound": (_above_bound, 1e-10, (8, 10.0, 5.0, 100.0)),
    "dense-phase-covariance": (_dense_phase_spread, 1e-11, (5, 5.0, 5.0, 30.0)),
    "analytic-phase-covariance": (_analytic_phase_error, 1e-12, (6, 5.0, 5.0, 50.0)),
}


DRAWS = {"point": points(), "cos_theta": st.floats(-1.0, 1.0),
         "phi": st.floats(0.0, 2.0 * math.pi)}
EXAMPLES = 60  # per relation: together they take about as long as the tests they replaced


@pytest.mark.parametrize("name", RELATIONS)
@settings(max_examples=EXAMPLES)
@given(**DRAWS)
def test_relation_holds(name, point, cos_theta, phi):
    relation, cap, box = RELATIONS[name]
    M, k, lam, B, t = point
    error = relation(ModelParams(M, lam, B), k, t, math.acos(cos_theta), phi)
    assert error < tolerance(M, lam, B, t, cap, box)


@settings(max_examples=EXAMPLES)
@given(points(), st.lists(TIMES, max_size=5))
def test_array_time_equals_scalar_calls(point, more_times):
    M, k, lam, B, t = point
    params, times = ModelParams(M, lam, B), [0.0, t, *more_times]
    closed = [fidelity_closed_form(M, k, lam, B, s) for s in times]
    assert np.array_equal(fidelity_closed_form(M, k, lam, B, np.array(times)), closed)
    for route, tol in zip(ROUTES, (1e-15, 1e-12)):
        amp, scalars = route(params, k, np.array(times)), [route(params, k, s) for s in times]
        for name in FIELDS:
            assert np.abs(getattr(amp, name) - [getattr(s, name) for s in scalars]).max() <= tol
        assert np.abs(pcc_fidelity(amp) - [pcc_fidelity(s) for s in scalars]).max() <= tol


def _outcome(route):
    """The fidelity a route returns, or the type of the exception it raises."""
    try:
        return float(route())
    except Exception as exc:  # the type is what the property compares
        return type(exc)


@given(ANY_POINTS)
def test_every_route_agrees_or_raises_the_same_error(point):
    M, k, lam, B, t = point
    routes = [lambda: fidelity_closed_form(M, k, lam, B, t)]
    routes += [lambda r=r: pcc_fidelity(r(ModelParams(M, lam, B), k, t)) for r in ROUTES]
    if lam == 0.0:
        routes.append(lambda: xx_fidelity(M, k, B, t))
    if not isinstance(k, bool) and k == M:
        routes.append(lambda: kM_fidelity(M, lam, B, t))
    outcomes = [_outcome(route) for route in routes]
    if any(isinstance(o, type) for o in outcomes):
        assert len(set(outcomes)) == 1, outcomes
    else:
        assert max(outcomes) - min(outcomes) < tolerance(M, lam, B, t, 1e-9, (4, 5.0, 5.0, 50.0))


@given(points(m_max=64))
def test_xx_fidelity_mirrors_k_and_field(point):
    M, k, _lam, B, t = point
    tol = tolerance(M, 0.0, B, t, 1e-15, (64, 0.0, 5.0, 300.0))
    assert abs(float(xx_fidelity(M, k, B, t)) - float(xx_fidelity(M, M - k, -B, t))) <= tol


# kernels right inside |lam| <= 10, |B| <= 5 and t <= 1,000, and wrong only beyond
BOX_EDGE_MUTANTS = {
    "normal_form-lambda-clip": (_normal_form, "closed-form-vs-both-routes",
                                lambda M, k, lam: _normal_form(M, k, float(np.clip(lam, -10, 10)))),
    "block_elements-field-clip": (_block_elements, "amplitudes-analytic-vs-dense",
                                  lambda p, m: _block_elements(
                                      ModelParams(p.M, p.lam, float(np.clip(p.B, -5, 5))), m)),
    "sine_amplitude-time-clip": (_sine_amplitude, "closed-form-vs-both-routes",
                                 lambda form, t: _sine_amplitude(form, np.minimum(t, 1e3))),
}


@pytest.mark.parametrize("mutant", BOX_EDGE_MUTANTS)
def test_box_edge_mutant_fails_its_relation(monkeypatch, mutant):
    original, name, wrong = BOX_EDGE_MUTANTS[mutant]
    for module_name, module in list(sys.modules.items()):
        if module_name == "starclone" or module_name.startswith("starclone."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrong)
    # the relation's own draws; the first failure is reported unshrunk
    check = settings(max_examples=EXAMPLES, phases=[Phase.generate])(
        given(**DRAWS)(test_relation_holds.hypothesis.inner_test))
    with pytest.raises(AssertionError):
        check(name)
