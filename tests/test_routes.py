"""Every route of the model against the others, each relation checked once.

A point (M, k, lam, B, t) has three routes: block propagation
(``evolve_analytic``), the closed form (``fidelity_closed_form`` and its
lam = 0 and k = M kernels) and the dense oracle (``amplitudes_from_brute_force``,
``evolve_brute_force``).  Every relation draws from ``strategies.points`` and
allows ``strategies.tolerance``.  Each row of BOXES runs one of them again on
the box, draw count and fixed tolerance of one earlier test.  The last test
pins that the stratified draws reach past those boxes.
"""

import math
from functools import partial
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
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
from strategies import ANY_POINTS, TIMES, box_points, points, tolerance

FIELDS = ("f1", "f2", "g1", "g2")
ROUTES = (evolve_analytic, amplitudes_from_brute_force)
PHASES = np.linspace(0.0, 2.0 * math.pi, 9).tolist()


def _amplitudes(params, k, t, theta, phi):
    analytic, dense = (route(params, k, t) for route in ROUTES)
    return max(np.abs(getattr(analytic, name) - getattr(dense, name)).max() for name in FIELDS)


def _closed_form(params, k, t, theta, phi, routes=ROUTES):
    closed = fidelity_closed_form(params.M, k, params.lam, params.B, t)
    return max(np.abs(closed - pcc_fidelity(route(params, k, t))).max() for route in routes)


def _xx_kernel(params, k, t, theta, phi):  # xx_fidelity is the closed form at lam = 0
    M, B = params.M, params.B
    return abs(xx_fidelity(M, k, B, t) - fidelity_closed_form(M, k, 0.0, B, t))


def _kM_kernel(params, k, t, theta, phi):  # kM_fidelity is the closed form at k = M
    M, lam, B = params.M, params.lam, params.B
    return abs(kM_fidelity(M, lam, B, t) - fidelity_closed_form(M, M, lam, B, t))


def _reduced(params, k, t, theta, phi, qubits=(1, 0)):  # 1: reduced_outer, 0: reduced_central
    alpha, beta = bloch_amplitudes(theta, phi)
    amp = evolve_analytic(params, k, t)
    psi = evolve_brute_force(params, prepare_initial(alpha, beta, params.M, k), t)
    return max(np.abs((reduced_outer if qubit else reduced_central)(amp, alpha, beta).matrix
                      - reduce_qubit(psi, qubit).matrix).max() for qubit in qubits)


def _array_vs_scalar(params, k, t, theta, phi):
    """Worst difference of an array t from one call per time: closed form, analytic, dense."""
    closed = partial(fidelity_closed_form, params.M, k, params.lam, params.B)
    errors = [np.abs(closed(t) - [closed(s) for s in t.tolist()]).max()]
    for route in ROUTES:
        amp, scalars = route(params, k, t), [route(params, k, s) for s in t.tolist()]
        errors.append(max(np.abs(read(amp) - [read(s) for s in scalars]).max()
                          for read in (pcc_fidelity, *map(attrgetter, FIELDS))))
    return errors


# the closed form bit for bit (only 0 is below the least subnormal), then analytic and dense
ARRAY_TOLERANCE = (math.ulp(0.0), 1e-15, 1e-12)


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
    "xx-and-kM-kernels-vs-closed-form": (lambda *p: max(_xx_kernel(*p), _kM_kernel(*p)), 1e-10,
                                         (8, 5.0, 5.0, 60.0)),
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


# the halves of the stratified relations that the earlier tests checked
_closed_vs_analytic = partial(_closed_form, routes=ROUTES[:1])
_outer_vs_dense, _central_vs_dense = partial(_reduced, qubits=(1,)), partial(_reduced, qubits=(0,))
SCALAR_50, SCALAR_60 = st.tuples(st.floats(0.0, 50.0)), st.tuples(st.floats(0.0, 60.0))
# t = 0 and 60 uniform times up to 300, drawn by numpy: 60 hypothesis floats cost more
SIXTY_TIMES = st.integers(0, 2**32 - 1).map(
    lambda seed: (np.insert(np.random.default_rng(seed).uniform(0.0, 300.0, 60), 0, 0.0),))


# earlier test: (relation, tolerance, draws, box), the box drawing (M, k, lam, B, the t
# of each call, theta, phi)
BOXES = {
    "test_properties::test_block_amplitudes_match_dense_oracle": (
        _amplitudes, 1e-10, 150, box_points(5, 5.0, 5.0, st.tuples(
            st.floats(0.0, 50.0),
            st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5).map(np.array)), ends=True)),
    "test_properties::test_closed_form_matches_block_propagation": (
        _closed_vs_analytic, 1e-9, 150, box_points(5, 5.0, 5.0, SCALAR_50, ends=True)),
    "test_dynamics::TestOracleEquivalence::test_agreement_200_random_tuples": (
        _amplitudes, 1e-10, 200, box_points(6, 5.0, 5.0, SCALAR_50)),
    "test_cloning::TestClosedForm::test_matches_block_propagation": (
        _closed_vs_analytic, 1e-9, 100, box_points(6, 5.0, 5.0, SCALAR_50)),
    "test_domain::test_array_time_matches_closed_form": (
        _closed_vs_analytic, 1e-9, 20,
        box_points(8, 5.0, 5.0, st.just((np.linspace(0.0, 60.0, 2001),)), ends=True)),
    "test_domain::test_array_time_equals_scalar_calls": (
        _array_vs_scalar, ARRAY_TOLERANCE, 40, box_points(8, 5.0, 5.0, SIXTY_TIMES, ends=True)),
    "test_cloning::TestReducedOuter::test_matches_dense_partial_trace": (
        _outer_vs_dense, 1e-10, 30, box_points(6, 5.0, 5.0, SCALAR_50, bloch=True)),
    "test_cloning::TestReducedCentral::test_matches_dense_partial_trace": (
        _central_vs_dense, 1e-10, 30, box_points(6, 5.0, 5.0, SCALAR_50, bloch=True)),
    "test_cloning::TestXXFidelity::test_equals_closed_form_at_lam0": (
        _xx_kernel, 1e-10, 40, box_points(8, 0.0, 3.0, SCALAR_60)),
    "test_cloning::TestPolarizedRegister::test_matches_closed_form": (
        _kM_kernel, 1e-10, 40, box_points(8, 3.0, 3.0, SCALAR_60)),
}


@pytest.mark.parametrize("name", BOXES)
def test_relation_holds_on_box(name):
    relation, cap, draws, box = BOXES[name]

    @settings(max_examples=draws)
    @given(box)
    def check(point):
        M, k, lam, B, times, theta, phi = point
        for t in times:
            assert np.all(np.less(relation(ModelParams(M, lam, B), k, t, theta, phi), cap))

    check()


@settings(max_examples=EXAMPLES)
@given(points(), st.lists(TIMES, max_size=5))
@example((4, 1, 0.8, 0.3, 12.0), np.linspace(0.0, 12.0, 50).tolist())
@example((3, 0, 0.0, 0.3, 12.0), np.linspace(0.0, 12.0, 50).tolist())  # a vanishing gap
def test_array_time_equals_scalar_calls(point, more_times):
    M, k, lam, B, t = point
    times = np.array([0.0, t, *more_times])
    errors = _array_vs_scalar(ModelParams(M, lam, B), k, times, 0.0, 0.0)
    assert np.all(np.less(errors, ARRAY_TOLERANCE))


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
def test_box_edge_mutant_fails_its_relation(patch_bindings, mutant):
    original, name, wrong = BOX_EDGE_MUTANTS[mutant]
    patch_bindings(original, wrong)
    # the relation's own draws; the first failure is reported unshrunk
    check = settings(max_examples=EXAMPLES, phases=[Phase.generate])(
        given(**DRAWS)(test_relation_holds.hypothesis.inner_test))
    with pytest.raises(AssertionError):
        check(name)
