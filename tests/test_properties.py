"""Property tests: block amplitudes and the closed form in the box |lam|, |B| <= 5, t <= 50,
and the closed form of a'(t) that the XX box search enumerates.

lam = 0 with k = 0 or k = M makes one block gap vanish; those points are
drawn explicitly rather than left to chance.  tests/test_routes.py checks
the same relations over the whole stratified domain.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from starclone.cloning import fidelity_closed_form, pcc_fidelity
from starclone.dynamics import amplitudes_from_brute_force, evolve_analytic
from starclone.star_model import ModelParams


@st.composite
def star_points(draw):
    M = draw(st.integers(1, 5))
    k = draw(st.one_of(st.sampled_from([0, M]), st.integers(0, M)))
    lam = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
    B = draw(st.floats(-5.0, 5.0))
    t = draw(st.floats(0.0, 50.0))
    return ModelParams(M, lam, B), k, t


@given(star_points(), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5))
def test_block_amplitudes_match_dense_oracle(point, times):
    params, k, t = point
    analytic = evolve_analytic(params, k, t)
    dense = amplitudes_from_brute_force(params, k, t)
    for name in ("f1", "f2", "g1", "g2"):
        assert abs(getattr(analytic, name) - getattr(dense, name)) < 1e-10
    # the dense route at a 1-5 point t array, elementwise
    analytic = evolve_analytic(params, k, np.array(times))
    dense = amplitudes_from_brute_force(params, k, np.array(times))
    for name in ("f1", "f2", "g1", "g2"):
        assert np.abs(getattr(analytic, name) - getattr(dense, name)).max() < 1e-10


@given(star_points())
def test_closed_form_matches_block_propagation(point):
    params, k, t = point
    closed = float(fidelity_closed_form(params.M, k, params.lam, params.B, t))
    assert abs(closed - pcc_fidelity(evolve_analytic(params, k, t))) < 1e-9


@st.composite
def xx_points(draw):
    """(M, k, t) over the sizes and times of the XX box search."""
    M = draw(st.integers(1, 64))
    k = draw(st.one_of(st.sampled_from([0, M]), st.integers(0, M)))
    return M, k, draw(st.floats(0.01, 300.0))


@given(xx_points())
def test_xx_amplitude_derivative_has_the_enumerated_zeros(point):
    # xx_box_maximum enumerates the zeros of this closed form of a'(t)
    M, k, t = point
    K1, K2 = k * (M - k + 1), (M - k) * (k + 1)
    slope = (K1 - K2) / (2.0 * M) * math.cos(math.sqrt(K1) * t) * math.cos(math.sqrt(K2) * t)

    def a(s):  # F = 1/2 + a(s) sin(Bs) at lam = 0, read where sin(Bs) = 1
        return float(fidelity_closed_form(M, k, 0.0, math.pi / (2.0 * s), s)) - 0.5

    h = 1e-6
    central = (a(t + h) - a(t - h)) / (2.0 * h)
    # phase rounding grows like t; 3,000 random points used 5% of this
    assert abs(central - slope) <= 1e-9 * (1.0 + t)
