"""Property tests over the whole input box, degenerate gaps included.

lam = 0 with k = 0 or k = M makes one block gap vanish; those points are
drawn explicitly rather than left to chance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from starclone.cloning import fidelity_closed_form, pcc_fidelity
from starclone.dynamics import amplitudes_from_brute_force, evolve_analytic
from starclone.star_model import ModelParams

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def star_points(draw):
    M = draw(st.integers(1, 5))
    k = draw(st.one_of(st.sampled_from([0, M]), st.integers(0, M)))
    lam = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
    B = draw(st.floats(-5.0, 5.0))
    t = draw(st.floats(0.0, 50.0))
    return ModelParams(M, lam, B), k, t


@PROPERTY_SETTINGS
@given(star_points())
def test_block_amplitudes_match_dense_oracle(point):
    params, k, t = point
    analytic = evolve_analytic(params, k, t)
    dense = amplitudes_from_brute_force(params, k, t)
    for name in ("f1", "f2", "g1", "g2"):
        assert abs(getattr(analytic, name) - getattr(dense, name)) < 1e-10


@PROPERTY_SETTINGS
@given(star_points())
def test_closed_form_matches_block_propagation(point):
    params, k, t = point
    closed = float(fidelity_closed_form(params.M, k, params.lam, params.B, t))
    assert abs(closed - pcc_fidelity(evolve_analytic(params, k, t))) < 1e-9
