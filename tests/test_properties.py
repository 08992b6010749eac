"""The closed form of a'(t) that the XX box search enumerates, on the sizes and times
of that search.  tests/test_routes.py checks the route relations.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from starclone.cloning import fidelity_closed_form


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
