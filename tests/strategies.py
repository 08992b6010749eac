"""One stratified sampler of model points (M, k, lam, B, t), and the tolerance they share.

Each stratum is drawn on purpose, not left to chance: M in {1, 2, odd 3..m_max,
even 4..m_max}; k in {0, interior, M}; lam and B each 0 or +-u * 10**e with
u in (0, 1) and e in [-2, 3]; t 0 or u * 10**e with e in [-2, 6].  ANY_POINTS
adds points outside the domain.  Building a strategy costs more than drawing
from it, so each is built once.
"""

import math
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

U = 2.2e-16
# worst error / (U (1 + t s)) over 3,000 draws was 25: the dense eigensolver near
# t = 0 at M = 8.  Where t s >= 100 it was at most 1.6.
C = 100.0
NON_FINITE = (math.nan, math.inf, -math.inf)
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_SIGNS = st.sampled_from([1.0, -1.0])


@lru_cache
def _integers(lo, hi):
    return st.integers(lo, hi)


@st.composite
def _decades(draw, top, signs):
    e = draw(_integers(-3, top))  # -3 stands for 0
    return 0.0 if e == -3 else draw(signs) * draw(_UNIT) * 10.0**e


COUPLINGS = _decades(3, _SIGNS)
TIMES = _decades(6, st.just(1.0))


@lru_cache
def sizes(m_max=8):
    return st.one_of(st.just(1), st.just(2),
                     st.integers(1, (m_max - 1) // 2).map(lambda n: 2 * n + 1),
                     st.integers(2, m_max // 2).map(lambda n: 2 * n))


@st.composite
def _points(draw, m_max):
    M = draw(sizes(m_max))
    end = draw(_integers(0, 2))  # k = 0, k = M, or (2) an interior k
    k = draw(_integers(1, M - 1)) if end == 2 and M > 1 else M * (end == 1)
    return M, k, draw(COUPLINGS), draw(COUPLINGS), draw(TIMES)


@lru_cache
def points(m_max=8):
    return _points(m_max)


_ANY_M = st.one_of(sizes(), st.sampled_from([0, -1, True]))
_ANY_K = st.one_of(st.integers(-1, 9), st.sampled_from(["M", 1.5, True]))  # "M": k = M
_ANY_COUPLING = st.one_of(COUPLINGS, st.sampled_from(NON_FINITE))
_ANY_TIME = st.one_of(TIMES, st.sampled_from(NON_FINITE + (-1.0,)))


@st.composite
def _any_points(draw):
    M, k = draw(_ANY_M), draw(_ANY_K)
    return M, M if k == "M" else k, draw(_ANY_COUPLING), draw(_ANY_COUPLING), draw(_ANY_TIME)


ANY_POINTS = _any_points()


def tolerance(M, lam, B, t, cap, box):
    """C * U * (1 + t s) with s = (M+1)(1 + |lam| + |B|), and at most ``cap`` in ``box``.

    A route's rounding grows with its largest phase t s (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002).  ``cap`` is the fixed tolerance
    an older test held on ``box``, its (M, |lam|, |B|, t) maxima, so no point
    gets a looser bound than it had.
    """
    t_max = float(np.max(t, initial=0.0))
    scaled = C * U * (1.0 + t_max * (M + 1) * (1.0 + abs(lam) + abs(B)))
    inside = all(x <= edge for x, edge in zip((M, abs(lam), abs(B), t_max), box))
    return min(scaled, cap) if inside else scaled
