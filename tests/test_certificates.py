"""A certificate must hold against an independent search, and a wrong one must fail.

``xx_box_maximum`` certifies that no point of its box beats ``f_upper``.  On
narrow field boxes T0 = 2 pi/(hi - lo) exceeds t_hi, so the whole t range is
certified by the Lipschitz bound alone, and a dense ``xx_fidelity`` grid is
an independent search for a point that beats it (Piyavskii 1972; Shubert
1972).  The same grid also bounds the reported maximum from below.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from starclone import optimizer
from starclone.cloning import xx_fidelity
from starclone.optimizer import xx_box_maximum

T_RANGE = (0.0, 300.0)
BOXES = [(0.5, 0.51), (0.2, 0.2001), (0.01, 0.05)]


@lru_cache(maxsize=None)
def grid_maximum(M: int, b_range: tuple[float, float]) -> float:
    """Largest xx_fidelity over k in 0..M on a 5 x 30,001 (B, t) grid of the box."""
    b = np.linspace(*b_range, 5)[:, None]
    t = np.linspace(*T_RANGE, 30001)
    return max(float(xx_fidelity(M, k, b, t).max()) for k in range(M + 1))


@pytest.mark.parametrize("n_t", [3, 65])
@pytest.mark.parametrize("b_range", BOXES, ids=lambda box: f"B{box[0]}-{box[1]}")
@pytest.mark.parametrize("M", [2, 3, 5, 8])
def test_certificate_holds_against_a_dense_grid(M, b_range, n_t):
    result = xx_box_maximum(M, b_range, T_RANGE, n_t=n_t)
    grid = grid_maximum(M, b_range)
    assert grid <= result.f_upper
    assert result.best.F >= grid - 1e-9


def test_a_shrunken_lipschitz_constant_is_caught(monkeypatch):
    # a hundredth of the true constant closes cells that still hold better points
    lipschitz = optimizer._lipschitz_constant
    monkeypatch.setattr(optimizer, "_lipschitz_constant", lambda *args: 0.01 * lipschitz(*args))
    result = xx_box_maximum(3, (0.2, 0.2001), T_RANGE, n_t=3)
    assert grid_maximum(3, (0.2, 0.2001)) > result.f_upper
