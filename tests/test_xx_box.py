"""The exact XX box maximum: bounds, certificate, box contract and tie rule."""

import json
import math
from pathlib import Path

import pytest

from starclone import optimizer, star_model
from starclone.cloning import optimal_pcc_bound, xx_fidelity
from starclone.errors import CapacityError
from starclone.optimizer import SearchBox, grid_scan, reproduce_table1, xx_box_maximum

ROOT = Path(__file__).resolve().parents[1]
SEED_TABLE1 = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["seed_table1"]


def grid_maximum(m, b_range, t_range, n_b, n_t):
    box = SearchBox(b_range=b_range, t_range=t_range, k_candidates=tuple(range(m + 1)),
                    n_b=n_b, n_t=n_t)
    return grid_scan(lambda k, lam, b, t: xx_fidelity(m, k, b, t), box).best.F


def assert_contract(result, m, b_range, t_range):
    best = result.best
    assert 0 <= best.k <= m and best.lam == 0.0
    assert b_range[0] <= best.B <= b_range[1]
    assert t_range[0] <= best.t <= t_range[1]
    assert best.F == float(xx_fidelity(m, best.k, best.B, best.t))
    assert best.F <= result.f_upper < best.F + 1e-9


# a 2,001-point seed grid keeps all 63 sizes near a second; the certificate
# holds at any seed size, and table1's 30,001 points are tested below
@pytest.mark.parametrize("m", range(2, 65))
def test_paper_box_maximum_is_certified(m):
    box = ((0.01, 1.0), (0.0, 300.0))
    result = xx_box_maximum(m, *box, n_t=2001)
    assert_contract(result, m, *box)
    assert result.best.F <= optimal_pcc_bound(m) + 1e-10
    assert result.best.F >= grid_maximum(m, *box, n_b=11, n_t=301)


@pytest.mark.parametrize(
    "m, b_range, t_range",
    [
        (3, (0.01, 1.0), (0.0, 5.0)),  # the maximum lies before T0: bisection
        (5, (0.3, 0.3), (0.0, 50.0)),  # one field value: T0 is infinite
        (4, (-1.0, 0.5), (0.0, 40.0)),  # negative fields
        (6, (0.01, 1.0), (10.0, 30.0)),  # t_lo past T0: enumeration only
        (1, (0.01, 2.0), (0.0, 10.0)),
        (3, (0.2, 0.25), (0.0, 0.0)),  # a single time
        (4, (2.0, 5.0), (0.0, 3.0)),
    ],
)
def test_other_boxes_beat_a_fine_grid(m, b_range, t_range):
    result = xx_box_maximum(m, b_range, t_range)
    assert_contract(result, m, b_range, t_range)
    assert result.best.F >= grid_maximum(m, b_range, t_range, n_b=201, n_t=2001)


def test_table1_rows():
    for row in reproduce_table1():
        assert row.f_max >= SEED_TABLE1[str(row.M)]["f_max"] - 1e-12
        assert row.f_max <= optimal_pcc_bound(row.M) + 1e-10
        assert 0.01 <= row.B <= 1.0 and 0.0 <= row.t <= 300.0
        assert row.f_max == float(xx_fidelity(row.M, row.k, row.B, row.t))
        assert row.f_max <= row.f_upper < row.f_max + 1e-9


def test_m2_optimum_is_the_earliest_exact_point():
    # t = 3 pi/(2 sqrt 2) is the first critical point of a whose arc holds
    # the peak phase; B = pi/(2t) = sqrt(2)/3 puts it there
    result = xx_box_maximum(2)
    assert result.best.k == 0
    assert result.best.t == pytest.approx(3.0 * math.pi / (2.0 * math.sqrt(2.0)), abs=1e-14)
    assert result.best.B == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-14)
    assert result.best.F == optimal_pcc_bound(2) == result.f_upper


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(M=0),
        dict(M=2, n_t=1),
        dict(M=2, t_range=(-1.0, 5.0)),
        dict(M=2, b_range=(1.0, 0.5)),
        dict(M=2, b_range=(0.1, math.inf)),
        dict(M=2, t_range=(0.0, 1e308)),  # the phase would overflow
    ],
)
def test_bad_input_rejected(kwargs):
    with pytest.raises(ValueError):
        xx_box_maximum(**kwargs)


def test_oversized_seed_grid_raises_before_allocation(monkeypatch):
    monkeypatch.setattr(star_model, "_physical_ram_bytes", lambda: 1 << 20)
    xx_box_maximum(2, n_t=2001)
    with pytest.raises(CapacityError):
        xx_box_maximum(2, n_t=30001)


@pytest.mark.parametrize("m", [8, 64])
def test_memory_estimate_bounds_the_measured_peak(peak_and_estimates, m):
    # the largest estimate checked must cover what the search keeps for every
    # k, without overstating it by more than 4x at table1's default seed grid
    xx_box_maximum(m)  # warm: first-call allocations are not the search's own
    peak, estimates = peak_and_estimates(lambda: xx_box_maximum(m), optimizer)
    assert peak <= max(estimates) <= 4 * peak
