"""Grid scan determinism, refinement contract and the reference-table search."""

import math

import numpy as np
import pytest

from starclone import optimizer, star_model
from starclone.cloning import fidelity_closed_form, state_bound, xx_fidelity
from starclone.errors import CapacityError
from starclone.optimizer import (
    XX_REFERENCE_MAXIMA,
    BestPoint,
    SearchBox,
    grid_scan,
    refine_local,
    reproduce_table1,
    scan_and_refine,
    worker_count,
)

TABLE_BOX = dict(b_range=(0.01, 1.0), t_range=(0.0, 300.0), lam=0.0)


def constant_objective(k, lam, b, t):
    return np.zeros(np.broadcast_shapes(np.shape(b), np.shape(t)))


def xx_objective(m):
    def objective(k, lam, b, t):
        return xx_fidelity(m, k, b, t)

    return objective


class TestSearchBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBox(b_range=(1.0, 0.5))
        with pytest.raises(ValueError):
            SearchBox(n_b=1)
        with pytest.raises(ValueError):
            SearchBox(k_candidates=())
        with pytest.raises(ValueError):
            SearchBox(refine_tol=0.0)
        with pytest.raises(ValueError):
            SearchBox(lam=(0.0, 1.0))

    def test_overflowing_width_rejected(self):
        with pytest.raises(ValueError, match="b_range"):
            SearchBox(b_range=(-1e308, 1e308))

    @pytest.mark.parametrize("search", [
        lambda: SearchBox(t_range=(-1.0, 1.0)),
        lambda: optimizer.xx_box_maximum(2, t_range=(-1.0, 1.0)),
    ])
    def test_negative_t_range_named(self, search):
        with pytest.raises(ValueError, match=r"t_range must have lo >= 0\.0, got \(-1\.0, 1\.0\)"):
            search()

    def test_k_candidates_sorted_dedup(self):
        box = SearchBox(k_candidates=(3, 1, 1, 0))
        assert box.k_candidates == (0, 1, 3)

    def test_one_value_range_rejected(self):
        with pytest.raises(ValueError, match="two values"):
            SearchBox(b_range=(0.1,), t_range=(0.0, 5.0), k_candidates=(0,))

    def test_three_value_range_rejected(self):
        with pytest.raises(ValueError, match="two values"):
            SearchBox(b_range=(0.1, 0.5, 0.9), t_range=(0.0, 5.0), k_candidates=(0,))

    def test_fractional_k_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            SearchBox(k_candidates=(2.7,))

    def test_bool_k_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            SearchBox(k_candidates=(True,))

    def test_numpy_integer_k_accepted(self):
        box = SearchBox(k_candidates=(np.int64(2), np.int32(0)), b_range=np.array([0.1, 0.5]))
        assert box.k_candidates == (0, 2)
        assert box.b_range == (0.1, 0.5)


class TestGridScan:
    @pytest.mark.parametrize("n_k, n_b, n_t", [(3, 9, 30001), (2, 51, 2001)])
    def test_memory_estimate_bounds_the_measured_peak(self, peak_and_estimates, n_k, n_b, n_t):
        # SearchBox's estimate covers what optimize's scan keeps alive, at most 4x over
        def objective(k, lam, b, t):
            return fidelity_closed_form(4, k, lam, b, t)

        grid_scan(objective, SearchBox(lam=0.7, n_b=2, n_t=3))  # warm: first-call allocations
        peak, estimates = peak_and_estimates(lambda: grid_scan(objective, SearchBox(
            lam=0.7, k_candidates=tuple(range(n_k)), n_b=n_b, n_t=n_t)), optimizer)
        assert peak <= max(estimates) <= 4 * peak

    def test_constant_objective_returns_smallest_corner(self):
        box = SearchBox(
            b_range=(0.2, 0.8), t_range=(1.0, 2.0), lam=0.0,
            k_candidates=(0, 1, 2), n_b=5, n_t=7,
        )
        result = grid_scan(constant_objective, box)
        assert result.best.t == 1.0
        assert result.best.B == 0.2
        assert result.best.k == 0
        assert result.best.F == 0.0
        assert result.evaluations == 3 * 5 * 7
        assert result.runner_up_gap == 0.0

    def test_reference_box_m2(self):
        box = SearchBox(**TABLE_BOX, k_candidates=(0,), n_b=201, n_t=30001)
        result = grid_scan(xx_objective(2), box)
        assert abs(result.best.F - 0.853553) < 1e-4
        assert not result.refined

    def test_denser_grid_never_worse(self):
        box_coarse = SearchBox(
            b_range=(0.05, 0.9), t_range=(0.0, 20.0), lam=0.0,
            k_candidates=(0,), n_b=11, n_t=101,
        )
        box_fine = SearchBox(
            b_range=(0.05, 0.9), t_range=(0.0, 20.0), lam=0.0,
            k_candidates=(0,), n_b=21, n_t=201,
        )
        objective = xx_objective(2)
        coarse = grid_scan(objective, box_coarse)
        fine = grid_scan(objective, box_fine)
        assert fine.best.F >= coarse.best.F

    def test_best_reproducible_at_reported_point(self):
        box = SearchBox(
            b_range=(0.05, 0.9), t_range=(0.0, 30.0), lam=0.0,
            k_candidates=(0, 1, 2), n_b=31, n_t=501,
        )
        objective = xx_objective(2)
        result = grid_scan(objective, box)
        best = result.best
        again = float(objective(best.k, best.lam, best.B, best.t))
        assert abs(again - best.F) < 1e-12

    def test_bound_sanity(self):
        box = SearchBox(**TABLE_BOX, k_candidates=tuple(range(3)), n_b=41, n_t=3001)
        result = scan_and_refine(xx_objective(2), box)
        assert result.best.F <= state_bound(2, result.best.k) + 1e-10

    def test_deterministic_across_worker_counts(self, monkeypatch):
        box = SearchBox(
            b_range=(0.01, 1.0), t_range=(0.0, 60.0), lam=0.0,
            k_candidates=(0, 1, 2), n_b=51, n_t=2001,
        )
        objective = xx_objective(2)
        results = []
        for workers in ("1", "3", "7"):
            monkeypatch.setenv("STARCLONE_WORKERS", workers)
            results.append(grid_scan(objective, box, n_candidates=4))
        assert results[0] == results[1] == results[2]

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("STARCLONE_WORKERS", "5")
        assert worker_count() == 5
        monkeypatch.setenv("STARCLONE_WORKERS", "0")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.delenv("STARCLONE_WORKERS")
        assert worker_count() >= 1


class TestRefineLocal:
    def test_stationary_start_stays(self):
        box = SearchBox(
            b_range=(0.0, 1.0), t_range=(0.0, 10.0), lam=0.0,
            k_candidates=(0,), n_b=2, n_t=2, refine_tol=1e-9,
        )

        def objective(k, lam, b, t):
            return -((b - 0.4) ** 2) - (np.asarray(t, dtype=float) - 3.0) ** 2

        b, t, f = refine_local(objective, (0.4, 3.0), box, k=0, lam=0.0)
        assert abs(b - 0.4) < 1e-6 and abs(t - 3.0) < 1e-6
        assert f >= -1e-12

    def test_reference_neighborhood_m3(self):
        box = SearchBox(**TABLE_BOX, k_candidates=(1,))
        b, t, f = refine_local(xx_objective(3), (0.031, 252.1), box, k=1, lam=0.0)
        assert f >= 0.833314

    def test_never_below_start(self):
        box = SearchBox(
            b_range=(0.01, 1.0), t_range=(0.0, 50.0), lam=0.0, k_candidates=(0,)
        )
        objective = xx_objective(2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            start = (float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.0, 50.0)))
            start_value = float(objective(0, 0.0, *start))
            _, _, refined = refine_local(objective, start, box, k=0, lam=0.0)
            assert refined >= start_value

    def test_k_and_lam_required(self):
        box = SearchBox(**TABLE_BOX, k_candidates=(0,))
        with pytest.raises(TypeError):
            refine_local(xx_objective(2), (0.5, 10.0), box)
        with pytest.raises(TypeError):
            refine_local(xx_objective(2), (0.5, 10.0), box, k=0)

    def test_start_outside_box_rejected(self):
        box = SearchBox(**TABLE_BOX, k_candidates=(0,))
        with pytest.raises(ValueError):
            refine_local(xx_objective(2), (2.0, 10.0), box, k=0, lam=0.0)



class TestAnalyticMaximizerM2:
    """The refined optimum sits on a stationary point of the M = 2 objective.

    F = 1/2 - (sqrt(2)/4) sin(sqrt(2) t) sin(B t) for k = 0, so any maximizer
    satisfies sin(sqrt(2) t) sin(B t) = -1.
    """

    def test_first_order_conditions(self):
        box = SearchBox(**TABLE_BOX, k_candidates=(0,), n_b=201, n_t=30001)
        result = scan_and_refine(xx_objective(2), box)
        b, t = result.best.B, result.best.t
        product = math.sin(math.sqrt(2.0) * t) * math.sin(b * t)
        assert abs(product + 1.0) < 1e-5
        assert abs(result.best.F - (0.5 + math.sqrt(2.0) / 4.0)) < 1e-8


class TestReproduceTable:
    def test_m2_and_m3_rows(self):
        rows = reproduce_table1(ms=(2, 3))
        by_m = {row.M: row for row in rows}
        assert by_m[2].f_max >= by_m[2].f_reference - 1e-4
        assert abs(by_m[2].f_max - 0.853553) < 1e-4
        assert not by_m[2].flagged
        assert by_m[3].f_max >= by_m[3].f_reference - 1e-4
        assert by_m[3].f_max <= by_m[3].f_optimal + 1e-10

    def test_rows_never_beat_theory(self):
        rows = reproduce_table1(ms=(2,), n_t=3001)
        assert rows[0].f_max <= rows[0].f_optimal + 1e-10

    def test_unknown_m_rejected(self):
        with pytest.raises(ValueError):
            reproduce_table1(ms=(9,))

    def test_reference_table_shape(self):
        assert sorted(XX_REFERENCE_MAXIMA) == list(range(2, 9))
        for m, (f_max, t, b, k) in XX_REFERENCE_MAXIMA.items():
            assert 0.5 < f_max < 1.0
            assert 0.0 <= t <= 300.0
            assert 0.01 <= b <= 1.0
            assert 0 <= k <= m


def per_row_grid_scan(objective, box, n_candidates=1, spacing=0.5):
    """Reference scan: one objective call per scalar-B row, ranked by the tie rule."""
    t_grid = box.t_grid()
    lam = box.lam
    points, rows = [], []
    for k in box.k_candidates:
        for b in box.b_grid().tolist():
            values = np.asarray(objective(k, lam, b, t_grid), dtype=float)
            idx = int(np.argmax(values))
            points.append(BestPoint(k, lam, b, float(t_grid[idx]), float(values[idx])))
            rows.append(values)
    order = sorted(range(len(points)), key=lambda i: (-points[i].F,) + points[i].tie_key())
    best = points[order[0]]
    second = float(np.partition(rows[order[0]], -2)[-2])
    runner_up = max([second] + [points[i].F for i in order[1:]])
    chosen = []
    for point in (points[i] for i in order):
        if len(chosen) == n_candidates:
            break
        if not any(c.k == point.k and abs(c.t - point.t) < spacing for c in chosen):
            chosen.append(point)
    return best, tuple(chosen), best.F - runner_up, len(points) * t_grid.size


class TestBlockContract:
    """B rows reach the objective in blocks; the result equals a per-row scan."""

    @pytest.mark.parametrize(
        "m, lam, n_b, n_t",
        [(3, 0.0, 23, 30001), (4, 0.7, 51, 2001), (4, 0.7, 13, 30001)],
        ids=["xx-several-blocks", "xxz-one-block", "xxz-partial-block"],
    )
    def test_matches_per_row_reference(self, m, lam, n_b, n_t):
        box = SearchBox(
            b_range=(0.01, 1.0), t_range=(0.0, 20.0), lam=lam,
            k_candidates=tuple(range(m + 1)), n_b=n_b, n_t=n_t,
        )

        def objective(k, lam_, b, t):
            return fidelity_closed_form(m, k, lam_, b, t)

        result = grid_scan(objective, box, n_candidates=4)
        best, candidates, gap, evaluations = per_row_grid_scan(objective, box, n_candidates=4)
        assert result.best == best
        assert result.candidates == candidates
        assert result.runner_up_gap == gap
        assert result.evaluations == evaluations

    def test_one_call_per_block(self):
        box = SearchBox(
            b_range=(0.01, 1.0), t_range=(0.0, 20.0), lam=0.0,
            k_candidates=(0, 1), n_b=20, n_t=30001,
        )
        shapes = []

        def counting(k, lam, b, t):
            shapes.append(np.shape(b))
            return xx_fidelity(2, k, b, t)

        grid_scan(counting, box)
        per_block = max(1, optimizer._BLOCK_ELEMENTS // box.n_t)
        assert per_block < box.n_b
        assert len(shapes) == 2 * math.ceil(box.n_b / per_block)
        assert sum(shape[0] for shape in shapes) == 2 * box.n_b
        assert all(shape[1:] == (1,) for shape in shapes)

    @pytest.mark.parametrize(
        "shape",
        [lambda nb, nt: (nt + 1,), lambda nb, nt: (nb + 1, nt), lambda nb, nt: (nt, nb)],
        ids=["short-row", "extra-row", "transposed"],
    )
    def test_wrong_shape_rejected(self, shape):
        box = SearchBox(
            b_range=(0.1, 0.9), t_range=(0.0, 1.0), k_candidates=(0,), n_b=4, n_t=9
        )

        def objective(k, lam, b, t):
            return np.zeros(shape(np.size(b), np.size(t)))

        with pytest.raises(ValueError, match="shape"):
            grid_scan(objective, box)


class TestCandidateCount:
    @pytest.mark.parametrize("n_candidates", [0, -3])
    def test_below_one_rejected_before_scanning(self, n_candidates):
        box = SearchBox(t_range=(0.0, 1.0), k_candidates=(0,), n_b=3, n_t=5)
        calls = []

        def objective(k, lam, b, t):
            calls.append(k)
            return xx_fidelity(2, k, b, t)

        with pytest.raises(ValueError, match="n_candidates"):
            grid_scan(objective, box, n_candidates=n_candidates)
        with pytest.raises(ValueError, match="n_candidates"):
            scan_and_refine(objective, box, n_candidates=n_candidates)
        assert calls == []


class TestGridCapacity:
    def test_oversized_box_raises_before_allocation(self, monkeypatch):
        monkeypatch.setattr(star_model, "_physical_ram_bytes", lambda: 1 << 20)
        SearchBox(k_candidates=(0, 1), n_b=11, n_t=201)
        with pytest.raises(CapacityError):
            SearchBox(k_candidates=(0,), n_b=11, n_t=30001)
        with pytest.raises(CapacityError):
            SearchBox(k_candidates=(0,), n_b=10**5, n_t=2)
