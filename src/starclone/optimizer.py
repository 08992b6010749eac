"""Constrained fidelity maximization over a (B, t) search box.

The search is a dense Cartesian grid scan with a deterministic argmax (ties
resolved toward smaller t, then smaller B, k and lam) followed by
derivative-free simplex refinement clipped to the box.  The scan is serial:
for each (k, lam) it evaluates the B rows in blocks, one objective call per
block, so a kernel computes its B-independent factors once per block.

Objectives are callables ``objective(k, lam, B, t)``.  The grid scan passes
a column of B values, shape (n, 1), against the 1-D t row and expects an
(n, n_t) array back (or one n_t row when the value does not depend on B);
refinement passes scalars.  Plain numpy ufunc arithmetic in B and t
satisfies both.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .cloning import optimal_pcc_bound, xx_fidelity
from .star_model import _require_memory

__all__ = [
    "WORKERS_ENV_VAR",
    "XX_REFERENCE_MAXIMA",
    "SearchBox",
    "BestPoint",
    "OptResult",
    "Table1Row",
    "worker_count",
    "grid_scan",
    "refine_local",
    "scan_and_refine",
    "reproduce_table1",
]

WORKERS_ENV_VAR = "STARCLONE_WORKERS"

# Reference maxima for the XX-model search box B in [0.01, 1], t in [0, 300],
# one row per network size M: (f_max, t, B, k).  They come from an earlier,
# coarser numerical search; the exhaustive scan below finds slightly higher
# maxima for some M (confirmed against the dense-evolution oracle), so rows
# deviating from the reference are flagged for reporting, never errors.
XX_REFERENCE_MAXIMA: dict[int, tuple[float, float, float, int]] = {
    2: (0.853553, 3.33216, 0.471405, 0),
    3: (0.833319, 252.113, 0.0311526, 1),
    4: (0.806131, 108.375, 0.0144940, 1),
    5: (0.799642, 27.7507, 0.0566038, 2),
    6: (0.788510, 286.127, 0.0274493, 2),
    7: (0.785617, 37.3064, 0.0421053, 3),
    8: (0.779244, 20.7232, 0.0757989, 3),
}

_REFERENCE_FLAG_TOL = 1e-4

# Grid values per objective call: 8 B rows of the 30,001-point paper t grid.
_BLOCK_ELEMENTS = 2**18

# Smallest t separation of two refinement candidates of one (k, lam).
_CANDIDATE_SPACING = 0.5


def worker_count() -> int:
    """Worker count from STARCLONE_WORKERS, else the CPU count.

    The grid scan is serial, so the count changes neither results nor speed;
    it is kept for callers that report or check it.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is not None and raw.strip():
        count = int(raw)
        if count < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {raw!r}")
        return count
    return os.cpu_count() or 1


def _as_range(name: str, pair) -> tuple[float, float]:
    lo, hi = (float(pair[0]), float(pair[1]))
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"{name} must be finite with lo <= hi, got ({lo!r}, {hi!r})")
    return lo, hi


@dataclass(frozen=True)
class SearchBox:
    """Constraint box and grid resolution for the fidelity search.

    ``lam`` is either one fixed value or a (lo, hi) range swept with
    ``n_lambda`` points.  Defaults resolve the box B in [0.01, 1],
    t in [0, 300] at steps of (hi - lo)/200 in B and 0.01 in t, fine enough
    for the narrow large-t resonances of the XX model.
    """

    b_range: tuple[float, float] = (0.01, 1.0)
    t_range: tuple[float, float] = (0.0, 300.0)
    lam: float | tuple[float, float] = 0.0
    k_candidates: tuple[int, ...] = (0,)
    n_b: int = 201
    n_t: int = 30001
    n_lambda: int = 1
    refine_iters: int = 400
    refine_tol: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_range", _as_range("b_range", self.b_range))
        object.__setattr__(self, "t_range", _as_range("t_range", self.t_range))
        ks = tuple(sorted({int(k) for k in self.k_candidates}))
        if not ks:
            raise ValueError("k_candidates must not be empty")
        object.__setattr__(self, "k_candidates", ks)
        if self.n_b < 2 or self.n_t < 2:
            raise ValueError("grid counts n_b and n_t must be >= 2")
        if isinstance(self.lam, tuple):
            object.__setattr__(self, "lam", _as_range("lam", self.lam))
            if self.n_lambda < 2:
                raise ValueError("a lam range needs n_lambda >= 2")
        elif not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
        else:
            object.__setattr__(self, "lam", float(self.lam))
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be positive")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be >= 1")
        n_lam = self.n_lambda if isinstance(self.lam, tuple) else 1
        rows = len(ks) * n_lam * self.n_b
        block = min(self.n_b, max(1, _BLOCK_ELEMENTS // self.n_t))
        # the t grid and one block of B rows, each with a few kernel
        # temporaries, plus a ranked record per (k, lam, B) row
        _require_memory(
            64 * self.n_t * (1 + block) + 384 * rows,
            f"a grid scan of {rows} B rows by {self.n_t} t points",
        )

    def b_grid(self) -> np.ndarray:
        return np.linspace(self.b_range[0], self.b_range[1], self.n_b)

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.n_t)

    def lam_grid(self) -> np.ndarray:
        if isinstance(self.lam, tuple):
            return np.linspace(self.lam[0], self.lam[1], self.n_lambda)
        return np.array([self.lam])


@dataclass(frozen=True)
class BestPoint:
    """One evaluated parameter point and its fidelity."""

    M: int | None
    k: int
    lam: float
    B: float
    t: float
    F: float

    def tie_key(self) -> tuple[float, float, int, float]:
        return (self.t, self.B, self.k, self.lam)


@dataclass(frozen=True)
class OptResult:
    """Outcome of a box search: argmax, bookkeeping and refinement flag."""

    best: BestPoint
    evaluations: int
    refined: bool
    runner_up_gap: float
    candidates: tuple[BestPoint, ...] = ()


def _better(candidate: BestPoint, incumbent: BestPoint | None) -> bool:
    if incumbent is None:
        return True
    if candidate.F != incumbent.F:
        return candidate.F > incumbent.F
    return candidate.tie_key() < incumbent.tie_key()


def grid_scan(
    objective,
    box: SearchBox,
    m: int | None = None,
    n_candidates: int = 1,
) -> OptResult:
    """Exhaustive evaluation of the box grid with a deterministic argmax.

    ``n_candidates`` > 1 additionally returns the best grid points of up to
    that many separate time basins per (k, lam) (at least 0.5 apart in t),
    for multi-start refinement.  ``n_candidates`` < 1 raises ValueError.
    """
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    t_grid = box.t_grid()
    b_grid = box.b_grid()
    per_block = max(1, _BLOCK_ELEMENTS // t_grid.size)
    points: list[BestPoint] = []
    best: BestPoint | None = None
    for k in box.k_candidates:
        for lam in box.lam_grid().tolist():
            for start in range(0, b_grid.size, per_block):
                bs = b_grid[start : start + per_block]
                values = np.asarray(objective(k, lam, bs[:, None], t_grid), dtype=np.float64)
                if values.shape not in ((bs.size, t_grid.size), t_grid.shape):
                    raise ValueError(
                        "objective must return one value per (B, t) sample, got "
                        f"shape {values.shape} for {bs.size} B by {t_grid.size} t"
                    )
                values = np.broadcast_to(values, (bs.size, t_grid.size))
                idx = np.argmax(values, axis=1)  # first maximum: smallest t wins exact ties
                new_best = None
                for j, (b, i) in enumerate(zip(bs.tolist(), idx.tolist())):
                    point = BestPoint(m, k, lam, b, float(t_grid[i]), float(values[j, i]))
                    points.append(point)
                    if _better(point, best):
                        best, new_best = point, j
                if new_best is not None:  # keep one row, not the whole block
                    best_row = values[new_best].copy()
    assert best is not None

    second = float(np.partition(best_row, -2)[-2])
    runner_up = max([second] + [p.F for p in points if p is not best])
    candidates = (best,)
    if n_candidates > 1:
        points.sort(key=lambda p: (-p.F,) + p.tie_key())
        candidates = _basin_candidates(points, n_candidates)
    return OptResult(
        best=best,
        evaluations=len(points) * t_grid.size,
        refined=False,
        runner_up_gap=best.F - runner_up,
        candidates=candidates,
    )


def _basin_candidates(ranked: list[BestPoint], n_candidates: int) -> tuple[BestPoint, ...]:
    """Top ranked points, at most one per t-basin of each (k, lam) group."""
    chosen: list[BestPoint] = []
    for point in ranked:
        if len(chosen) >= n_candidates:
            break
        clash = any(
            c.k == point.k and c.lam == point.lam and abs(c.t - point.t) < _CANDIDATE_SPACING
            for c in chosen
        )
        if not clash:
            chosen.append(point)
    return tuple(chosen)


def refine_local(
    objective,
    start: tuple[float, float],
    box: SearchBox,
    k: int | None = None,
    lam: float | None = None,
) -> tuple[float, float, float]:
    """Simplex ascent from ``start`` = (B, t), clipped to the box.

    Stops once the simplex spread drops below ``box.refine_tol`` or after
    ``box.refine_iters`` iterations; the returned fidelity never falls below
    the start value.
    """
    b0, t0 = float(start[0]), float(start[1])
    if not (box.b_range[0] <= b0 <= box.b_range[1]) or not (
        box.t_range[0] <= t0 <= box.t_range[1]
    ):
        raise ValueError(f"start {start!r} lies outside the search box")
    if k is None:
        if len(box.k_candidates) != 1:
            raise ValueError("k is ambiguous: pass it explicitly")
        k = box.k_candidates[0]
    if lam is None:
        if isinstance(box.lam, tuple):
            raise ValueError("lam is ambiguous: pass it explicitly")
        lam = box.lam

    def negated(x: np.ndarray) -> float:
        return -float(objective(k, lam, float(x[0]), float(x[1])))

    start_value = -negated(np.array([b0, t0]))
    result = minimize(
        negated,
        np.array([b0, t0]),
        method="Nelder-Mead",
        bounds=[box.b_range, box.t_range],
        options={
            "xatol": box.refine_tol,
            "fatol": 1e-15,
            "maxiter": box.refine_iters,
            "maxfev": 8 * box.refine_iters,
        },
    )
    refined_value = -float(result.fun)
    if refined_value > start_value:
        b = float(min(max(result.x[0], box.b_range[0]), box.b_range[1]))
        t = float(min(max(result.x[1], box.t_range[0]), box.t_range[1]))
        return b, t, refined_value
    return b0, t0, start_value


def scan_and_refine(
    objective,
    box: SearchBox,
    m: int | None = None,
    n_candidates: int = 8,
) -> OptResult:
    """Grid scan plus local refinement of the leading basins."""
    scanned = grid_scan(objective, box, m=m, n_candidates=n_candidates)
    best = scanned.best
    for candidate in scanned.candidates:
        b, t, f = refine_local(
            objective, (candidate.B, candidate.t), box,
            k=candidate.k, lam=candidate.lam,
        )
        point = replace(candidate, B=b, t=t, F=f)
        if _better(point, best):
            best = point
    return replace(scanned, best=best, refined=True, candidates=scanned.candidates)


@dataclass(frozen=True)
class Table1Row:
    """One row of the XX-model search table."""

    M: int
    k: int
    B: float
    t: float
    f_max: float
    f_optimal: float
    f_reference: float
    deviation: float
    flagged: bool
    evaluations: int


def _xx_objective(M: int):
    def objective(k, lam, b, t):
        return xx_fidelity(M, k, b, t)

    return objective


def reproduce_table1(
    ms=tuple(range(2, 9)),
    n_b: int = 201,
    n_t: int = 30001,
    refine: bool = True,
    n_candidates: int = 8,
) -> list[Table1Row]:
    """Maximize the XX-model fidelity over the reference box for each M.

    Searches B in [0.01, 1], t in [0, 300] and k in 0..M, refines the
    leading basins, and compares against the stored reference maxima: any
    row deviating by more than 1e-4 (in either direction) is flagged but
    still reported.
    """
    rows: list[Table1Row] = []
    for M in ms:
        if M not in XX_REFERENCE_MAXIMA:
            raise ValueError(f"no reference row for M = {M}")
        box = SearchBox(
            b_range=(0.01, 1.0),
            t_range=(0.0, 300.0),
            lam=0.0,
            k_candidates=tuple(range(M + 1)),
            n_b=n_b,
            n_t=n_t,
        )
        objective = _xx_objective(M)
        if refine:
            result = scan_and_refine(objective, box, m=M, n_candidates=n_candidates)
        else:
            result = grid_scan(objective, box, m=M)
        best = result.best
        f_reference = XX_REFERENCE_MAXIMA[M][0]
        deviation = best.F - f_reference
        rows.append(
            Table1Row(
                M=M,
                k=best.k,
                B=best.B,
                t=best.t,
                f_max=best.F,
                f_optimal=optimal_pcc_bound(M),
                f_reference=f_reference,
                deviation=deviation,
                flagged=abs(deviation) > _REFERENCE_FLAG_TOL,
                evaluations=result.evaluations,
            )
        )
    return rows
