"""Constrained fidelity maximization over a (B, t) search box.

Two searches share one tie rule (largest F, then smaller t, B, k and lam).

The XX box (lam = 0, all k) is solved exactly by xx_box_maximum.  There
F = 1/2 + a(t) sin Bt, and a'(t) = (K1 - K2)/(2M) cos(sqrt(K1) t) cos(sqrt(K2) t)
with K1 = k(M-k+1), K2 = (M-k)(k+1).  Once the phase arc [lo t, hi t] spans
a full period, the maximum over B is 1/2 + |a(t)|, so the maximum over t sits
at an enumerable critical point of a.  Only the short stretch before that
needs a 1-D search, certified by a Lipschitz bound (Piyavskii 1972; Shubert
1972, SIAM J. Numer. Anal. 9:379).  reproduce_table1 runs it for the paper
box.

A generic objective goes through a dense Cartesian grid scan with a
deterministic argmax, followed by derivative-free simplex refinement clipped
to the box.  The scan is serial: for each k it evaluates the B rows
in blocks, one objective call per block, so a kernel computes its
B-independent factors once per block.  Objectives are callables
``objective(k, lam, B, t)``.  The grid scan passes a column of B values,
shape (n, 1), against the 1-D t row and expects exactly an (n, n_t) array
back; refinement passes scalars.  Plain numpy ufunc arithmetic in B and t
satisfies both.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .cloning import _normal_form, _sine_amplitude, optimal_pcc_bound, state_bound, xx_fidelity
from .star_model import _require_memory, _require_point

__all__ = [
    "XX_REFERENCE_MAXIMA",
    "SearchBox",
    "BestPoint",
    "OptResult",
    "BoxMaximum",
    "Table1Row",
    "grid_scan",
    "refine_local",
    "scan_and_refine",
    "xx_box_maximum",
    "reproduce_table1",
]

WORKERS_ENV_VAR = "STARCLONE_WORKERS"

# Reference maxima for the XX-model search box B in [0.01, 1], t in [0, 300],
# one row per network size M: (f_max, t, B, k).  They come from an earlier,
# coarser numerical search; the exact enumeration below finds slightly higher
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

# Smallest t separation of two refinement candidates of one k.
_CANDIDATE_SPACING = 0.5

_TWO_PI = 2.0 * math.pi

# Rounding allowance on a closed-form value of size <= 1: a few ulps.
_ROUND_SLACK = 1e-15

# A Lipschitz cell is settled once its bound is within this of the incumbent.
_CERT_TOL = 1e-10

# Bisection stops after this many rounds, or when more cells than this stay
# open in one round; the bound of every open cell then enters f_upper.
_MAX_ROUNDS = 60
_MAX_OPEN_CELLS = 2**16


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


def _as_range(name: str, pair, floor: float = -math.inf) -> tuple[float, float]:
    if np.shape(pair) != (2,):
        raise ValueError(f"{name} must be two values (lo, hi), got {pair!r}")
    lo, hi = (float(pair[0]), float(pair[1]))
    if not (-math.inf < lo <= hi < math.inf and math.isfinite(hi - lo)):
        raise ValueError(
            f"{name} must be finite with lo <= hi and a finite width, got ({lo!r}, {hi!r})")
    if lo < floor:
        raise ValueError(f"{name} must have lo >= {floor!r}, got ({lo!r}, {hi!r})")
    return lo, hi


@dataclass(frozen=True)
class SearchBox:
    """Constraint box and grid resolution for the fidelity search at one lam.

    The box and grid defaults are those of the ``optimize`` command: B in
    [0.01, 1] on 201 points, t in [0, 300] on 30,001 points.
    """

    b_range: tuple[float, float] = (0.01, 1.0)
    t_range: tuple[float, float] = (0.0, 300.0)
    lam: float = 0.0
    k_candidates: tuple[int, ...] = (0,)
    n_b: int = 201
    n_t: int = 30001
    refine_iters: int = 400
    refine_tol: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_range", _as_range("b_range", self.b_range))
        object.__setattr__(self, "t_range", _as_range("t_range", self.t_range, 0.0))
        if any(isinstance(k, bool) or not isinstance(k, (int, np.integer))
               for k in self.k_candidates):
            raise ValueError(f"k_candidates must be integers, got {self.k_candidates!r}")
        ks = tuple(sorted({int(k) for k in self.k_candidates}))
        if not ks:
            raise ValueError("k_candidates must not be empty")
        object.__setattr__(self, "k_candidates", ks)
        if self.n_b < 2 or self.n_t < 2:
            raise ValueError("grid counts n_b and n_t must be >= 2")
        if np.ndim(self.lam) or not math.isfinite(self.lam):
            raise ValueError(f"lam must be one finite value, got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be positive")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be >= 1")
        rows = len(ks) * self.n_b
        block = min(self.n_b, max(1, _BLOCK_ELEMENTS // self.n_t))
        # the t grid and one block of B rows, each with a few kernel
        # temporaries, plus a ranked record per (k, B) row
        _require_memory(
            64 * self.n_t * (1 + block) + 384 * rows,
            f"a grid scan of {rows} B rows by {self.n_t} t points",
        )

    def b_grid(self) -> np.ndarray:
        return np.linspace(self.b_range[0], self.b_range[1], self.n_b)

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.n_t)


@dataclass(frozen=True)
class BestPoint:
    """One evaluated parameter point and its fidelity."""

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
    n_candidates: int = 1,
) -> OptResult:
    """Exhaustive evaluation of the box grid at ``box.lam`` with a deterministic argmax.

    ``n_candidates`` > 1 additionally returns up to that many grid points in
    total for multi-start refinement: the best ranked row maxima, at most one
    per t-basin (points at least 0.5 apart in t) of each k.
    ``n_candidates`` < 1 raises ValueError.
    """
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    t_grid = box.t_grid()
    b_grid = box.b_grid()
    per_block = max(1, _BLOCK_ELEMENTS // t_grid.size)
    lam = box.lam
    points: list[BestPoint] = []
    best: BestPoint | None = None
    for k in box.k_candidates:
        for start in range(0, b_grid.size, per_block):
            bs = b_grid[start : start + per_block]
            values = np.asarray(objective(k, lam, bs[:, None], t_grid), dtype=np.float64)
            if values.shape != (bs.size, t_grid.size):
                raise ValueError(
                    "objective must return one value per (B, t) sample, got "
                    f"shape {values.shape} for {bs.size} B by {t_grid.size} t"
                )
            idx = np.argmax(values, axis=1)  # first maximum: smallest t wins exact ties
            new_best = None
            for j, (b, i) in enumerate(zip(bs.tolist(), idx.tolist())):
                point = BestPoint(k, lam, b, float(t_grid[i]), float(values[j, i]))
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
    """Top ranked points of one lam, at most one per t-basin of each k."""
    chosen: list[BestPoint] = []
    for point in ranked:
        if len(chosen) >= n_candidates:
            break
        clash = any(
            c.k == point.k and abs(c.t - point.t) < _CANDIDATE_SPACING for c in chosen
        )
        if not clash:
            chosen.append(point)
    return tuple(chosen)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call.

    Only refinement needs scipy.optimize, which would otherwise be most of
    the package's import time.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def refine_local(
    objective,
    start: tuple[float, float],
    box: SearchBox,
    k: int,
    lam: float,
) -> tuple[float, float, float]:
    """Simplex ascent from ``start`` = (B, t) at fixed (k, lam), clipped to the box.

    Stops once the simplex spread drops below ``box.refine_tol`` or after
    ``box.refine_iters`` iterations; the returned fidelity never falls below
    the start value.
    """
    b0, t0 = float(start[0]), float(start[1])
    if not (box.b_range[0] <= b0 <= box.b_range[1]) or not (
        box.t_range[0] <= t0 <= box.t_range[1]
    ):
        raise ValueError(f"start {start!r} lies outside the search box")

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
    n_candidates: int = 8,
) -> OptResult:
    """Grid scan plus local refinement of the leading basins."""
    scanned = grid_scan(objective, box, n_candidates=n_candidates)
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
class BoxMaximum:
    """Maximum of a box with a certificate: no point of the box has F > f_upper."""

    best: BestPoint
    f_upper: float


def _arc_max(a: np.ndarray, t: np.ndarray, lo: float, hi: float):
    """(g, B): g = max over B in [lo, hi] of a sin(Bt) per t, and a B attaining it.

    g is |a| when the phase arc [lo t, hi t] holds a peak phase phi + 2 pi n
    (phi = pi/2 for a >= 0, 3 pi/2 otherwise); B is then the smallest such
    peak over t.  Otherwise g is the better edge, lo on a tie.
    """
    phi = np.where(a >= 0.0, 0.5 * math.pi, 1.5 * math.pi)
    phase = phi + _TWO_PI * np.ceil((lo * t - phi) / _TWO_PI)
    holds = (t > 0.0) & (phase <= hi * t)
    at_lo, at_hi = a * np.sin(lo * t), a * np.sin(hi * t)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 never holds
        peak_b = np.clip(phase / t, lo, hi)  # rounding can step past an edge
    b = np.where(holds, peak_b, np.where(at_hi > at_lo, hi, lo))
    return np.where(holds, np.abs(a), np.maximum(at_lo, at_hi)), b


def _critical_times(squares: tuple[int, int], t_lo: float, t_hi: float) -> np.ndarray:
    """The zeros t = (2n+1) pi / (2 sqrt K) of cos(sqrt(K) t) in [t_lo, t_hi], K in squares."""
    times = [np.empty(0)]
    for K in squares:
        if K:
            w = math.sqrt(K)
            n = np.arange(max(0, math.floor(t_lo * w / math.pi - 0.5)),
                          math.ceil(t_hi * w / math.pi - 0.5) + 1)
            times.append((2 * n + 1) * (0.5 * math.pi / w))
    t = np.concatenate(times)
    return t[(t >= t_lo) & (t <= t_hi)]  # filter after rounding


def _best_of(M: int, k: int, b: np.ndarray, t: np.ndarray,
             incumbent: BestPoint | None) -> BestPoint | None:
    """The better of the incumbent and the best (b, t) of this k by the tie rule.

    The winner's F is xx_fidelity at its own scalar point, so a reported
    maximum re-evaluates to the same bits.
    """
    f = np.asarray(xx_fidelity(M, k, b, t))
    top = np.flatnonzero(f == f.max())
    i = top[np.lexsort((b[top], t[top]))[0]]
    B, T = float(b[i]), float(t[i])
    point = BestPoint(k, 0.0, B, T, float(xx_fidelity(M, k, B, T)))
    return point if _better(point, incumbent) else incumbent


def xx_box_maximum(
    M: int,
    b_range: tuple[float, float] = (0.01, 1.0),
    t_range: tuple[float, float] = (0.0, 300.0),
    n_t: int = 30001,
) -> BoxMaximum:
    """Certified maximum of the XX fidelity over k in 0..M and a (B, t) box.

    For t >= T0 = 2 pi/(hi - lo) the maximum over B is 1/2 + |a(t)| exactly,
    so only the critical points of a, T0 and the range ends are candidates.
    On [t_lo, min(T0, t_hi)] the maximum over B, g(t), is taken exactly on an
    ``n_t``-point seed grid plus the critical points, and certified with the
    Lipschitz constant L = |K1 - K2|/(2M) + max(|lo|, |hi|)(|p+| + |p-|):
    a cell whose bound exceeds the incumbent by more than 1e-10 is bisected,
    and every bound is capped by state_bound(M, k).  Each point is evaluated
    through xx_fidelity; ties go by BestPoint.tie_key.
    """
    lo, hi = _as_range("b_range", b_range)
    t_lo, t_hi = _as_range("t_range", t_range, 0.0)
    _require_point(M, 0, 0.0, np.array([lo, hi]), np.array([t_lo, t_hi]))
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    t0 = _TWO_PI / (hi - lo) if hi > lo else math.inf
    t_mid = min(t0, t_hi)
    w_max = math.sqrt(max(k * (M - k + 1) for k in range(M + 1)))
    # one k at a time: the seed grid and the critical times, ~12 float arrays
    _require_memory(96 * (n_t + 2 * math.ceil(t_hi * w_max / math.pi + 2)),
                    f"an XX box search with a {n_t}-point seed grid")

    best: BestPoint | None = None
    upper, cells = -math.inf, []
    for k in range(M + 1):
        form = _normal_form(M, k, 0.0)
        K1, K2 = k * (M - k + 1), (M - k) * (k + 1)
        seed = np.linspace(t_lo, t_mid, n_t) if t_lo <= t_mid else np.empty(0)
        ends = [t_lo, t_hi] + ([t0] if t_lo < t0 < t_hi else [])
        t = np.concatenate([seed, _critical_times((K1, K2), t_lo, t_hi), ends])
        a = _sine_amplitude(form, t)
        g, b = _arc_max(a, t, lo, hi)
        best = _best_of(M, k, b, t, best)
        cap = state_bound(M, k)
        full = t >= t0  # a full period of phase: the enumeration is exact
        if full.any():
            upper = max(upper, min(cap, 0.5 + float(np.abs(a[full]).max()) + _ROUND_SLACK))
        if seed.size:
            lip = abs(K1 - K2) / (2.0 * M) + max(abs(lo), abs(hi)) * (abs(form[0]) + abs(form[1]))
            cells.append((k, form, lip, cap, seed[:-1], seed[1:], g[:n_t - 1], g[1:n_t]))

    # bisection starts once every k has offered its candidates: the best
    # incumbent closes the most cells
    for k, form, lip, cap, tl, tr, gl, gr in cells:
        for _round in range(_MAX_ROUNDS + 1):
            bound = np.minimum(
                cap, 0.5 + 0.5 * (gl + gr) + 0.5 * lip * (tr - tl) + _ROUND_SLACK)
            live = bound > best.F + _CERT_TOL
            upper = max(upper, float(bound[~live].max(initial=-math.inf)))
            if not live.any():
                break
            if _round == _MAX_ROUNDS or np.count_nonzero(live) > _MAX_OPEN_CELLS:
                upper = max(upper, float(bound[live].max()))
                break
            tl, tr, gl, gr = tl[live], tr[live], gl[live], gr[live]
            tm = 0.5 * (tl + tr)
            gm, bm = _arc_max(_sine_amplitude(form, tm), tm, lo, hi)
            best = _best_of(M, k, bm, tm, best)
            tl, tr = np.concatenate([tl, tm]), np.concatenate([tm, tr])
            gl, gr = np.concatenate([gl, gm]), np.concatenate([gm, gr])
    assert best is not None
    return BoxMaximum(best=best, f_upper=max(upper, best.F))


@dataclass(frozen=True)
class Table1Row:
    """One row of the XX-model search table; f_upper certifies f_max."""

    M: int
    k: int
    B: float
    t: float
    f_max: float
    f_upper: float
    f_optimal: float
    f_reference: float
    deviation: float
    flagged: bool


def reproduce_table1(ms=tuple(range(2, 9)), n_t: int = 30001) -> list[Table1Row]:
    """Maximize the XX-model fidelity over the reference box for each M.

    Finds the certified maximum over B in [0.01, 1], t in [0, 300] and k in
    0..M with xx_box_maximum, ``n_t`` being its seed grid on [0, T0], and
    compares it against the stored reference maxima: any row deviating by
    more than 1e-4 (in either direction) is flagged but still reported.
    """
    rows: list[Table1Row] = []
    for M in ms:
        if M not in XX_REFERENCE_MAXIMA:
            raise ValueError(f"no reference row for M = {M}")
        result = xx_box_maximum(M, n_t=n_t)
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
                f_upper=result.f_upper,
                f_optimal=optimal_pcc_bound(M),
                f_reference=f_reference,
                deviation=deviation,
                flagged=abs(deviation) > _REFERENCE_FLAG_TOL,
            )
        )
    return rows
