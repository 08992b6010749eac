"""Named verification suites: residual checks runnable from CLI or tests.

Each suite returns the measured residuals next to their tolerances so a
caller can render per-check lines and decide an exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloning import (
    bloch_amplitudes,
    fidelity_closed_form,
    heisenberg_max_fidelity,
    kM_fidelity,
    optimal_pcc_bound,
    pcc_fidelity,
    preset_ancilla_free,
    preset_optimal,
    state_bound,
    universal_clone_matrix,
    universal_preset,
)
from .dynamics import amplitudes_from_brute_force, evolve_analytic, evolve_brute_force
from .hilbert import fidelity_pure, prepare_initial, reduce_qubit
from .star_model import ModelParams

__all__ = ["Check", "SuiteResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class Check:
    label: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)  # False for a NaN residual


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    seed: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(check for check in self.checks if not check.passed)


def _worst(residuals) -> float:
    """Largest residual, at least 0; unlike max(), a NaN anywhere propagates."""
    return float(np.max(np.fromiter(residuals, dtype=np.float64), initial=0.0))


def _oracle_samples(rng: np.random.Generator, trials: int, m_max: int,
                    lam_max: float, t_max: float):
    """Draws (M, k, lam, B, t) with M <= m_max, |lam| <= lam_max, |B| <= 5, t <= t_max."""
    for _ in range(trials):
        M = int(rng.integers(1, m_max + 1))
        k = int(rng.integers(0, M + 1))
        lam = float(rng.uniform(-lam_max, lam_max))
        B = float(rng.uniform(-5.0, 5.0))
        t = float(rng.uniform(0.0, t_max))
        yield M, k, lam, B, t


def suite_oracle(seed: int = 0, trials: int | None = None) -> SuiteResult:
    """Analytic block propagation against dense-evolution projections."""
    trials = 500 if trials is None else trials
    rng = np.random.default_rng(seed)
    amp_errors, closed_analytic, closed_dense = [], [], []
    for M, k, lam, B, t in _oracle_samples(rng, trials, 6, 5.0, 50.0):
        params = ModelParams(M, lam, B)
        analytic = evolve_analytic(params, k, t)
        dense = amplitudes_from_brute_force(params, k, t)
        amp_errors += (
            abs(analytic.f1 - dense.f1),
            abs(analytic.f2 - dense.f2),
            abs(analytic.g1 - dense.g1),
            abs(analytic.g2 - dense.g2),
        )
        closed = float(fidelity_closed_form(M, k, lam, B, t))
        closed_analytic.append(abs(closed - pcc_fidelity(analytic)))
        closed_dense.append(abs(closed - pcc_fidelity(dense)))
    return SuiteResult(
        "oracle",
        seed,
        (
            Check(
                f"block amplitudes vs dense projections ({trials} trials)",
                _worst(amp_errors),
                1e-10,
            ),
            Check("closed form vs block propagation", _worst(closed_analytic), 1e-9),
            Check("closed form vs dense projections", _worst(closed_dense), 1e-9),
        ),
    )


def suite_optimal_pcc(seed: int = 0, trials: int | None = None) -> SuiteResult:
    """The even/odd presets reach the optimal bound on both routes."""
    rng = np.random.default_rng(seed)
    checks = []
    for M in range(2, 9):
        preset = preset_optimal(M)
        bound = optimal_pcc_bound(M)
        closed = float(
            fidelity_closed_form(M, preset.k, preset.lam, preset.B, preset.t)
        )
        checks.append(
            Check(f"M={M} closed form vs optimal bound", abs(closed - bound), 1e-9)
        )
        alpha, beta = bloch_amplitudes(math.pi / 2.0, float(rng.uniform(0, 2 * math.pi)))
        psi = evolve_brute_force(
            preset.params(), prepare_initial(alpha, beta, M, preset.k), preset.t
        )
        dense = fidelity_pure(reduce_qubit(psi, 1), alpha, beta)
        checks.append(
            Check(f"M={M} dense evolution vs optimal bound", abs(dense - bound), 1e-8)
        )
    return SuiteResult("optimal-pcc", seed, tuple(checks))


def suite_universal(seed: int = 0, trials: int | None = None) -> SuiteResult:
    """Universal preset: input-independent clones at fidelity 5/6."""
    trials = 100 if trials is None else trials
    rng = np.random.default_rng(seed)
    preset = universal_preset()
    params = preset.params()
    matrix_errors = []
    fidelities = np.empty(trials)
    for i in range(trials):
        theta = math.acos(float(rng.uniform(-1.0, 1.0)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha, beta = bloch_amplitudes(theta, phi)
        psi = evolve_brute_force(
            params, prepare_initial(alpha, beta, preset.M, preset.k), preset.t
        )
        rho = reduce_qubit(psi, 1)
        reference = universal_clone_matrix(alpha, beta)
        matrix_errors.append(np.abs(rho.matrix - reference.matrix).max())
        fidelities[i] = fidelity_pure(rho, alpha, beta)
    return SuiteResult(
        "universal",
        seed,
        (
            Check(
                f"clone matrix vs closed form ({trials} random inputs)",
                _worst(matrix_errors),
                1e-10,
            ),
            Check(
                "fidelity vs 5/6", float(np.abs(fidelities - 5.0 / 6.0).max()), 1e-10
            ),
            Check("fidelity variance over inputs", float(fidelities.var()), 1e-20),
        ),
    )


def suite_ancilla_free(seed: int = 0, trials: int | None = None) -> SuiteResult:
    """Every qubit of the even-M ancilla-free scheme carries the same clone."""
    rng = np.random.default_rng(seed)
    checks = []
    for m_outer in (2, 4, 6):
        preset = preset_ancilla_free(m_outer)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha, beta = bloch_amplitudes(math.pi / 2.0, phi)
        psi = evolve_brute_force(
            preset.params(),
            prepare_initial(alpha, beta, m_outer, preset.k),
            preset.t,
        )
        rhos = [reduce_qubit(psi, q) for q in range(m_outer + 1)]
        spread = _worst(np.abs(rho.matrix - rhos[0].matrix).max() for rho in rhos)
        checks.append(Check(f"M_outer={m_outer} reduced-matrix spread", spread, 1e-10))
        worst_f = _worst(abs(fidelity_pure(r, alpha, beta) - preset.fidelity) for r in rhos)
        checks.append(
            Check(
                f"M_outer={m_outer} common fidelity vs (M+2)/(4(M+1)) bound",
                worst_f,
                1e-9,
            )
        )
    return SuiteResult("ancilla-free", seed, tuple(checks))


def suite_bounds(seed: int = 0, trials: int | None = None) -> SuiteResult:
    """Interference bound, its attainment, and the two fixed-coupling maxima."""
    trials = 500 if trials is None else trials
    rng = np.random.default_rng(seed)
    checks = []
    for box, label in (((6, 5.0, 50.0), ""), ((8, 10.0, 100.0), ", wide box")):
        violations = [
            pcc_fidelity(evolve_analytic(ModelParams(M, lam, B), k, t)) - state_bound(M, k)
            for M, k, lam, B, t in _oracle_samples(rng, trials, *box)
        ]
        checks.append(
            Check(
                f"interference bound violation{label} ({trials} samples)",
                _worst(violations),
                1e-10,
            )
        )
    heis_errors = []
    for M in range(1, 9):
        params = ModelParams(M, 1.0, 0.0)
        t = math.pi / (M + 1)
        alpha, beta = bloch_amplitudes(math.pi / 2.0, float(rng.uniform(0, 2 * math.pi)))
        for k in range(M + 1):
            psi = evolve_brute_force(params, prepare_initial(alpha, beta, M, k), t)
            dense = fidelity_pure(reduce_qubit(psi, 1), alpha, beta)
            heis_errors.append(abs(dense - heisenberg_max_fidelity(M, k)))
    checks.append(
        Check(
            "isotropic-coupling maximum vs dense evolution (M <= 8)",
            _worst(heis_errors),
            1e-9,
        )
    )
    worst_km = _worst(
        abs(
            float(kM_fidelity(M, 0.0, math.sqrt(M), math.pi / (2.0 * math.sqrt(M))))
            - (0.5 + 0.5 / math.sqrt(M))
        )
        for M in range(1, 10)
    )
    checks.append(
        Check("polarized-register maximizer vs 1/2 + 1/(2 sqrt M) (M <= 9)", worst_km, 1e-9)
    )
    # the violation checks above only bound F from above; a bound set too high fails here
    attained = _worst(
        abs(float(fidelity_closed_form(p.M, p.k, p.lam, p.B, p.t)) - state_bound(p.M, p.k))
        for p in map(preset_optimal, range(2, 9))
    )
    checks.append(
        Check("optimal presets attain the interference bound (2 <= M <= 8)", attained, 1e-12)
    )
    return SuiteResult("bounds", seed, tuple(checks))


_SUITES = {
    "optimal-pcc": suite_optimal_pcc,
    "universal": suite_universal,
    "ancilla-free": suite_ancilla_free,
    "oracle": suite_oracle,
    "bounds": suite_bounds,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> SuiteResult:
    """Run one named suite; unknown names and trials < 1 raise ValueError."""
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    try:
        runner = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    return runner(seed=seed, trials=trials)
