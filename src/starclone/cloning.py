"""Cloning fidelities, bounds and preset parameter sets for the spin star.

After free evolution the reduced state of one outer qubit depends only on
the four block amplitudes, and the equatorial fidelity depends only on the
two interference terms Re(f1* g1) and Re(f2* g2).  For every (M, k, lam) its
closed form is one normal form of four zero-phase cosines (see _normal_form):

    F = 1/2 + (p+ sin w+t + p- sin w-t) sin Bt + q (cos w-t - cos w+t) cos Bt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BlockAmplitudes,
    amplitudes_from_brute_force,
    evolve_analytic,
    evolve_brute_force,
)
from .errors import FormulaInconsistencyError
from .hilbert import QubitDensityMatrix, fidelity_pure, prepare_initial, reduce_qubit
from .star_model import DEFAULT_MAX_QUBITS, ModelParams, _require_point

__all__ = [
    "CloneReport",
    "PresetSpec",
    "reduced_outer",
    "reduced_central",
    "pcc_fidelity",
    "fidelity_closed_form",
    "state_bound",
    "optimal_pcc_bound",
    "xx_fidelity",
    "heisenberg_max_fidelity",
    "kM_fidelity",
    "preset_optimal",
    "preset_ancilla_free",
    "preset_k_equals_m",
    "universal_preset",
    "universal_clone_matrix",
    "bloch_amplitudes",
    "make_clone_report",
]

_METHODS = ("analytic", "closed-form", "brute")


def bloch_amplitudes(theta: float, phi: float) -> tuple[complex, complex]:
    """(alpha, beta) = (cos(theta/2), e^{i phi} sin(theta/2)); both angles finite."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"theta and phi must be finite, got {theta!r} and {phi!r}")
    return (
        complex(math.cos(theta / 2.0)),
        complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0),
    )


def reduced_outer(
    amp: BlockAmplitudes, alpha: complex, beta: complex
) -> QubitDensityMatrix:
    """Reduced density matrix of one outer qubit from the block amplitudes.

    All M outer qubits share this matrix by permutation symmetry of the
    initial state and the couplings.
    """
    M, k = amp.params.M, amp.k
    wa, wb = abs(alpha) ** 2, abs(beta) ** 2
    af1, af2 = abs(amp.f1) ** 2, abs(amp.f2) ** 2
    ag1, ag2 = abs(amp.g1) ** 2, abs(amp.g2) ** 2
    rho00 = (wa * (k * af1 + (k + 1) * af2) + wb * ((k - 1) * ag1 + k * ag2)) / M
    rho11 = (
        wa * ((M - k) * af1 + (M - k - 1) * af2)
        + wb * ((M - k + 1) * ag1 + (M - k) * ag2)
    ) / M
    rho01 = (
        alpha
        * np.conj(beta)
        * (
            math.sqrt(k * (M - k + 1)) * amp.f1 * np.conj(amp.g1)
            + math.sqrt((k + 1) * (M - k)) * amp.f2 * np.conj(amp.g2)
        )
        / M
    )
    trace = rho00 + rho11
    if not abs(trace - 1.0) <= 1e-9:  # a NaN trace fails too
        raise FormulaInconsistencyError(
            f"outer reduced matrix has trace {trace!r}"
        )
    return QubitDensityMatrix(rho00, rho01, rho11)


def reduced_central(
    amp: BlockAmplitudes, alpha: complex, beta: complex
) -> QubitDensityMatrix:
    """Reduced density matrix of the central qubit from the block amplitudes."""
    rho00 = abs(alpha * amp.f1) ** 2 + abs(beta * amp.g1) ** 2
    rho11 = abs(alpha * amp.f2) ** 2 + abs(beta * amp.g2) ** 2
    rho01 = alpha * np.conj(beta) * amp.f1 * np.conj(amp.g2)
    trace = rho00 + rho11
    if not abs(trace - 1.0) <= 1e-9:  # a NaN trace fails too
        raise FormulaInconsistencyError(
            f"central reduced matrix has trace {trace!r}"
        )
    return QubitDensityMatrix(rho00, rho01, rho11)


def pcc_fidelity(amp: BlockAmplitudes) -> float:
    """Equatorial-input fidelity of one outer clone.

    F = (1/4) { 2 + (sqrt(k(M-k+1))/M) 2 Re(f1* g1)
                  + (sqrt((M-k)(k+1))/M) 2 Re(f2* g2) },
    independent of the equatorial phase.
    """
    M, k = amp.params.M, amp.k
    term1 = math.sqrt(k * (M - k + 1)) / M * 2.0 * (np.conj(amp.f1) * amp.g1).real
    term2 = math.sqrt((M - k) * (k + 1)) / M * 2.0 * (np.conj(amp.f2) * amp.g2).real
    return 0.25 * (2.0 + term1 + term2)


def _normal_form(M: int, k: int, lam: float):
    """(p_plus, p_minus, q, omega_plus, omega_minus) of the closed form.

    With K1 = k(M-k+1), K2 = (M-k)(k+1) and the block gaps
    eta1 = sqrt(4 K2 + (M-2k-1)^2 lam^2), eta2 = sqrt(4 K1 + (M-2k+1)^2 lam^2):
    r1 = K1/eta2, r2 = K2/eta1, g1 = (M-2k-1) lam/eta1, g2 = (M-2k+1) lam/eta2,
    each 0 where its numerator is 0, the only place its gap can vanish;
    p+- = (+-r1 - r2)/(2M), q = (r2 g2 - r1 g1)/(2M), omega+- = (eta1 +- eta2)/2.
    """
    K1, K2 = k * (M - k + 1), (M - k) * (k + 1)
    d1, d2 = (M - 2 * k - 1) * lam, (M - 2 * k + 1) * lam
    # hypot, not sqrt of a sum: lam^2 would overflow for |lam| > 1e154
    eta1 = math.hypot(2.0 * math.sqrt(K2), d1)
    eta2 = math.hypot(2.0 * math.sqrt(K1), d2)
    r1, r2 = (K1 / eta2 if K1 else 0.0), (K2 / eta1 if K2 else 0.0)
    g1, g2 = (d1 / eta1 if d1 else 0.0), (d2 / eta2 if d2 else 0.0)
    two_m = 2.0 * M
    return (
        (r1 - r2) / two_m, -(r1 + r2) / two_m, (r2 * g2 - r1 * g1) / two_m,
        (eta1 + eta2) / 2.0, (eta1 - eta2) / 2.0,
    )


def _sine_amplitude(form, t):
    """a(t) = p+ sin(w+ t) + p- sin(w- t), the coefficient of sin Bt, from a _normal_form."""
    p_plus, p_minus, _q, omega_plus, omega_minus = form
    return p_plus * np.sin(omega_plus * t) + p_minus * np.sin(omega_minus * t)


def fidelity_closed_form(M: int, k: int, lam: float, B, t):
    """Closed-form equatorial fidelity of the XXZ star, vectorized in B and t.

    F = 1/2 + a(t) sin Bt + q (cos w-t - cos w+t) cos Bt with a(t) of _sine_amplitude
    and the coefficients of _normal_form; the cos Bt term runs only if q != 0.
    """
    t = _require_point(M, k, lam, B, t)
    form = _normal_form(M, k, lam)
    q, omega_plus, omega_minus = form[2:]
    B = B if isinstance(B, float) else np.asarray(B, dtype=np.float64)
    f = 0.5 + _sine_amplitude(form, t) * np.sin(B * t)
    if q:
        f = f + q * (np.cos(omega_minus * t) - np.cos(omega_plus * t)) * np.cos(B * t)
    return f


def state_bound(M: int, k: int) -> float:
    """Interference bound on the equatorial fidelity for initial weight k.

    F <= 1/2 + max(sqrt(k(M-k+1)), sqrt((M-k)(k+1))) / (2M).
    """
    _require_point(M, k)
    return 0.5 + max(
        math.sqrt(k * (M - k + 1)), math.sqrt((M - k) * (k + 1))
    ) / (2.0 * M)


def optimal_pcc_bound(M: int) -> float:
    """Best equatorial cloning fidelity over all symmetric initial states.

    1/2 + sqrt(M(M+2))/(4M) for even M, 1/2 + (M+1)/(4M) for odd M.
    """
    _require_point(M)
    if M % 2 == 0:
        return 0.5 + math.sqrt(M * (M + 2)) / (4.0 * M)
    return 0.5 + (M + 1) / (4.0 * M)


def xx_fidelity(M: int, k: int, B, t):
    """Equatorial fidelity of the isotropic-plane (lam = 0) star.

    The lam = 0 case of fidelity_closed_form: q = 0, so
    F = 1/2 + (p+ sin w+t + p- sin w-t) sin Bt.  Equivalently
    F = 1/2 + (gamma1 sin(gamma2 t) + gamma2 sin(gamma1 t)) sin(B t) / (4M)
    with gamma1/2 = sqrt(k(M-k+1)) +- sqrt((k+1)(M-k)).
    """
    return fidelity_closed_form(M, k, 0.0, B, t)


def heisenberg_max_fidelity(M: int, k: int) -> float:
    """Best equatorial fidelity of the isotropic (lam = 1) star.

    Attained at B = 0, t = pi/(M+1):
    F = 1/2 + 1/(M+1) - 2k(M-k) / (M (M+1)^2).
    """
    _require_point(M, k)
    return 0.5 + 1.0 / (M + 1) - 2.0 * k * (M - k) / (M * (M + 1) ** 2)


def kM_fidelity(M: int, lam: float, B, t):
    """Equatorial fidelity for the fully polarized initial register (k = M).

    The k = M case of fidelity_closed_form, with p+ = -p- = 1/(2R) and
    q = sign(lam)/(2R) for R = sqrt(4M + (M-1)^2 lam^2).  Equivalently
    F = 1/2 + {cos[(2B + (1+M)lam - R) t/2] - cos[(2B + (1+M)lam + R) t/2]} / (2R).
    Its maximum over (lam, B, t) is 1/2 + 1/(2 sqrt(M)), reached at lam = 0,
    B = sqrt(M), t = pi/(2 sqrt(M)).
    """
    return fidelity_closed_form(M, M, lam, B, t)


@dataclass(frozen=True)
class PresetSpec:
    """A named parameter set together with the fidelity it is claimed to reach."""

    name: str
    M: int
    k: int
    lam: float
    B: float
    t: float
    fidelity: float
    copies: int

    def params(self) -> ModelParams:
        return ModelParams(self.M, self.lam, self.B)


def preset_optimal(M: int) -> PresetSpec:
    """Parameter set achieving the optimal equatorial bound for M copies.

    even M: k = M/2, lam = sqrt(M(M+2)), B = 0, t = pi/sqrt(2M(M+2))
    odd M:  k = (M-1)/2, lam = sqrt(3(M+1)^2/4 + 1), B = (M+1)/2,
            t = pi/(M+1).
    """
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    if M % 2 == 0:
        return PresetSpec(
            name="pcc_even",
            M=M,
            k=M // 2,
            lam=math.sqrt(M * (M + 2)),
            B=0.0,
            t=math.pi / math.sqrt(2.0 * M * (M + 2)),
            fidelity=optimal_pcc_bound(M),
            copies=M,
        )
    return PresetSpec(
        name="pcc_odd",
        M=M,
        k=(M - 1) // 2,
        lam=math.sqrt(0.75 * (M + 1) ** 2 + 1.0),
        B=(M + 1) / 2.0,
        t=math.pi / (M + 1),
        fidelity=optimal_pcc_bound(M),
        copies=M,
    )


def preset_ancilla_free(M_outer: int) -> PresetSpec:
    """Parameter set turning the central qubit into an extra clone.

    For an even number of outer spins, k = M/2, lam = M + 2, B = 0 and
    t = pi/sqrt(2(M+1)(M+2)) leave all M + 1 single-qubit reduced matrices
    equal, with common equatorial fidelity 1/2 + (M+2)/(4(M+1)): the optimal
    bound for M + 1 copies.
    """
    if M_outer < 2 or M_outer % 2 != 0:
        raise ValueError(f"M_outer must be an even count >= 2, got {M_outer}")
    return PresetSpec(
        name="ancilla_free",
        M=M_outer,
        k=M_outer // 2,
        lam=float(M_outer + 2),
        B=0.0,
        t=math.pi / math.sqrt(2.0 * (M_outer + 1) * (M_outer + 2)),
        fidelity=0.5 + (M_outer + 2) / (4.0 * (M_outer + 1)),
        copies=M_outer + 1,
    )


def preset_k_equals_m(M: int) -> PresetSpec:
    """Best parameter set for the easy-to-prepare fully polarized register.

    lam = 0, B = sqrt(M), t = pi/(2 sqrt(M)) maximize the k = M family at
    F = 1/2 + 1/(2 sqrt(M)).
    """
    _require_point(M)
    return PresetSpec(
        name="kM_xx",
        M=M,
        k=M,
        lam=0.0,
        B=math.sqrt(M),
        t=math.pi / (2.0 * math.sqrt(M)),
        fidelity=0.5 + 0.5 / math.sqrt(M),
        copies=M,
    )


def universal_preset() -> PresetSpec:
    """Two-copy cloning that is optimal for every pure input state.

    M = 2, k = 1, lam = 2, B = 0, t = pi/(2 sqrt(3)) produce two clones with
    F = 5/6 regardless of the input Bloch vector.
    """
    return PresetSpec(
        name="universal_1to2",
        M=2,
        k=1,
        lam=2.0,
        B=0.0,
        t=math.pi / (2.0 * math.sqrt(3.0)),
        fidelity=5.0 / 6.0,
        copies=2,
    )


def universal_clone_matrix(alpha: complex, beta: complex) -> QubitDensityMatrix:
    """Outer-qubit state produced by the universal preset:

    rho = (1/6) [[5|a|^2 + |b|^2, 4 a b*], [4 a* b, |a|^2 + 5|b|^2]].
    """
    wa, wb = abs(alpha) ** 2, abs(beta) ** 2
    return QubitDensityMatrix(
        (5.0 * wa + wb) / 6.0,
        4.0 * alpha * np.conj(beta) / 6.0,
        (wa + 5.0 * wb) / 6.0,
    )


@dataclass(frozen=True)
class CloneReport:
    """Per-qubit cloning fidelities for one parameter point and input state.

    The model parameters and k are those of ``amplitudes``; t, the input
    angles and the method stay with the caller, who passed them in.
    """

    equatorial_fidelity: float
    input_fidelity: float
    per_qubit_fidelities: tuple[float, ...]
    amplitudes: BlockAmplitudes


def make_clone_report(
    params: ModelParams,
    k: int,
    t: float,
    theta: float = math.pi / 2.0,
    phi: float = 0.0,
    method: str = "analytic",
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> CloneReport:
    """Evaluate one cloning run and collect every per-qubit fidelity.

    method 'analytic' uses block propagation, 'closed-form' additionally
    sources the equatorial fidelity from the closed form (equatorial inputs
    only), 'brute' evolves the full register and partial-traces every qubit;
    its capacity check (in amplitudes_from_brute_force) runs before any
    2**(M+1) state is allocated.  Index 0 of per_qubit_fidelities is the
    central spin.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    alpha, beta = bloch_amplitudes(theta, phi)
    if method == "brute":
        amp = amplitudes_from_brute_force(params, k, t, max_qubits)
        equatorial = pcc_fidelity(amp)
        psi = evolve_brute_force(
            params, prepare_initial(alpha, beta, params.M, k), t, max_qubits
        )
        per_qubit = tuple(
            fidelity_pure(reduce_qubit(psi, q), alpha, beta)
            for q in range(params.n_qubits)
        )
        outer_fidelity = per_qubit[1]
    else:
        amp = evolve_analytic(params, k, t)
        outer_fidelity = fidelity_pure(reduced_outer(amp, alpha, beta), alpha, beta)
        central = fidelity_pure(reduced_central(amp, alpha, beta), alpha, beta)
        per_qubit = (central,) + (outer_fidelity,) * params.M
        if method == "closed-form":
            if abs(theta - math.pi / 2.0) > 1e-12:
                raise ValueError(
                    "closed-form method covers equatorial inputs only "
                    "(theta = pi/2)"
                )
            equatorial = float(fidelity_closed_form(params.M, k, params.lam, params.B, t))
        else:
            equatorial = pcc_fidelity(amp)
    return CloneReport(
        equatorial_fidelity=equatorial,
        input_fidelity=outer_fidelity,
        per_qubit_fidelities=per_qubit,
        amplitudes=amp,
    )
