"""Free time evolution by two independent routes.

The analytic route propagates the two invariant 2x2 blocks that carry the
cloning initial state through one exact closed-form propagator (the
identity at t = 0, a pure phase at the ladder ends) and returns the four
transition amplitudes (f1, f2, g1, g2), at a scalar t or a whole t array in
one broadcast call.  The oracle route uses only the computational basis and
magnetization conservation: it eigendecomposes the dense Hamiltonian one
magnetization sector (fixed popcount) at a time, and projects the four
amplitudes inside the two sectors the inputs occupy, at a scalar or array t.
Both use the common phase convention exp(-i H t): no global phase is
stripped, because the relative phase between the two blocks enters the
cloning fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OracleInconsistencyError
from .hilbert import StateVector, prepare_initial
from .star_model import (
    DEFAULT_MAX_QUBITS,
    ModelParams,
    _block_elements,
    _require_capacity,
    _require_memory,
    _require_point,
    build_full_hamiltonian,
)

__all__ = [
    "BlockAmplitudes",
    "evolve_analytic",
    "evolve_brute_force",
    "amplitudes_from_brute_force",
]

ORACLE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class BlockAmplitudes:
    """Transition amplitudes of the evolved star state at one time or a t array.

    Starting from (alpha|0> + beta|1>)|S(M, k)>, the alpha component evolves
    into f1|0>|S(M,k)> + f2|1>|S(M,k+1)> and the beta component into
    g1|0>|S(M,k-1)> + g2|1>|S(M,k)>.  Each pair is unitary:
    |f1|^2 + |f2|^2 = |g1|^2 + |g2|^2 = 1.  With an array t all four are arrays.
    """

    params: ModelParams
    k: int
    f1: complex | np.ndarray
    f2: complex | np.ndarray
    g1: complex | np.ndarray
    g2: complex | np.ndarray

    def unitarity_defect(self):
        """Largest deviation of the two pair norms from 1, elementwise."""
        f_norm = abs(self.f1) ** 2 + abs(self.f2) ** 2
        g_norm = abs(self.g1) ** 2 + abs(self.g2) ** 2
        return np.maximum(abs(f_norm - 1.0), abs(g_norm - 1.0))


def _sinc(x):
    """sin(x)/x, exactly 1 at x = 0; unlike np.sinc, unscaled and cheap on scalars."""
    x = x + (x == 0.0) * 1e-300  # like np.sinc: sin(y)/y = 1 exactly for tiny y
    return np.sin(x) / x


def evolve_analytic(params: ModelParams, k: int, t) -> BlockAmplitudes:
    """Block-propagated amplitudes for (.)|S(M, k)> at a scalar or array t.

    alpha evolves by column 0 of block m = k + 1 - M/2, beta by column 1 of
    block m = k - M/2.  With h = c + d sz + eps sx, eta = 2 sqrt(d^2 + eps^2)
    and sinc(x) = sin(x)/x, exp(-i h t) = e^{-i c t} [cos(eta t/2)
    - i t sinc(eta t/2) (d sz + eps sx)] is exact for every t >= 0.  At k = M
    (k = 0) that block is one step past the ladder end: eps = 0, f2 (g1) is 0.
    """
    t = _require_point(params.M, k, params.lam, params.B, t)
    m = k - params.j_outer
    columns = []
    for block, sign in ((m + 1.0, 1.0), (m, -1.0)):
        h00, eps, h11 = _block_elements(params, block)
        c, d = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
        half_eta_t = math.hypot(d, eps) * t
        phase = np.exp(-1j * c * t)
        sin = -1j * phase * t * _sinc(half_eta_t)
        columns.append((phase * np.cos(half_eta_t) + sin * (sign * d), sin * eps))
    (f1, f2), (g2, g1) = columns  # each column lists its diagonal entry first
    return BlockAmplitudes(params, k, f1, f2, g1, g2)


# Each oracle input (alpha|0> + beta|1>)|S(M,k)> spans exactly sectors M-k and
# M-k+1, and scan makes one call per (lambda, B): two slots serve a sweep, and a
# k-ladder (the bounds suite) needs a third.  More pin 45 MiB a slot at M = 12.
@lru_cache(maxsize=3)
def _dense_eigensystem(
    params: ModelParams, sector: int, max_qubits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached (basis indices, eigenvalues, eigenvectors) of one sector block."""
    ham = build_full_hamiltonian(params, max_qubits, sector)
    evals, evecs = np.linalg.eigh(ham.matrix)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return ham.basis, evals, evecs


def evolve_brute_force(
    params: ModelParams,
    psi0: StateVector,
    t: float,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> StateVector:
    """psi(t) = exp(-i H t) psi0, eigendecomposing one sector at a time.

    Only the magnetization sectors that hold weight in psi0 are evolved;
    the others stay exactly zero.
    """
    if psi0.n_qubits != params.n_qubits:
        raise ValueError(
            f"state has {psi0.n_qubits} qubits but the model needs "
            f"{params.n_qubits}"
        )
    _require_point(params.M, lam=params.lam, B=params.B, t=t)
    psi = psi0.amplitudes
    popcount = np.bitwise_count(np.arange(psi.size))
    amplitudes = np.zeros_like(psi)
    for sector in np.unique(popcount[psi != 0]).tolist():
        basis, evals, evecs = _dense_eigensystem(params, sector, max_qubits)
        phases = np.exp(-1j * evals * t)
        amplitudes[basis] = evecs @ (phases * (evecs.conj().T @ psi[basis]))
    return StateVector(psi0.n_qubits, amplitudes)


def amplitudes_from_brute_force(
    params: ModelParams,
    k: int,
    t,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> BlockAmplitudes:
    """Amplitudes projected from dense evolution, at a scalar or array t.

    alpha's input and its partner |1>|S(M,k+1)> lie in sector M - k, beta's
    and |0>|S(M,k-1)> in sector M - k + 1.  With that sector's eigensystem
    (E, V), <b|exp(-iHt)|a> = sum_j conj(V^H b)_j (V^H a)_j exp(-i E_j t): one
    phase-matrix product for all t.  A unitarity defect above
    ORACLE_RESIDUAL_TOL, or a NaN, raises OracleInconsistencyError.
    """
    t = _require_point(params.M, k, params.lam, params.B, t)
    _require_capacity(params.n_qubits, max_qubits)
    M = params.M
    amplitudes = []
    for sector, own, partner in (  # alpha, then beta; no partner past a ladder end
        (M - k, prepare_initial(1, 0, M, k),
         prepare_initial(0, 1, M, k + 1) if k < M else None),
        (M - k + 1, prepare_initial(0, 1, M, k),
         prepare_initial(1, 0, M, k - 1) if k > 0 else None),
    ):
        basis, evals, evecs = _dense_eigensystem(params, sector, max_qubits)
        # the complex exponent and the phases: two n_t x dim complex arrays
        _require_memory(32 * np.size(t) * evals.size, f"{np.size(t)} time phases")
        phases = np.exp(np.multiply.outer(t, -1j * evals))
        own_coeffs = evecs.conj().T @ own.amplitudes[basis]
        amplitudes += [
            np.zeros(np.shape(t), dtype=np.complex128)[()] if ket is None else
            phases @ ((evecs.conj().T @ ket.amplitudes[basis]).conj() * own_coeffs)
            for ket in (own, partner)]
    f1, f2, g2, g1 = amplitudes
    amp = BlockAmplitudes(params, k, f1, f2, g1, g2)
    defect = np.max(amp.unitarity_defect(), initial=0.0)
    if not defect <= ORACLE_RESIDUAL_TOL:  # a NaN fails too
        shown = (f"t={t!r}" if isinstance(t, float)
                 else f"t in [{float(t.min())!r}, {float(t.max())!r}]")
        raise OracleInconsistencyError(
            f"weight {float(defect)!r} outside the block basis (M={M}, k={k}, {shown})"
        )
    return amp
