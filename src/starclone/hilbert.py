"""State vectors, symmetric (Dicke) states and single-qubit marginals.

Basis convention used across the package: bit i of a basis index encodes
qubit i, qubit 0 is the central spin of the star, and bit value 0 means the
sigma^z = +1 state |0>.  A network with M outer spins lives in dimension
2**(M+1); the outer register alone in 2**M, where bit i of an outer-only
index is outer qubit i+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormulaInconsistencyError
from .star_model import _require_point

__all__ = [
    "StateVector",
    "QubitDensityMatrix",
    "prepare_initial",
    "reduce_qubit",
    "fidelity_pure",
]

# Preparations and evolutions guarantee unit norm to ~1e-12; the class-level
# net is coarser so legitimate rounding never trips it.
_NORM_ATOL = 1e-8
_PAIR_NORM_ATOL = 1e-10
_TRACE_ATOL = 1e-9
_EIGENVALUE_FLOOR = -1e-12
_HERMITICITY_ATOL = 1e-10


def _require_normalized_pair(alpha: complex, beta: complex) -> None:
    weight = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(weight - 1.0) <= _PAIR_NORM_ATOL:  # a NaN weight fails too
        raise ValueError(
            f"(alpha, beta) must satisfy |alpha|^2 + |beta|^2 = 1, got {weight!r}"
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of ``n_qubits`` spins as ``2**n_qubits`` complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= _NORM_ATOL:  # a NaN norm fails too
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


class QubitDensityMatrix:
    """Hermitian, unit-trace 2x2 density matrix of a single qubit.

    ``rho10`` is held as the exact conjugate of ``rho01``.  Construction
    rejects matrices whose trace strays from 1 beyond 1e-9 or whose spectrum
    dips below -1e-12; each check is written so that a NaN entry fails it.
    """

    __slots__ = ("rho00", "rho01", "rho11")

    def __init__(self, rho00: complex, rho01: complex, rho11: complex) -> None:
        r00, r11 = complex(rho00), complex(rho11)
        if not (abs(r00.imag) <= _HERMITICITY_ATOL and abs(r11.imag) <= _HERMITICITY_ATOL):
            raise ValueError("diagonal entries of a density matrix must be real")
        self.rho00 = float(r00.real)
        self.rho01 = complex(rho01)
        self.rho11 = float(r11.real)
        trace = self.rho00 + self.rho11
        if not abs(trace - 1.0) <= _TRACE_ATOL:
            raise ValueError(f"trace must equal 1, got {trace!r}")
        if not self.eigenvalues()[0] >= _EIGENVALUE_FLOOR:
            raise ValueError(
                f"density matrix not positive semidefinite: {self.eigenvalues()}"
            )

    @property
    def rho10(self) -> complex:
        return np.conj(self.rho01)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.rho00, self.rho01], [self.rho10, self.rho11]],
            dtype=np.complex128,
        )

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues in ascending order (closed form for 2x2 Hermitian)."""
        mean = 0.5 * (self.rho00 + self.rho11)
        radius = math.hypot(0.5 * (self.rho00 - self.rho11), abs(self.rho01))
        return (mean - radius, mean + radius)

    def __repr__(self) -> str:
        return (
            f"QubitDensityMatrix(rho00={self.rho00!r}, "
            f"rho01={self.rho01!r}, rho11={self.rho11!r})"
        )


def prepare_initial(alpha: complex, beta: complex, M: int, k: int) -> StateVector:
    """Product state (alpha|0> + beta|1>) on the central spin times |S(M, k)>.

    The symmetric (Dicke) state |S(M, k)> of the M outer qubits, k of them in
    |0>, holds 1/sqrt(C(M, k)) on each outer index with exactly M - k one-bits.
    """
    _require_normalized_pair(alpha, beta)
    _require_point(M, k)
    support = np.bitwise_count(np.arange(1 << M, dtype=np.uint64)) == M - k
    outer = support / math.sqrt(math.comb(M, k))
    amplitudes = np.empty(1 << (M + 1), dtype=np.complex128)
    amplitudes[0::2] = alpha * outer  # central bit 0
    amplitudes[1::2] = beta * outer  # central bit 1
    return StateVector(M + 1, amplitudes)


def reduce_qubit(psi: StateVector, qubit_index: int) -> QubitDensityMatrix:
    """Partial trace onto one qubit (index 0 is the central spin)."""
    n = psi.n_qubits
    if not 0 <= qubit_index < n:
        raise ValueError(f"qubit index must lie in [0, {n - 1}], got {qubit_index}")
    tensor = psi.amplitudes.reshape((2,) * n)  # axis a holds qubit n-1-a
    rows = np.moveaxis(tensor, n - 1 - qubit_index, 0).reshape(2, -1)
    rho = rows @ rows.conj().T
    return QubitDensityMatrix(rho[0, 0], rho[0, 1], rho[1, 1])


def fidelity_pure(rho: QubitDensityMatrix, alpha: complex, beta: complex) -> float:
    """Overlap <psi|rho|psi> with the pure qubit state alpha|0> + beta|1>."""
    _require_normalized_pair(alpha, beta)
    pure = np.array([alpha, beta], dtype=np.complex128)
    value = complex(np.vdot(pure, rho.matrix @ pure))
    if abs(value.imag) > 1e-12:
        raise FormulaInconsistencyError(
            f"fidelity has imaginary residue {value.imag!r}"
        )
    return value.real
