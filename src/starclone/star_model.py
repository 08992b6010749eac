"""XXZ spin-star Hamiltonian: dense matrix form and analytic 2x2 sectors.

One central qubit couples identically to M outer qubits:

    H = (1/2) sum_{i=1..M} (sx_0 sx_i + sy_0 sy_i + lam * sz_0 sz_i)
        + (B/2) sum_{i=0..M} sz_i

with the exchange coupling fixed to 1, so times and fields are
dimensionless.  H conserves total magnetization, so in the computational
basis it is block diagonal over the sectors of fixed popcount (number of
one-bits); the dense builder assembles one such sector or the whole matrix.
On the maximal outer multiplet j = M/2 it splits further into 2x2 blocks
spanned by { |0>|j, m-1>, |1>|j, m> } plus two stationary edge states;
``_block_elements`` gives each block's matrix elements to the analytic
propagator in ``dynamics``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "ModelParams",
    "FullHamiltonian",
    "build_full_hamiltonian",
]

# 15 qubits (M = 14): the largest magnetization sector, C(15, 7) = 6435
# states, is the biggest dense block the oracle diagonalises.
DEFAULT_MAX_QUBITS = 15


def _require_point(M, k=0, lam=0.0, B=0.0, t=0.0) -> float | np.ndarray:
    """Raise ValueError unless (M, k, lam, B, t) lies in the model's domain.

    M is an integer >= 1 and k an integer in [0, M], a bool being neither;
    lam and B are finite, and t is finite and >= 0, elementwise for arrays.
    Every phase rate of the model is at most s = (M+1)(1 + |lam| + max|B|),
    so s and t * s must be finite too, or a phase would overflow into a NaN.
    Python scalars skip numpy; an array t costs one min/max pass.  Returns t
    as a float, or as a float64 array.
    """
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 1:
        raise ValueError(f"M must be an integer >= 1, got {M!r}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= M:
        raise ValueError(f"k must be an integer in [0, {M}], got {k!r}")
    for x in (lam, B):
        if not (math.isfinite(x) if isinstance(x, (float, int)) else np.isfinite(x).all()):
            raise ValueError(f"lam and B must be finite, got {lam!r} and {B!r}")
    if isinstance(t, (float, int)):
        lo = hi = t
    else:
        t = np.asarray(t, dtype=np.float64)
        lo, hi = t.min(initial=0.0), t.max(initial=0.0)  # a NaN propagates into both
    if not (0.0 <= lo and hi < math.inf):  # an array shows as its range, never its repr
        shown = (repr(t) if isinstance(t, (float, int))
                 else f"t in [{float(t.min())!r}, {float(t.max())!r}]")
        raise ValueError(f"t must be finite and >= 0, got {shown}")
    b_max = abs(B) if isinstance(B, (float, int)) else np.abs(B).max(initial=0.0)
    scale = (M + 1) * (1.0 + abs(lam) + float(b_max))
    if not math.isfinite(scale):  # t * s would read NaN at t = 0
        raise ValueError(f"the phase rate s = (M+1)(1 + |lam| + max|B|) overflows at "
                         f"lam = {float(lam)!r}, max|B| = {float(b_max)!r}")
    if not math.isfinite(float(hi) * scale):
        raise ValueError(
            f"the phase t * s overflows at t = {float(hi)!r}, "
            f"s = (M+1)(1 + |lam| + max|B|) = {scale:.3g}"
        )
    return float(t) if isinstance(t, (float, int)) else t


@dataclass(frozen=True)
class ModelParams:
    """Star-network parameters: M outer spins, anisotropy lam, field B (J = 1)."""

    M: int
    lam: float
    B: float

    def __post_init__(self) -> None:
        lam, B = float(self.lam), float(self.B)
        _require_point(self.M, lam=lam, B=B)
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "B", B)

    @property
    def n_qubits(self) -> int:
        return self.M + 1

    @property
    def j_outer(self) -> float:
        """Total spin of the symmetric outer multiplet, j = M/2."""
        return self.M / 2.0


@dataclass(frozen=True, eq=False)
class FullHamiltonian:
    """Dense Hermitian matrix of the star Hamiltonian on a set of basis states.

    ``basis`` holds the sorted computational-basis indices that label the
    rows and columns: all 2**(M+1) of them for the full matrix, or the
    states of one magnetization sector (fixed popcount) for a block.
    """

    matrix: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)
        self.basis.setflags(write=False)


def _physical_ram_bytes() -> float:
    """Physical memory reported by os.sysconf; unbounded where it reports none."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _require_capacity(
    n_qubits: int, max_qubits: int, block_dim: int | None = None
) -> None:
    """Raise CapacityError, before anything is allocated, if dense work won't fit.

    Two limits: ``max_qubits``, and a byte estimate of a few 2**n_qubits state
    vectors plus about four complex block_dim x block_dim matrices, checked
    against physical RAM.  ``block_dim`` defaults to the largest magnetization
    sector, C(n, n // 2).
    """
    if n_qubits > max_qubits:
        raise CapacityError(
            f"{n_qubits} qubits exceed the dense cap of {max_qubits} "
            f"(2**{n_qubits} states)"
        )
    if block_dim is None:
        block_dim = math.comb(n_qubits, n_qubits // 2)
    # complex128: input, output and projection states; H, eigenvectors, eigh workspace
    need = 16 * (8 * (1 << n_qubits) + 4 * block_dim**2)
    _require_memory(need, f"dense evolution of {n_qubits} qubits")


def _require_memory(need: int, what: str) -> None:
    """Raise CapacityError if ``need`` bytes exceed physical RAM."""
    ram = _physical_ram_bytes()
    if need > ram:
        gib = min(need, 2**1000) / 2**30  # exact ints; clipped so the float can't overflow
        raise CapacityError(
            f"{what} needs about {gib:.3g} GiB, "
            f"more than the {ram / 2**30:.3g} GiB of physical memory"
        )


def build_full_hamiltonian(
    params: ModelParams,
    max_qubits: int = DEFAULT_MAX_QUBITS,
    sector: int | None = None,
) -> FullHamiltonian:
    """Assemble the dense Hamiltonian, or its block on one magnetization sector.

    With ``sector`` (a popcount in [0, M + 1]) only the basis states with that
    many one-bits are kept; without it, all 2**(M+1) states, and the blocks
    between different sectors stay exactly zero.  Raises CapacityError when
    M + 1 exceeds ``max_qubits`` or the matrix would not fit in memory.
    """
    n = params.n_qubits
    if sector is not None and not 0 <= sector <= n:
        raise ValueError(f"sector popcount must lie in [0, {n}], got {sector!r}")
    dim = (1 << n) if sector is None else math.comb(n, sector)
    _require_capacity(n, max_qubits, dim)
    basis = np.arange(1 << n)
    if sector is not None:
        basis = basis[np.bitwise_count(basis) == sector]
    bits = (basis[:, None] >> np.arange(n)[None, :]) & 1
    z = 1.0 - 2.0 * bits  # sigma^z eigenvalue of each qubit, +1 for bit 0
    rows = np.arange(dim)
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    matrix[rows, rows] = 0.5 * params.lam * z[:, 0] * z[:, 1:].sum(axis=1) + (
        0.5 * params.B * z.sum(axis=1)
    )
    for i in range(1, n):
        src = rows[bits[:, 0] != bits[:, i]]
        dst = np.searchsorted(basis, basis[src] ^ (1 | (1 << i)))
        matrix[dst, src] += 1.0  # central-outer flip-flop, same popcount
    return FullHamiltonian(matrix, basis)


def _block_elements(params: ModelParams, m: float) -> tuple[float, float, float]:
    """(h00, h01, h11) of block m; one step past a ladder end h01 = 0.

    There (m = j + 1 or -j) the surviving ket's diagonal entry is its edge energy.
    """
    j = params.j_outer
    h01 = math.sqrt((j + m) * (j - m + 1.0))
    h00 = params.lam * (m - 1.0) + params.B * (m - 0.5)
    h11 = -params.lam * m + params.B * (m - 0.5)
    return h00, h01, h11
