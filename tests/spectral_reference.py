"""Closed-form spectrum of the star's 2x2 sector blocks: an independent test reference.

The library propagates each block { |0>|j, m-1>, |1>|j, m> } of the maximal
outer multiplet j = M/2 from its matrix elements (``_block_elements``).  This
module describes the same blocks a second way, by their eigenpairs in closed
form and the energies of the two stationary edge states, so the tests can
check the propagator and the dense Hamiltonian against the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from starclone.errors import FormulaInconsistencyError
from starclone.hilbert import StateVector, prepare_initial
from starclone.star_model import ModelParams, _block_elements


@dataclass(frozen=True)
class SectorBlock:
    """One 2x2 invariant block over { |0>|j, m-1>, |1>|j, m> }.

    h01 = sqrt((j+m)(j-m+1)) is the collective flip-flop element; the
    diagonal entries collect the Ising and field terms on the two basis kets.
    """

    j: float
    m: float
    h00: float
    h01: float
    h11: float

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.h00, self.h01], [self.h01, self.h11]], dtype=np.float64
        )

    def gap(self) -> float:
        """Eigenvalue splitting sqrt((h00 - h11)^2 + 4 h01^2)."""
        return math.hypot(self.h00 - self.h11, 2.0 * self.h01)


@dataclass(frozen=True, eq=False)
class BlockEigensystem:
    """Eigenvalues and orthonormal eigenvectors of a sector block."""

    e_plus: float
    e_minus: float
    vec_plus: np.ndarray
    vec_minus: np.ndarray

    def __post_init__(self) -> None:
        self.vec_plus.setflags(write=False)
        self.vec_minus.setflags(write=False)


@dataclass(frozen=True)
class EdgeState:
    """Stationary one-dimensional sector at the top or bottom of the ladder.

    top: |0>|j, j>  (central |0>, all outer spins up, k = M)
    bottom: |1>|j, -j>  (central |1>, all outer spins down, k = 0)
    """

    params: ModelParams
    which: str
    central_bit: int
    k: int
    energy: float

    def expand(self) -> StateVector:
        alpha, beta = (1.0, 0.0) if self.central_bit == 0 else (0.0, 1.0)
        return prepare_initial(alpha, beta, self.params.M, self.k)


def sector_block(params: ModelParams, m: float) -> SectorBlock:
    """The 2x2 block labelled by m on the j = M/2 multiplet.

    Valid for -j + 1 <= m <= j (both basis kets exist); the one-dimensional
    extremes are covered by edge_eigenstate instead.
    """
    j = params.j_outer
    m = float(m)
    if abs((m + j) - round(m + j)) > 1e-9:
        raise ValueError(f"m = {m!r} is not a valid magnetization for j = {j!r}")
    if not (-j + 1.0 <= m <= j):
        raise ValueError(
            f"m = {m!r} outside the two-dimensional range [{-j + 1.0}, {j}]"
        )
    return SectorBlock(j, m, *_block_elements(params, m))


def block_eigensystem(block: SectorBlock, lam: float, B: float) -> BlockEigensystem:
    """Closed-form eigenpairs of a sector block.

    E_pm = ( -lam + (2m-1) B  +-  sqrt(lam^2 (2m-1)^2 + 4 h01^2) ) / 2,
    with eigenvectors proportional to (1, a_pm),
    a_pm = (lam - 2 m lam +- sqrt(lam^2 (2m-1)^2 + 4 h01^2)) / (2 h01),
    normalized to unit length.
    """
    eps = block.h01
    if eps <= 0.0:
        raise FormulaInconsistencyError(
            "sector block with vanishing off-diagonal element: "
            "cannot happen for in-range m on the maximal multiplet"
        )
    m = block.m
    disc = math.sqrt(lam * lam * (2.0 * m - 1.0) ** 2 + 4.0 * eps * eps)
    e_plus = 0.5 * (-lam + (2.0 * m - 1.0) * B + disc)
    e_minus = 0.5 * (-lam + (2.0 * m - 1.0) * B - disc)
    a_plus = (lam - 2.0 * m * lam + disc) / (2.0 * eps)
    a_minus = (lam - 2.0 * m * lam - disc) / (2.0 * eps)
    vec_plus = np.array([1.0, a_plus]) / math.hypot(1.0, a_plus)
    vec_minus = np.array([1.0, a_minus]) / math.hypot(1.0, a_minus)
    return BlockEigensystem(e_plus, e_minus, vec_plus, vec_minus)


def edge_eigenstate(params: ModelParams, which: str) -> EdgeState:
    """Stationary edge state and its energy: 'top' or 'bottom' of the ladder."""
    j = params.j_outer
    if which == "top":
        energy = j * params.lam + (j + 0.5) * params.B
        return EdgeState(params, "top", central_bit=0, k=params.M, energy=energy)
    if which == "bottom":
        energy = j * params.lam - (j + 0.5) * params.B
        return EdgeState(params, "bottom", central_bit=1, k=0, energy=energy)
    raise ValueError(f"which must be 'top' or 'bottom', got {which!r}")
