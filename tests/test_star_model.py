"""Hamiltonian construction, sector blocks and their embedding into the full matrix."""

import math

import numpy as np
import pytest

from starclone.errors import CapacityError
from starclone.hilbert import prepare_initial
from starclone.star_model import ModelParams, build_full_hamiltonian

from spectral_reference import block_eigensystem, edge_eigenstate, sector_block

SQRT2 = math.sqrt(2.0)


def random_params(rng, m_max=6):
    return ModelParams(
        int(rng.integers(1, m_max + 1)),
        float(rng.uniform(-5, 5)),
        float(rng.uniform(-5, 5)),
    )


class TestFullHamiltonian:
    def test_single_bond_xx(self):
        ham = build_full_hamiltonian(ModelParams(1, 0.0, 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(ham.matrix, expected)

    def test_single_bond_heisenberg(self):
        ham = build_full_hamiltonian(ModelParams(1, 1.0, 0.0))
        expected = np.diag([0.5, -0.5, -0.5, 0.5]).astype(complex)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(ham.matrix, expected)

    def test_field_term(self):
        ham = build_full_hamiltonian(ModelParams(1, 0.0, 2.0))
        assert np.allclose(np.diag(ham.matrix), [2.0, 0.0, 0.0, -2.0], atol=0)

    def test_hermitian_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            ham = build_full_hamiltonian(random_params(rng))
            assert np.array_equal(ham.matrix, ham.matrix.conj().T)

    def test_magnetization_conservation_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            ham = build_full_hamiltonian(random_params(rng, m_max=5))
            dim = ham.matrix.shape[0]
            popcount = np.bitwise_count(np.arange(dim, dtype=np.uint64))
            different = popcount[:, None] != popcount[None, :]
            assert np.all(ham.matrix[different] == 0)

    def test_capacity_error_without_allocation(self):
        with pytest.raises(CapacityError):
            build_full_hamiltonian(ModelParams(15, 0.0, 0.0))
        with pytest.raises(CapacityError):
            build_full_hamiltonian(ModelParams(4, 0.0, 0.0), max_qubits=3)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(2, float("inf"), 0.0)


class TestSectorBlock:
    def test_m2_top_block_xx(self):
        block = sector_block(ModelParams(2, 0.0, 0.0), 1.0)
        assert block.h00 == 0.0
        assert block.h11 == 0.0
        assert abs(block.h01 - SQRT2) < 1e-15

    def test_m2_middle_block_heisenberg(self):
        block = sector_block(ModelParams(2, 1.0, 0.0), 0.0)
        assert block.h00 == -1.0
        assert block.h11 == 0.0
        assert abs(block.h01 - SQRT2) < 1e-15

    def test_gap_matches_numeric_eigenvalues(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params = random_params(rng)
            j = params.j_outer
            m = -j + 1 + float(rng.integers(0, params.M))
            block = sector_block(params, m)
            evals = np.linalg.eigvalsh(block.matrix())
            gap_formula = math.sqrt(
                params.lam**2 * (2 * m - 1) ** 2 + 4 * block.h01**2
            )
            assert abs((evals[1] - evals[0]) - gap_formula) < 1e-12
            assert abs(block.gap() - gap_formula) < 1e-12

    def test_out_of_range_m(self):
        params = ModelParams(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            sector_block(params, 2.0)  # m = j + 1 is the edge, not a block
        with pytest.raises(ValueError):
            sector_block(params, -1.0)
        with pytest.raises(ValueError):
            sector_block(params, 0.25)  # not in the half-integer ladder


class TestBlockEigensystem:
    def test_m2_top_block_xx(self):
        params = ModelParams(2, 0.0, 0.0)
        eig = block_eigensystem(sector_block(params, 1.0), 0.0, 0.0)
        assert abs(eig.e_plus - SQRT2) < 1e-15
        assert abs(eig.e_minus + SQRT2) < 1e-15
        assert np.allclose(np.abs(eig.vec_plus), [1 / SQRT2, 1 / SQRT2], atol=1e-15)
        assert np.allclose(np.abs(eig.vec_minus), [1 / SQRT2, 1 / SQRT2], atol=1e-15)

    def test_trace_identity_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            params = random_params(rng)
            j = params.j_outer
            m = -j + 1 + float(rng.integers(0, params.M))
            block = sector_block(params, m)
            eig = block_eigensystem(block, params.lam, params.B)
            trace = -params.lam + (2 * m - 1) * params.B
            assert abs((eig.e_plus + eig.e_minus) - trace) < 1e-12
            assert abs(np.dot(eig.vec_plus, eig.vec_plus) - 1) < 1e-12
            assert abs(np.dot(eig.vec_minus, eig.vec_minus) - 1) < 1e-12
            assert abs(np.dot(eig.vec_plus, eig.vec_minus)) < 1e-12

    def test_diagonalizes_block_matrix(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            params = random_params(rng)
            j = params.j_outer
            m = -j + 1 + float(rng.integers(0, params.M))
            block = sector_block(params, m)
            eig = block_eigensystem(block, params.lam, params.B)
            h = block.matrix()
            assert np.abs(h @ eig.vec_plus - eig.e_plus * eig.vec_plus).max() < 1e-12
            assert (
                np.abs(h @ eig.vec_minus - eig.e_minus * eig.vec_minus).max() < 1e-12
            )


class TestEdgeStates:
    def test_energies(self):
        top = edge_eigenstate(ModelParams(2, 1.0, 0.0), "top")
        assert top.energy == pytest.approx(1.0, abs=0)
        bottom = edge_eigenstate(ModelParams(3, 0.0, 2.0), "bottom")
        assert bottom.energy == pytest.approx(-4.0, abs=0)

    def test_edge_is_full_eigenstate(self):
        rng = np.random.default_rng(5)
        for which in ("top", "bottom"):
            params = random_params(rng, m_max=5)
            edge = edge_eigenstate(params, which)
            state = edge.expand().amplitudes
            ham = build_full_hamiltonian(params).matrix
            assert np.abs(ham @ state - edge.energy * state).max() < 1e-12

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            edge_eigenstate(ModelParams(2, 0.0, 0.0), "left")


class TestEmbeddingConsistency:
    """Sandwiching the full matrix between embedded block kets reproduces the block."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_entries_match_full_matrix(self, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng, m_max=6)
        ham = build_full_hamiltonian(params).matrix
        j = params.j_outer
        for k_upper in range(1, params.M + 1):
            m = k_upper - j  # block basis: |0>|S(M, k_upper - 1)>, |1>|S(M, k_upper)>
            block = sector_block(params, m)
            ket0 = prepare_initial(1, 0, params.M, k_upper - 1).amplitudes
            ket1 = prepare_initial(0, 1, params.M, k_upper).amplitudes
            assert abs(np.vdot(ket0, ham @ ket0) - block.h00) < 1e-12
            assert abs(np.vdot(ket1, ham @ ket1) - block.h11) < 1e-12
            assert abs(np.vdot(ket0, ham @ ket1) - block.h01) < 1e-12

    def test_block_spectrum_inside_full_spectrum(self):
        rng = np.random.default_rng(6)
        for _ in range(4):
            params = random_params(rng, m_max=6)
            ham = build_full_hamiltonian(params).matrix
            spectrum = np.linalg.eigvalsh(ham)
            energies = [
                edge_eigenstate(params, "top").energy,
                edge_eigenstate(params, "bottom").energy,
            ]
            j = params.j_outer
            for k_upper in range(1, params.M + 1):
                eig = block_eigensystem(
                    sector_block(params, k_upper - j), params.lam, params.B
                )
                energies.extend([eig.e_plus, eig.e_minus])
                # the embedded eigenvectors are full eigenvectors too
                ket0 = prepare_initial(1, 0, params.M, k_upper - 1).amplitudes
                ket1 = prepare_initial(0, 1, params.M, k_upper).amplitudes
                for vec, energy in (
                    (eig.vec_plus, eig.e_plus),
                    (eig.vec_minus, eig.e_minus),
                ):
                    embedded = vec[0] * ket0 + vec[1] * ket1
                    assert (
                        np.abs(ham @ embedded - energy * embedded).max() < 1e-10
                    )
            for energy in energies:
                assert np.abs(spectrum - energy).min() < 1e-10
