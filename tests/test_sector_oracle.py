"""Dense oracle by magnetization sector: blocks, evolution, cache and capacity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from starclone import cli, dynamics, star_model
from starclone.cloning import make_clone_report
from starclone.dynamics import (
    _dense_eigensystem,
    amplitudes_from_brute_force,
    evolve_brute_force,
)
from starclone.errors import CapacityError, OracleInconsistencyError
from starclone.hilbert import StateVector, prepare_initial
from starclone.star_model import ModelParams, build_full_hamiltonian
from strategies import COUPLINGS, TIMES, tolerance


def random_params(rng, m):
    return ModelParams(m, float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))


def random_state(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


class TestSectorBlocks:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_blocks_equal_sub_blocks_of_full_matrix(self, m):
        params = random_params(np.random.default_rng(m), m)
        full = build_full_hamiltonian(params)
        popcount = np.bitwise_count(np.arange(full.matrix.shape[0]))
        for sector in range(m + 2):
            block = build_full_hamiltonian(params, sector=sector)
            expected = np.flatnonzero(popcount == sector)
            assert np.array_equal(block.basis, expected)
            assert block.matrix.shape[0] == math.comb(m + 1, sector)
            assert np.array_equal(block.matrix, full.matrix[np.ix_(expected, expected)])

    def test_full_basis_is_every_index(self):
        ham = build_full_hamiltonian(ModelParams(3, 0.4, -0.2))
        assert np.array_equal(ham.basis, np.arange(16))

    @pytest.mark.parametrize("sector", [-1, 5])
    def test_sector_out_of_range(self, sector):
        with pytest.raises(ValueError):
            build_full_hamiltonian(ModelParams(3, 0.0, 0.0), sector=sector)


class TestSectorEvolution:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @settings(max_examples=10)
    @given(lam=COUPLINGS, B=COUPLINGS, t=TIMES, seed=st.integers(0, 2**32 - 1))
    def test_matches_full_matrix_exponential(self, m, lam, B, t, seed):
        params = ModelParams(m, lam, B)
        psi0 = random_state(np.random.default_rng(seed), m + 1)
        reference = expm(-1j * t * build_full_hamiltonian(params).matrix)
        psi = evolve_brute_force(params, psi0, t)
        tol = tolerance(m, lam, B, t, 1e-10, (5, 5.0, 5.0, 20.0))
        assert np.abs(psi.amplitudes - reference @ psi0.amplitudes).max() < tol

    def test_cache_per_sector_across_times(self):
        params = ModelParams(5, 0.314159, -0.271828)
        psi0 = prepare_initial(0.6, 0.8, 5, 2)  # popcounts 3 and 4
        _dense_eigensystem.cache_clear()
        for t in (0.1, 0.2, 0.3):
            evolve_brute_force(params, psi0, t)
        info = _dense_eigensystem.cache_info()
        assert info.misses == 2
        assert info.hits == 4

    def test_largest_block_at_m10(self, monkeypatch):
        dims = []

        def recording_builder(params, max_qubits, sector=None):
            ham = build_full_hamiltonian(params, max_qubits, sector)
            dims.append((sector, ham.matrix.shape[0]))
            return ham

        monkeypatch.setattr(dynamics, "build_full_hamiltonian", recording_builder)
        _dense_eigensystem.cache_clear()
        report = make_clone_report(ModelParams(10, 1.3, 0.4), 5, 2.0, method="brute")
        _dense_eigensystem.cache_clear()
        assert len(report.per_qubit_fidelities) == 11
        assert all(sector is not None for sector, _ in dims)
        assert max(dim for _, dim in dims) == 462


class TestBruteTimeValidation:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_time_rejected(self, t):
        params = ModelParams(2, 0.5, 0.1)
        with pytest.raises(ValueError):
            evolve_brute_force(params, prepare_initial(1, 0, 2, 1), t)
        with pytest.raises(ValueError):
            amplitudes_from_brute_force(params, 1, t)


class TestCapacity:
    def test_small_ram_raises_before_allocation(self, monkeypatch):
        monkeypatch.setattr(star_model, "_physical_ram_bytes", lambda: 1 << 20)
        amplitudes_from_brute_force(ModelParams(7, 0.3, 0.2), 3, 1.0)
        with pytest.raises(CapacityError):
            amplitudes_from_brute_force(ModelParams(8, 0.3, 0.2), 4, 1.0)
        with pytest.raises(CapacityError):
            build_full_hamiltonian(ModelParams(8, 0.3, 0.2), sector=4)

    def test_large_time_array_raises_before_allocation(self, monkeypatch):
        # the phase matrix of 100,000 t in a 3-state sector needs 9.6 MB
        monkeypatch.setattr(star_model, "_physical_ram_bytes", lambda: 1 << 20)
        times = np.linspace(0.0, 10.0, 100_000)
        params = ModelParams(2, 0.3, 0.2)
        amplitudes_from_brute_force(params, 1, times[:100])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                amplitudes_from_brute_force(params, 1, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("m, k", [(6, 3), (10, 5)])
    def test_memory_estimate_bounds_the_measured_peak(self, monkeypatch, m, k):
        # the largest estimate checked must cover the phases of 2,000 t next to
        # the eigensystems of a cold cache, without overstating them by more than 4x
        estimates = []
        for module in (dynamics, star_model):
            monkeypatch.setattr(module, "_require_memory",
                                lambda need, what: estimates.append(need))
        _dense_eigensystem.cache_clear()
        tracemalloc.start()
        try:
            amplitudes_from_brute_force(ModelParams(m, 0.7, 0.3), k, np.linspace(0.0, 30.0, 2000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _dense_eigensystem.cache_clear()
        assert peak <= max(estimates) <= 4 * peak

    def test_oversized_request_allocates_nothing(self):
        # M = 40 is a 16 TiB state: the estimate must refuse it up front
        params = ModelParams(40, 0.3, 0.2)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                amplitudes_from_brute_force(params, 20, 1.0, max_qubits=64)
            with pytest.raises(CapacityError):
                make_clone_report(params, 20, 1.0, method="brute", max_qubits=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestOracleWork:
    def test_brute_scan_keeps_at_most_three_eigensystems(self, capsys):
        _dense_eigensystem.cache_clear()
        code = cli.main(["scan", "--m", "4", "--k", "2", "--lambda", "1",
                         "--method", "brute",
                         "--sweep", "b=0:1:50", "--sweep", "t=0:1:3"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 151
        assert _dense_eigensystem.cache_info().currsize <= 3

    @pytest.mark.parametrize("k, calls", [(0, 3), (1, 4), (2, 4), (3, 4), (4, 3)])
    def test_each_evolved_input_is_reused_for_its_overlap(self, monkeypatch, k, calls):
        count = []

        def counting(*args):
            count.append(args)
            return prepare_initial(*args)

        monkeypatch.setattr(dynamics, "prepare_initial", counting)
        amplitudes_from_brute_force(ModelParams(4, 0.3, 0.2), k, 1.0)
        assert len(count) == calls

    def test_brute_scan_calls_the_oracle_once_per_lambda_b(self, monkeypatch, capsys):
        calls = []

        def counting(params, k, t, *args, **kwargs):
            calls.append((params.lam, params.B, np.shape(t)))
            return amplitudes_from_brute_force(params, k, t, *args, **kwargs)

        monkeypatch.setattr(cli, "amplitudes_from_brute_force", counting)
        code = cli.main(["scan", "--m", "3", "--k", "1", "--method", "brute", "--b", "0.3",
                         "--sweep", "lambda=0:1:2", "--sweep", "t=0:5:7"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 2 * 7
        assert calls == [(0.0, 0.3, (7,)), (1.0, 0.3, (7,))]


class TestOracleResidual:
    def test_nan_eigenvalues_raise(self, monkeypatch):
        def nan_eigensystem(params, sector, max_qubits):
            basis, evals, evecs = _dense_eigensystem(params, sector, max_qubits)
            return basis, np.full_like(evals, np.nan), evecs

        monkeypatch.setattr(dynamics, "_dense_eigensystem", nan_eigensystem)
        for t in (1.0, np.array([0.5, 1.0, 2.0])):
            with pytest.raises(OracleInconsistencyError):
                amplitudes_from_brute_force(ModelParams(3, 0.4, 0.2), 1, t)

    def test_resolution_named_only_beyond_it(self, monkeypatch):
        # u * t * s = 2.2e-16 * 2 * 5(1 + 1e12 + 0.5) is far above the 1e-10 tolerance
        with pytest.raises(OracleInconsistencyError, match="outside the block") as err:
            amplitudes_from_brute_force(ModelParams(4, 1e12, 0.5), 2, 2.0)
        assert "beyond the dense route's resolution, t * s = 1e+13" in str(err.value)

        def nan_eigensystem(params, sector, max_qubits):
            basis, evals, evecs = _dense_eigensystem(params, sector, max_qubits)
            return basis, np.full_like(evals, np.nan), evecs

        monkeypatch.setattr(dynamics, "_dense_eigensystem", nan_eigensystem)
        with pytest.raises(OracleInconsistencyError, match="outside the block") as err:
            amplitudes_from_brute_force(ModelParams(3, 0.4, 0.2), 1, 1.0)
        assert "resolution" not in str(err.value)
