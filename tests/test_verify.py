"""Verification suites: a NaN residual or an empty sample must never PASS."""

import math

import numpy as np
import pytest

from starclone import cli, verify
from starclone.hilbert import reduce_qubit
from starclone.verify import Check, run_suite


class TestCheck:
    def test_passed_is_a_python_bool(self):
        assert Check("numpy residual", np.float64(1e-12), 1e-10).passed is True
        assert Check("numpy residual", np.float64(1.0), 1e-10).passed is False
        assert Check("nan residual", np.float64(math.nan), 1e-10).passed is False


class TestNanRoutes:
    @pytest.mark.parametrize("suite", ["oracle", "bounds"])
    def test_nan_fidelity_fails_the_suite(self, monkeypatch, suite):
        monkeypatch.setattr(verify, "pcc_fidelity", lambda amp: math.nan)
        result = run_suite(suite, seed=0, trials=3)
        assert not result.passed
        assert any(math.isnan(check.residual) for check in result.failures())

    def test_nan_amplitudes_fail_the_oracle(self, monkeypatch):
        real = verify.evolve_analytic

        def nan_f1(params, k, t):
            amp = real(params, k, t)
            return type(amp)(params, k, complex(math.nan), amp.f2, amp.g1, amp.g2)

        monkeypatch.setattr(verify, "evolve_analytic", nan_f1)
        result = run_suite("oracle", seed=0, trials=3)
        assert not result.passed


class TestBoundAttainment:
    def test_raised_bound_fails_the_suite(self, monkeypatch):
        # an upper limit set too high passes every violation check
        real = verify.state_bound
        monkeypatch.setattr(verify, "state_bound", lambda M, k: real(M, k) + 0.05)
        for seed in range(3):
            assert not run_suite("bounds", seed=seed, trials=3).passed


class TestTrials:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(ValueError):
            run_suite("oracle", trials=trials)

    @pytest.mark.parametrize("suite", ["oracle", "universal", "bounds"])
    def test_trials_beyond_memory_exit_2_before_sampling(self, capsys, suite):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", suite, "--trials", "1000000000000"])
        assert exit_.value.code == 2
        assert "physical memory" in capsys.readouterr().err


class TestAncillaFree:
    def test_each_qubit_is_reduced_once(self, monkeypatch):
        calls = []

        def counting(psi, q):
            calls.append(q)
            return reduce_qubit(psi, q)

        monkeypatch.setattr(verify, "reduce_qubit", counting)
        result = run_suite("ancilla-free", seed=0)
        assert result.passed
        assert len(calls) == 3 + 5 + 7  # M_outer = 2, 4, 6: every qubit once
