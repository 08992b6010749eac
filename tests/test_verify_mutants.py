"""The shipped ``verify`` suites catch wrong kernels, not only tier-1 pytest.

``MUTANTS`` is a catalogue of plausible slips in the cloning kernels: each
entry names a function and gives a wrong stand-in for it.  The test patches
every binding of that name in ``starclone.cloning`` and ``starclone.verify``
and requires at least one suite to FAIL at each of seeds 0-2.  Each entry
also names the suite expected to catch it, which runs first.
"""

from __future__ import annotations

import numpy as np
import pytest

from starclone import cloning, verify
from starclone.cloning import _normal_form, fidelity_closed_form, reduced_central, reduced_outer
from starclone.hilbert import QubitDensityMatrix
from starclone.verify import SUITE_NAMES, run_suite


def _xx_frequencies_swapped(M, k, B, t):
    p_plus, p_minus, _q, omega_plus, omega_minus = _normal_form(M, k, 0.0)
    a = p_plus * np.sin(omega_minus * t) + p_minus * np.sin(omega_plus * t)
    return 0.5 + a * np.sin(B * t)


def _kM_lambda_flipped(M, lam, B, t):
    return fidelity_closed_form(M, M, -lam, B, t)


def _outer_coherence_conjugated(amp, alpha, beta):
    rho = reduced_outer(amp, alpha, beta)
    return QubitDensityMatrix(rho.rho00, np.conj(rho.rho01), rho.rho11)


def _central_coherence_shrunk(amp, alpha, beta):
    rho = reduced_central(amp, alpha, beta)
    return QubitDensityMatrix(rho.rho00, 0.9 * rho.rho01, rho.rho11)


# (name patched in starclone.cloning and starclone.verify, wrong stand-in,
#  the suite expected to catch it)
MUTANTS = [
    ("xx_fidelity", _xx_frequencies_swapped, "oracle"),
    ("kM_fidelity", _kM_lambda_flipped, "oracle"),
    ("reduced_outer", _outer_coherence_conjugated, "universal"),
    ("reduced_central", _central_coherence_shrunk, "universal"),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, mutant, suite", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_some_suite_fails_on_mutant(monkeypatch, name, mutant, suite, seed):
    for module in (cloning, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, mutant)
    # the expected suite first: a caught mutant costs one suite run
    assert any(not run_suite(s, seed=seed).passed for s in (suite, *SUITE_NAMES))
