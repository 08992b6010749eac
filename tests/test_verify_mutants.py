"""The shipped ``verify`` suites catch wrong kernels, not only tier-1 pytest.

``MUTANTS`` is a catalogue of plausible slips in the model and its kernels:
each entry names a function and gives a wrong stand-in for it.  The test
replaces every binding of that function in every ``starclone`` module, with
the dense eigensystem cache cleared, and requires at least one suite to FAIL
at each of seeds 0-2.  Each entry also names the cheapest suite expected to
catch it, which runs first.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from starclone import dynamics
from starclone.cloning import (
    _normal_form,
    fidelity_closed_form,
    kM_fidelity,
    pcc_fidelity,
    reduced_central,
    reduced_outer,
    xx_fidelity,
)
from starclone.hilbert import QubitDensityMatrix
from starclone.star_model import ModelParams, _block_elements, build_full_hamiltonian
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


def _pcc_terms(amp):
    """pcc_fidelity's two weights and two interference terms."""
    M, k = amp.params.M, amp.k
    return (math.sqrt(k * (M - k + 1)) / M, math.sqrt((M - k) * (k + 1)) / M,
            2.0 * (np.conj(amp.f1) * amp.g1).real, 2.0 * (np.conj(amp.f2) * amp.g2).real)


def _pcc_second_term_flipped(amp):
    w1, w2, r1, r2 = _pcc_terms(amp)
    return 0.25 * (2.0 + w1 * r1 - w2 * r2)


def _pcc_weights_swapped(amp):
    w1, w2, r1, r2 = _pcc_terms(amp)
    return 0.25 * (2.0 + w2 * r1 + w1 * r2)


def _block_field_flipped(params, m):
    return _block_elements(ModelParams(params.M, params.lam, -params.B), m)


def _block_h11_shifted(params, m):
    h00, h01, h11 = _block_elements(params, m)
    return h00, h01, h11 + 0.01 * params.lam


def _dense_lambda_flipped(params, *args, **kwargs):
    return build_full_hamiltonian(ModelParams(params.M, -params.lam, params.B), *args, **kwargs)


def _normal_form_q_flipped(M, k, lam):
    p_plus, p_minus, q, omega_plus, omega_minus = _normal_form(M, k, lam)
    return p_plus, p_minus, -q, omega_plus, omega_minus


def _normal_form_p_minus_flipped(M, k, lam):
    p_plus, p_minus, q, omega_plus, omega_minus = _normal_form(M, k, lam)
    return p_plus, -p_minus, q, omega_plus, omega_minus


# (id, original, wrong stand-in, the cheapest suite expected to catch it)
MUTANTS = [
    ("xx_fidelity", xx_fidelity, _xx_frequencies_swapped, "oracle"),
    ("kM_fidelity", kM_fidelity, _kM_lambda_flipped, "oracle"),
    ("reduced_outer", reduced_outer, _outer_coherence_conjugated, "universal"),
    ("reduced_central", reduced_central, _central_coherence_shrunk, "universal"),
    ("pcc_fidelity-second-sign", pcc_fidelity, _pcc_second_term_flipped, "oracle"),
    ("pcc_fidelity-weights", pcc_fidelity, _pcc_weights_swapped, "oracle"),
    ("block_elements-field-sign", _block_elements, _block_field_flipped, "oracle"),
    ("block_elements-h11", _block_elements, _block_h11_shifted, "universal"),
    ("build_full_hamiltonian-lambda-sign", build_full_hamiltonian, _dense_lambda_flipped,
     "ancilla-free"),
    ("normal_form-q-sign", _normal_form, _normal_form_q_flipped, "optimal-pcc"),
    ("normal_form-p_minus-sign", _normal_form, _normal_form_p_minus_flipped, "optimal-pcc"),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("original, mutant, suite", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_some_suite_fails_on_mutant(patch_bindings, original, mutant, suite, seed):
    patch_bindings(original, mutant)
    dynamics._dense_eigensystem.cache_clear()  # no eigensystem of the true model
    try:
        # the expected suite first: a caught mutant costs one suite run
        assert any(not run_suite(s, seed=seed).passed for s in (suite, *SUITE_NAMES))
    finally:
        dynamics._dense_eigensystem.cache_clear()  # none of the mutant's either
