"""Spin-star quantum cloning by free evolution.

A library plus CLI that simulates the XXZ spin-star network, evaluates
phase-covariant and universal cloning fidelities through independent
analytic and dense-evolution routes, and reproduces the optimal parameter
sets and the constrained XX-model search table.
"""

__version__ = "0.1.0"

from .cloning import (
    CloneReport,
    PresetSpec,
    bloch_amplitudes,
    fidelity_closed_form,
    heisenberg_max_fidelity,
    kM_fidelity,
    make_clone_report,
    optimal_pcc_bound,
    pcc_fidelity,
    preset_ancilla_free,
    preset_k_equals_m,
    preset_optimal,
    reduced_central,
    reduced_outer,
    state_bound,
    universal_clone_matrix,
    universal_preset,
    xx_fidelity,
)
from .dynamics import (
    BlockAmplitudes,
    amplitudes_from_brute_force,
    evolve_analytic,
    evolve_brute_force,
)
from .errors import CapacityError, FormulaInconsistencyError, OracleInconsistencyError
from .hilbert import (
    QubitDensityMatrix,
    StateVector,
    dicke_state,
    fidelity_pure,
    prepare_initial,
    reduce_qubit,
)
from .optimizer import (
    BestPoint,
    BoxMaximum,
    OptResult,
    SearchBox,
    Table1Row,
    XX_REFERENCE_MAXIMA,
    grid_scan,
    refine_local,
    reproduce_table1,
    scan_and_refine,
    xx_box_maximum,
)
from .star_model import (
    DEFAULT_MAX_QUBITS,
    FullHamiltonian,
    ModelParams,
    build_full_hamiltonian,
)
from .verify import Check, SuiteResult, SUITE_NAMES, run_suite

__all__ = [
    "__version__",
    # hilbert
    "StateVector",
    "QubitDensityMatrix",
    "dicke_state",
    "prepare_initial",
    "reduce_qubit",
    "fidelity_pure",
    # star model
    "DEFAULT_MAX_QUBITS",
    "ModelParams",
    "FullHamiltonian",
    "build_full_hamiltonian",
    # dynamics
    "BlockAmplitudes",
    "evolve_analytic",
    "evolve_brute_force",
    "amplitudes_from_brute_force",
    # cloning
    "CloneReport",
    "PresetSpec",
    "bloch_amplitudes",
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
    "make_clone_report",
    # optimizer
    "SearchBox",
    "BestPoint",
    "OptResult",
    "BoxMaximum",
    "Table1Row",
    "XX_REFERENCE_MAXIMA",
    "grid_scan",
    "refine_local",
    "scan_and_refine",
    "xx_box_maximum",
    "reproduce_table1",
    # verify
    "Check",
    "SuiteResult",
    "SUITE_NAMES",
    "run_suite",
    # errors
    "CapacityError",
    "OracleInconsistencyError",
    "FormulaInconsistencyError",
]
