"""Desk-scale simulator and analysis toolkit for bulk-ensemble NMR quantum computing.

Models pseudo-pure states, ensemble preparation histories, separability
thresholds, NMR signal readout, and quantum state tomography, and reproduces
an embedded two-qubit density-matrix evolution experiment.
"""

from nmrsim.core import (
    EXPERIMENTAL,
    PAULI_1Q,
    STRICT,
    DensityMatrix,
    PureState,
    UnitarityCheck,
    UnitaryOperator,
    ValidationProfile,
    basis_state,
    bell_state,
    check_unitary,
    density_from_pure,
    evolve,
    fidelity,
    pure_state,
    purity,
    tensor,
    trace_distance,
    validate_density,
    validate_unitary,
)
from nmrsim.ensemble import (
    EnsembleHistory,
    MemberEntanglement,
    MemberEntanglementReport,
    concurrence,
    density_of,
    entanglement_report,
)
from nmrsim.pseudopure import (
    EpsilonEstimate,
    NetSignal,
    PopulationVector,
    compose_pseudopure,
    extract_epsilon,
    net_signal,
)
from nmrsim.repro import (
    ExperimentDataset,
    ReproReport,
    check_against_baselines,
    load_baselines,
    load_dataset,
    reproduce_theory,
)
from nmrsim.separability import (
    PPTReport,
    critical_epsilon,
    is_separable_2q,
    partial_transpose,
    ppt_first_vs_rest,
)
from nmrsim.tomography import (
    PauliExpectationSet,
    ShotNoiseConfig,
    pauli_expectations,
    pauli_labels,
    pauli_matrix,
    project_psd,
    reconstruct_linear,
    simulate_shot_noise,
    simplex_project,
)

__version__ = "0.1.0"
