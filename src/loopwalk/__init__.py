"""Two-photon quantum walks on looped waveguide arrays.

Closed-form correlation matrices for cylinder, Moebius and twisted-circle
loop topologies, an exact two-photon Fock simulator used as a cross-check,
spectral solvers for the coupling matrices, and a physical feasibility
calculator for the optical loop.
"""

__version__ = "0.4.0"

from .model import (
    ConfigError,
    CorrelationMatrix,
    CouplingMatrix,
    DeviceConfig,
    EigenSystem,
    NumericError,
    Permutation,
    UnsupportedConfigError,
    permutation_for,
)
from .spectra import (
    build_circulant,
    build_tridiagonal,
    coupling_for,
    eigen_circulant,
    eigen_numeric,
    eigen_tridiagonal,
    eigensystem_for,
)
from .propagate import TransferMatrix, compose, permute_modes, transfer_matrix
from .correlations import (
    InvariantSubspace,
    correlation_sweep,
    device_correlation,
    invariant_modes,
    optimal_theta,
    survival_prefactor,
    symmetry_map,
    two_photon_invariant_check,
)
from .fock_oracle import (
    PairBasis,
    PipelineResult,
    StepOperators,
    StepRecord,
    TwoPhotonState,
    delayed_run,
    lift_to_two_photon,
    pair_basis,
    state_run,
)
from .feasibility import PhysicalParams, discreteness_check, loop_budget

__all__ = [
    "__version__",
    "ConfigError",
    "UnsupportedConfigError",
    "NumericError",
    "CouplingMatrix",
    "Permutation",
    "EigenSystem",
    "DeviceConfig",
    "CorrelationMatrix",
    "permutation_for",
    "build_tridiagonal",
    "build_circulant",
    "eigen_tridiagonal",
    "eigen_circulant",
    "eigen_numeric",
    "coupling_for",
    "eigensystem_for",
    "TransferMatrix",
    "transfer_matrix",
    "compose",
    "permute_modes",
    "correlation_sweep",
    "optimal_theta",
    "survival_prefactor",
    "symmetry_map",
    "InvariantSubspace",
    "invariant_modes",
    "two_photon_invariant_check",
    "device_correlation",
    "PairBasis",
    "pair_basis",
    "lift_to_two_photon",
    "TwoPhotonState",
    "StepOperators",
    "StepRecord",
    "PipelineResult",
    "delayed_run",
    "state_run",
    "PhysicalParams",
    "loop_budget",
    "discreteness_check",
]
