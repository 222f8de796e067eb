"""Two-photon quantum walks on looped waveguide arrays.

Closed-form correlation matrices for cylinder, Moebius and twisted-circle
loop topologies, an exact two-photon Fock simulator used as a cross-check,
spectral solvers for the coupling matrices, and a physical feasibility
calculator for the optical loop.

``import loopwalk`` loads no submodule and not numpy: each public name
below is imported from the submodule that defines it on first access
(PEP 562), so the command line can parse its arguments before it loads
the physics.
"""

import importlib

__version__ = "0.6.1"

# public name -> the submodule that defines it, in the order of __all__
_EXPORTS = {
    "ConfigError": "errors",
    "UnsupportedConfigError": "errors",
    "NumericError": "errors",
    "CouplingMatrix": "model",
    "Permutation": "model",
    "EigenSystem": "model",
    "DeviceConfig": "model",
    "CorrelationMatrix": "model",
    "permutation_for": "model",
    "build_tridiagonal": "spectra",
    "build_circulant": "spectra",
    "eigen_tridiagonal": "spectra",
    "eigen_circulant": "spectra",
    "eigen_numeric": "spectra",
    "coupling_for": "spectra",
    "eigensystem_for": "spectra",
    "correlation_sweep": "correlations",
    "optimal_theta": "correlations",
    "survival_prefactor": "correlations",
    "symmetry_map": "correlations",
    "invariant_modes": "correlations",
    "two_photon_invariant_check": "correlations",
    "device_correlation": "correlations",
    "TwoPhotonState": "fock_oracle",
    "StepOperators": "fock_oracle",
    "StepRecord": "fock_oracle",
    "PipelineResult": "fock_oracle",
    "delayed_run": "fock_oracle",
    "state_run": "fock_oracle",
    "PhysicalParams": "feasibility",
    "loop_budget": "feasibility",
    "discreteness_check": "feasibility",
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
