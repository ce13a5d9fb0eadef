"""Nonadiabatic holonomic one-qubit gates built from a dynamical invariant.

The package models a circularly driven qubit whose invariant is known in
closed form, verifies the resulting phase structure by brute-force
propagation, and composes the one-parameter holonomic gate family into
arbitrary one-qubit unitaries by a least-squares search with an exact
Jacobian.
"""

from .drive import (
    DriveParams,
    HolonomicGate,
    InvariantEigensystem,
    analytic_gate,
    dynamical_integrand,
    eigensystem,
    hamiltonian,
    holonomy_residual,
    invariant,
    lr_phase,
    params_from_beta,
)
from .evolution import (
    DEFAULT_STEPS,
    ConsistencyError,
    EvolutionReport,
    aa_eigenphases,
    full_report,
    invariant_residual,
    propagate,
    propagate_samples,
    spectral_propagator,
)
from .su2 import (
    BlochPoint,
    FidelityReport,
    bloch_of,
    fidelity,
    is_unitary,
    max_abs,
    pauli,
    su2_exp,
)
from .synthesis import (
    CatalogEntry,
    OptimizerConfig,
    PulseSequence,
    SynthesisResult,
    TargetGate,
    catalog,
    compose,
    noncommutativity_witness,
    refine,
    standard_target,
    synthesize,
    synthesize_shortest,
)

__version__ = "0.1.0"

__all__ = [
    "BlochPoint",
    "CatalogEntry",
    "ConsistencyError",
    "DEFAULT_STEPS",
    "DriveParams",
    "EvolutionReport",
    "FidelityReport",
    "HolonomicGate",
    "InvariantEigensystem",
    "OptimizerConfig",
    "PulseSequence",
    "SynthesisResult",
    "TargetGate",
    "aa_eigenphases",
    "analytic_gate",
    "bloch_of",
    "catalog",
    "compose",
    "dynamical_integrand",
    "eigensystem",
    "fidelity",
    "full_report",
    "hamiltonian",
    "holonomy_residual",
    "invariant",
    "invariant_residual",
    "is_unitary",
    "lr_phase",
    "max_abs",
    "noncommutativity_witness",
    "params_from_beta",
    "pauli",
    "propagate",
    "propagate_samples",
    "refine",
    "spectral_propagator",
    "standard_target",
    "su2_exp",
    "synthesize",
    "synthesize_shortest",
]
