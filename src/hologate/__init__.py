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
    exact_propagator,
    full_report,
    invariant_residual,
    propagate,
)
from .su2 import (
    FidelityReport,
    fidelity,
    is_unitary,
    max_abs,
)
from .synthesis import (
    CatalogEntry,
    PulseSequence,
    SynthesisResult,
    TargetGate,
    catalog,
    compose,
    refine,
    standard_target,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "ConsistencyError",
    "DEFAULT_STEPS",
    "DriveParams",
    "EvolutionReport",
    "FidelityReport",
    "HolonomicGate",
    "InvariantEigensystem",
    "PulseSequence",
    "SynthesisResult",
    "TargetGate",
    "aa_eigenphases",
    "analytic_gate",
    "catalog",
    "compose",
    "eigensystem",
    "exact_propagator",
    "fidelity",
    "full_report",
    "hamiltonian",
    "holonomy_residual",
    "invariant",
    "invariant_residual",
    "is_unitary",
    "lr_phase",
    "max_abs",
    "params_from_beta",
    "propagate",
    "refine",
    "standard_target",
    "synthesize",
]
