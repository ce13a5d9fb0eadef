import hologate

#: The public API. A name added or removed here is a change to the contract.
PUBLIC = [
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
    "bloch_vectors",
    "catalog",
    "compose",
    "dynamical_integrand",
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
    "noncommutativity_witness",
    "params_from_beta",
    "pauli",
    "propagate",
    "refine",
    "standard_target",
    "su2_exp",
    "synthesize",
]


def test_all_is_sorted_unique_and_every_name_resolves():
    # a stale entry breaks `from hologate import *` with an AttributeError
    names = hologate.__all__
    assert names == PUBLIC
    assert names == sorted(set(names))
    for name in names:
        getattr(hologate, name)
    namespace = {}
    exec("from hologate import *", namespace)
    assert set(names) <= namespace.keys()
