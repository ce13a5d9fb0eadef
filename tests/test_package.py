import os
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_a_pythonpath_to_another_hologate_is_a_usage_error(tmp_path):
    # pyproject's pythonpath goes before PYTHONPATH, so without the check in
    # conftest this run would silently test this checkout instead of the copy
    src = Path(hologate.__file__).resolve().parent.parent
    other = tmp_path / "src"
    shutil.copytree(src / "hologate", other / "hologate", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only", "tests/test_package.py"]
    runs = {}
    for entry in (str(other), "src"):
        env = dict(os.environ, PYTHONPATH=entry)
        runs[entry] = subprocess.run(argv, cwd=src.parent, env=env, capture_output=True, text=True, timeout=300)
    refused = runs[str(other)]
    assert refused.returncode == 4, refused.stdout + refused.stderr
    assert f"PYTHONPATH entry {str(other)!r} holds the hologate package at {(other / 'hologate').resolve()}" in refused.stderr
    assert f"but the tests import the one at {src / 'hologate'}" in refused.stderr
    # the Tier-1 command's PYTHONPATH=src is this checkout
    assert runs["src"].returncode == 0, runs["src"].stdout + runs["src"].stderr
