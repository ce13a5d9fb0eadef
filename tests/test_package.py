import ast
import inspect
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


SRC = Path(hologate.__file__).resolve().parent

#: The np.linalg call sites in src/, as (module, function, name). Each is a
#: BLAS or LAPACK call whose bits depend on the OpenBLAS core; the set only
#: shrinks.
LINALG_CALLS = {
    ("evolution", "aa_eigenphases", "eig"),
    ("su2", "pair_of", "det"),
    ("synthesis", "_descend", "solve"),
}

#: Public functions that nothing else in the package calls: the paper's
#: holonomy condition, documented in README as API of its own. A helper that
#: only the tests call belongs in tests/ (tests/oracles.py).
UNCALLED_PUBLIC = {"holonomy_residual"}


def _nodes():
    """(module, top-level statement's name or None, node) for every node of
    every module of the package but ``__init__``."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            for statement in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(statement):
                    yield path.stem, getattr(statement, "name", None), node


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


def test_the_np_linalg_call_sites_in_src_are_exactly_the_known_ones():
    calls = set()
    for module, where, node in _nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
            calls.add((module, where, node.attr))
        # linalg reached any other way than as np.linalg.<name>
        if isinstance(node, ast.ImportFrom):
            assert "linalg" not in (node.module or ""), module
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any("linalg" in alias.name for alias in node.names), module
        assert not (isinstance(node, ast.Name) and node.id == "linalg"), module
    assert calls == LINALG_CALLS


def test_every_public_function_has_a_caller_in_src():
    # a caller is a reference from any module but __init__, outside the
    # function's own body: a helper that only the tests call belongs in tests/
    callers = {}
    for module, where, node in _nodes():
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        callers.setdefault(name, set()).add((module, where))
    uncalled = set()
    for name in hologate.__all__:
        obj = getattr(hologate, name)
        if inspect.isfunction(obj):
            own_body = (obj.__module__.rpartition(".")[2], name)
            if not callers.get(name, set()) - {own_body}:
                uncalled.add(name)
    assert uncalled == UNCALLED_PUBLIC
