"""Check that the test suite catches known faults: each row of MUTATIONS
breaks one line of ``src/``, and the suite must fail on every such copy.

Run by name, not collected by pytest:

    python tests/mutation_gate.py

Each row is ``(name, file under src/hologate, exact old text, new text)``;
the old text must occur exactly once. The gate first runs the suite on an
unmutated copy, which must pass, then on one copy per row, with
``pytest -x -q -p no:cacheprovider tests``. Each copy holds ``src/``,
``tests/`` and ``pyproject.toml`` in a temporary directory, so the checkout
is never edited. It prints one line per row, with the first failing test of
each killed row; the exit code is 1 if the unmutated copy fails or a row
survives. A row that survives is a gap in the tests, not a row to delete.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTATIONS = [
    (
        "search: jac not carried on accept",
        "synthesis.py",
        "        np.copyto(jac, trial_jac, where=better[:, None, None])\n",
        "",
    ),
    (
        "search: better inverted",
        "synthesis.py",
        "better = trial_infidelity < infidelity",
        "better = trial_infidelity >= infidelity",
    ),
    (
        "search: fold sign dropped from d(beta)/dx",
        "synthesis.py",
        "np.where(flip, -1.0, 1.0)",
        "np.where(flip, 1.0, 1.0)",
    ),
    (
        "checks: <= changed to < in RunReport.verdicts",
        "cli.py",
        "yield name, value <= bound,",
        "yield name, value < bound,",
    ),
    (
        "cli: main's ValueError handler dropped",
        "cli.py",
        '    except ValueError as exc:\n        print(f"error: {exc}", file=sys.stderr)\n'
        "        return EXIT_USAGE\n",
        "",
    ),
    (
        "cli: main parses into one shared module-level Namespace",
        "cli.py",
        "args = build_parser().parse_args(argv)",
        'args = build_parser().parse_args(argv, globals().setdefault("_ARGS", argparse.Namespace()))',
    ),
    (
        "cli: parser rebuilt on every main call",
        "cli.py",
        "@functools.cache\ndef build_parser",
        "def build_parser",
    ),
]


def make_copy(workdir: Path, mutation=None) -> Path:
    """A copy of src/, tests/ and pyproject.toml under ``workdir``, with
    ``mutation`` applied; returns the copy's root."""
    copy = Path(tempfile.mkdtemp(dir=workdir))
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    if mutation is not None:
        name, file, old, new = mutation
        path = copy / "src" / "hologate" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {file}, not once")
        path.write_text(text.replace(old, new), encoding="utf-8")
    return copy


def run_suite(copy: Path) -> tuple[bool, str, float]:
    """(passed, the first failing test or the output's tail, seconds) of the
    suite in ``copy``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=copy,
        # the copy's pyproject puts its own src/ on the path
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True,
        text=True,
        timeout=600,
    )
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode == 0, failed.group(1) if failed else proc.stdout[-200:], seconds


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        passed, detail, seconds = run_suite(make_copy(Path(workdir)))
        if not passed:
            print(f"unmutated copy: FAILS ({seconds:.1f} s) {detail}")
            return 1
        print(f"unmutated copy: passes ({seconds:.1f} s)", flush=True)
        survivors = 0
        for mutation in MUTATIONS:
            passed, detail, seconds = run_suite(make_copy(Path(workdir), mutation))
            survivors += passed
            verdict = "SURVIVED" if passed else f"killed by {detail}"
            print(f"{mutation[0]}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTATIONS) - survivors} of {len(MUTATIONS)} mutations killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
