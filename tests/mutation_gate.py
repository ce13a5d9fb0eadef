"""Check that the test suite catches known faults: each row of MUTATIONS
breaks one line of ``src/``, and the suite must fail on every such copy.

Run by name, not collected by pytest:

    python tests/mutation_gate.py

Each row is ``(name, file under src/hologate, exact old text, new text)``;
the old text must occur exactly once, which ``test_mutation_gate.py`` checks
on every run of the suite. The gate first runs the suite on an unmutated
copy, which must pass, then on one copy per row, with
``pytest -x -q -p no:cacheprovider tests``, leaving out
``test_mutation_gate.py``, which fails on every mutated copy by design.
Each copy holds ``src/``, ``tests/`` and ``pyproject.toml`` in a temporary
directory, so the checkout is never edited. It prints one line per row, with
the first failing test of each killed row; the exit code is 1 if the
unmutated copy fails or a row survives. A row that survives is a gap in the
tests, not a row to delete.
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

#: Where the files named in MUTATIONS live.
SRC = ROOT / "src" / "hologate"

MUTATIONS = [
    (
        "search: jac not carried on accept",
        "synthesis.py",
        "        np.copyto(jac, trial_jac, where=better)\n",
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
        "search: a dg term dropped",
        "synthesis.py",
        "c * (sp + pi_s * cp)",
        "c * sp",
    ),
    (
        "search: the J J^T terms summed over the pulses in reverse",
        "synthesis.py",
        "rows = jac[first : first + _BLOCK]",
        "rows = jac[first : first + _BLOCK][::-1]",
    ),
    (
        "search: pruning keeps hits[0] starts, dropping the hit itself",
        "synthesis.py",
        "keep = slice(hits[0] + 1)",
        "keep = slice(hits[0])",
    ),
    (
        "search: pruning keyed to the last hit",
        "synthesis.py",
        "keep = slice(hits[0] + 1)",
        "keep = slice(hits[-1] + 1)",
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
    (
        "tree: the operands of each pair product swapped",
        "evolution.py",
        "b1, b0 = b[..., 1::2], b[..., : 2 * n : 2]",
        "b0, b1 = b[..., 1::2], b[..., : 2 * n : 2]",
    ),
    (
        "tree: the odd carry dropped (the identity carried instead)",
        "evolution.py",
        "    la[..., n] = a\n    lb[..., n] = b\n",
        "    la[..., n] = 1\n    lb[..., n] = 0\n",
    ),
    (
        "tree: the odd-carry slot left unwritten",
        "evolution.py",
        "    if width % 2:\n        carried = la, lb, n, carry, b[..., -1]\n        _carry(*carried)\n"
        "        if plan is not None:\n            plan.append((_carry, carried))\n",
        "",
    ),
    (
        "tree: the odd carry left out of the recorded calls",
        "evolution.py",
        "            plan.append((_carry, carried))\n",
        "            pass\n",
    ),
    (
        "tree: the scalar level's a a changed to a conj(a)",
        "evolution.py",
        "np.multiply(np.asarray(a), a)",
        "np.multiply(np.asarray(a), a.conjugate())",
    ),
    (
        "tree: no ping-pong swap between the level buffers",
        "evolution.py",
        "        out, spare = spare, out\n",
        "",
    ),
    (
        "tree: the temporary placed at the start of the output buffer",
        "evolution.py",
        "out[level.size : level.size + math.prod(t_shape)]",
        "out[: math.prod(t_shape)]",
    ),
    (
        "tree: the temporaries left out of the level buffers' sizes",
        "evolution.py",
        "rows * (2 * first + (0 if scalar_a else width // 2)), rows * (2 * second + first // 2)",
        "rows * 2 * first, rows * 2 * second",
    ),
    (
        "rows: the root division dropped",
        "evolution.py",
        "pa, pb = pair_unit(la[..., 0], lb[..., 0])",
        "pa, pb = la[..., 0], lb[..., 0]",
    ),
    (
        "rows: the top rows placed in reverse group order",
        "evolution.py",
        "top[0, start - chunk : start - chunk + count] = la\n"
        "                    top[1, start - chunk : start - chunk + count] = lb\n",
        "top[0, chunk + chunk_rows - start - count : chunk + chunk_rows - start] = la\n"
        "                    top[1, chunk + chunk_rows - start - count : chunk + chunk_rows - start] = lb\n",
    ),
    (
        "rows: the stopped rows of a set finished in one pass",
        "evolution.py",
        "held = _finished_rows(steps, per_group) if several else n_rows",
        "held = n_rows",
    ),
    (
        "rows: the workspace sized for the first row set only",
        "evolution.py",
        "    for t_rows, steps in row_sets:\n        if steps == 1:\n            continue\n",
        "    for t_rows, steps in row_sets[:1]:\n        if steps == 1:\n            continue\n",
    ),
    (
        "rows: a plan reused for a group with another row count",
        "evolution.py",
        "group = plans.get(count)",
        "group = plans.get(per_group)",
    ),
    (
        "rows: the row build's operands swapped",
        "evolution.py",
        "np.multiply(row, columns, out)",
        "np.multiply(columns, row, out)",
    ),
    (
        "rows: the 32-row rule of the row build inverted",
        "evolution.py",
        "list(b) if group_rows <= _ROW_BUILD_ROWS else b",
        "list(b) if group_rows > _ROW_BUILD_ROWS else b",
    ),
    (
        "pairs: pair_mul's operands swapped",
        "su2.py",
        "def pair_mul(a1, b1, a2, b2, out=(None, None)):",
        "def pair_mul(a2, b2, a1, b1, out=(None, None)):",
    ),
    (
        "pairs: pair_mul's conj moved from b2 to b1",
        "su2.py",
        "np.subtract(a1 * a2, b1 * b2.conj(), out=out[0])",
        "np.subtract(a1 * a2, b1.conj() * b2, out=out[0])",
    ),
    (
        "scan: the operands of each prefix product swapped",
        "evolution.py",
        "pair_mul(a[shift:], b[shift:], a[:-shift], b[:-shift])",
        "pair_mul(a[:-shift], b[:-shift], a[shift:], b[shift:])",
    ),
    (
        "scan: the division of each pass dropped",
        "evolution.py",
        "pa, pb = pair_unit(*pair_mul(a[shift:], b[shift:], a[:-shift], b[:-shift]))",
        "pa, pb = pair_mul(a[shift:], b[shift:], a[:-shift], b[:-shift])",
    ),
    (
        "exact: the sign of the axis component nz flipped",
        "evolution.py",
        "(p.omega_rabi / lam, dz / lam)",
        "(p.omega_rabi / lam, -dz / lam)",
    ),
    (
        "exact: the frame phase conjugated",
        "evolution.py",
        "frame = np.exp(-0.5j * w * t)",
        "frame = np.exp(0.5j * w * t)",
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
        path = copy / SRC.relative_to(ROOT) / file
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
        [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--ignore", "tests/test_mutation_gate.py", "tests",
        ],
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
