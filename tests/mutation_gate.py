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
        "search: the palindrome's Jacobian fold-back dropped",
        "synthesis.py",
        "        jac[: n - m] += jac[::-1][: n - m]\n",
        "",
    ),
    (
        "search: the odd middle pulse of a palindrome counted twice",
        "synthesis.py",
        "jac[: n - m] += jac[::-1][: n - m]",
        "jac[:m] += jac[::-1][:m]",
    ),
    (
        "search: the symmetric-target predicate forced false",
        "synthesis.py",
        "symmetric = length > 1 and abs(target_pair[2, 0]) <= _SYMMETRIC_RE_B",
        "symmetric = False",
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
        "cli: main returns 0 when a check fails",
        "cli.py",
        "return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED",
        "return EXIT_OK",
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
        "    if width % 2:\n        calls.append((_carry, (la, lb, n, carry, b[..., -1])))\n",
        "",
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
        "roots.append(pair_unit(la[..., 0], lb[..., 0]))",
        "roots.append((la[..., 0], lb[..., 0]))",
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
        "rows: a plan reused for a group with another row count",
        "evolution.py",
        "b, plan, (la, lb) = plans[count]",
        "b, plan, (la, lb) = next(iter(plans.values()))",
    ),
    (
        "rows: the build buffer left at numpy's default",
        "evolution.py",
        "buffer = np.setbufsize(_BUILD_BUFFER)",
        "buffer = np.getbufsize()",
    ),
    (
        "rows: the caller's buffer size not restored",
        "evolution.py",
        "np.setbufsize(buffer)",
        "pass",
    ),
    (
        "streaming: the row start shifted by one step",
        "evolution.py",
        "np.exp(-1j * p.omega_drive * t_rows)",
        "np.exp(-1j * p.omega_drive * (t_rows + dt))",
    ),
    (
        "streaming: the 1/2 of the column times dropped",
        "evolution.py",
        "np.arange(0.5, steps)",
        "np.arange(0.0, steps)",
    ),
    (
        "streaming: the short last block dropped",
        "evolution.py",
        "    if rest:\n        blocks.append(_row_products(p, dt, np.array([full * size * dt]), rest))\n",
        "",
    ),
    (
        "streaming: the short last block put first",
        "evolution.py",
        "blocks.append(_row_products(p, dt, np.array([full * size * dt]), rest))",
        "blocks.insert(0, _row_products(p, dt, np.array([full * size * dt]), rest))",
    ),
    (
        "streaming: the column phase conjugated",
        "evolution.py",
        "columns = np.exp(-1j * p.omega_drive",
        "columns = np.exp(1j * p.omega_drive",
    ),
    (
        "factors: the vanished field divides by zero",
        "evolution.py",
        "scale = field or 1.0",
        "scale = field",
    ),
    (
        "quadrature: conj(psi0) dropped from the energy",
        "evolution.py",
        "2.0 * (psi0.conj() * h01 * psi1).real",
        "2.0 * (psi0 * h01 * psi1).real",
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
        "np.subtract(a1 * a2, np.multiply(b1, b2.conj()), out=out[0])",
        "np.subtract(a1 * a2, np.multiply(b1.conj(), b2), out=out[0])",
    ),
    (
        "pairs: b1 * conj(b2) by the * operator, which numpy may swap in place",
        "su2.py",
        "np.multiply(b1, b2.conj())",
        "b1 * b2.conj()",
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
        "drive: DriveParams' overflow check dropped",
        "drive.py",
        "if not math.isfinite(4.0 * sum(v * v for v in fields.values())):",
        "if False:",
    ),
    (
        "drive: params_from_beta's exact offset dropped",
        "drive.py",
        '    object.__setattr__(p, "offset", -w * s * s)\n',
        "",
    ),
    (
        "drive: _theta_pairs reads Delta - w from Delta again",
        "drive.py",
        "    dz = p.offset\n    om = p.omega_rabi\n",
        "    dz = p.detuning - p.omega_drive\n    om = p.omega_rabi\n",
    ),
    (
        "drive: invariant reads Delta - w from Delta again",
        "drive.py",
        "    dz = p.offset\n    return np.array([[dz, off]",
        "    dz = p.detuning - p.omega_drive\n    return np.array([[dz, off]",
    ),
    (
        "drive: lr_phase reads Delta - w from Delta again",
        "drive.py",
        "lam = math.hypot(p.omega_rabi, p.offset)",
        "lam = math.hypot(p.omega_rabi, p.detuning - p.omega_drive)",
    ),
    (
        "theta: xi_+ as the plain quotient (lam - |Delta - w|) / Omega, which cancels",
        "drive.py",
        "t = om / (lam + abs(dz)) if lam else 1.0",
        "t = (lam - abs(dz)) / om if om else 0.0 if lam else 1.0",
    ),
    (
        "theta: the bases of Delta >= w and Delta < w swapped",
        "drive.py",
        "    if dz >= 0:\n",
        "    if dz < 0:\n",
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
    (
        "exact: the 1/2 of the rotation angle dropped from the cosine",
        "evolution.py",
        "c = np.cos(0.5 * lam * t)",
        "c = np.cos(lam * t)",
    ),
    (
        "exact: reads Delta - w from Delta again",
        "evolution.py",
        "        dz = p.offset\n",
        "        dz = p.detuning - p.omega_drive\n",
    ),
    (
        "exact: lam from np.hypot, which rounds otherwise than math.hypot",
        "evolution.py",
        "lam = math.hypot(p.omega_rabi, dz)",
        "lam = float(np.hypot(p.omega_rabi, dz))",
    ),
    (
        "exact: the frame multiplied from the right",
        "evolution.py",
        "np.multiply(frame, c - 1j * s * nz)",
        "np.multiply(c - 1j * s * nz, frame)",
    ),
    (
        "exact: the frame multiplied by the * operator, which numpy may swap in place",
        "evolution.py",
        "np.multiply(frame, c - 1j * s * nz)",
        "frame * (c - 1j * s * nz)",
    ),
    (
        "trajectory: every chunk labelled with the first chunk's betas",
        "cli.py",
        "for beta in betas[chunk]",
        "for beta in betas[:per_chunk]",
    ),
    (
        "trajectory: every write formats the first rows' fields",
        "cli.py",
        "fields[rows]",
        "fields[: len(rows)]",
    ),
    (
        "g17: the 17 digits truncate err instead of rounding it",
        "cli.py",
        "np.rint(err).astype(np.int64)",
        "err.astype(np.int64)",
    ),
    (
        "g17: p = 1e16 kept when err < 0, below the decade",
        "cli.py",
        " & ((p > 1e16) | (err >= 0.0))",
        "",
    ),
    (
        "g17: trailing zeros counted one group short",
        "cli.py",
        "(zeros.take(g2) + (g2 == 0) * zeros.take(g1))",
        "zeros.take(g2)",
    ),
    (
        "g17: +-1 kept on the fast path",
        "cli.py",
        "fast = (a >= 1e-4) & (a < 1.0)",
        "fast = (a >= 1e-4) & (a <= 1.0)",
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
