"""The benchmark's workloads: the argv lists each pass hands to
``hologate.cli.main``, the oracle that judges every operation from the CLI's
own output (exit code, ``--machine`` stdout, written file), and ``Workload``,
which runs the passes and checks that every pass repeats the first.

Only the argv reaches the program. The workload seed shapes the argv here and
nowhere else; README.md says what it changes in each workload and why.
"""

from __future__ import annotations

import gc
import hashlib
import io
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import hologate.cli
from hologate.drive import HolonomicGate, analytic_gate
from hologate.su2 import fidelity
from hologate.synthesis import PulseSequence, compose, standard_target

#: synth seeds run for each cheap target on `search`. The pool is fixed, not
#: drawn from the workload seed: one synth call's time is set by how many
#: random restarts its seed needs, with a coefficient of variation of ~0.8
#: between seeds (README.md).
SEARCH_SEED_POOL = tuple(range(8))
CHEAP_TARGETS = (("NOT", 4), ("Phase", 4), ("T", 3))
#: The CLI's default seed, i.e. the ROADMAP Baseline `synth --target Hadamard
#: --length 7` row.
HADAMARD_SEED = 0

#: The tolerance `synth` converges to (OptimizerConfig.tolerance).
SYNTH_TOLERANCE = 1e-9
#: The bound `verify` applies to the analytic gate (its analytic_agreement check).
VERIFY_GATE_TOLERANCE = 1e-6
#: The bound `trajectory` applies to each Bloch vector (its on_sphere check).
SPHERE_TOLERANCE = 1e-10

VERIFY_STEPS = 1_000_000
VERIFY_BETAS = (0.1, 0.423, 1.2)
TRAJECTORY_COUNT = 50
TRAJECTORY_SAMPLES = 200
#: Where `trajectory_sweep` writes its CSV, relative to the run's own work
#: directory. A fixed relative path keeps the `out=` line of stdout identical
#: across runs.
TRAJECTORY_OUT = "trajectory.csv"


class OpFailed(Exception):
    """The operation did not do its job (no convergence, unexpected exit)."""


class WrongOutput(Exception):
    """The CLI reported something the oracle contradicts."""


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv and the oracle for its result.

    ``check(code, values, out_text)`` gets the exit code, the parsed
    ``--machine`` stdout and the text of the written file (or None), and
    raises OpFailed or WrongOutput.
    """

    argv: tuple[str, ...]
    check: Callable[[int, dict, str | None], None]
    out: str | None = None

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a != "--machine")


def parse_machine(stdout: str) -> dict[str, str]:
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        values[key] = value
    return values


def _expect_exit(code: int, expected: int) -> None:
    if code != expected:
        raise OpFailed(f"exit code {code}, expected {expected}")


def _check_synth(target: str, code: int, values: dict, _out) -> None:
    converged = values["converged"] == "true"
    if code != (0 if converged else 1):
        raise WrongOutput(f"exit code {code} with converged={values['converged']}")
    if not converged:
        raise OpFailed(f"did not converge: infidelity {values['infidelity_magnitude']}")
    betas = [float(b) for b in values["betas"].split(";")]
    fid = fidelity(compose(PulseSequence(betas)), standard_target(target).matrix)
    if 1.0 - fid.magnitude > SYNTH_TOLERANCE:
        raise WrongOutput(f"recomposed infidelity {1.0 - fid.magnitude:.3e} > {SYNTH_TOLERANCE}")


def _check_catalog(code: int, values: dict, _out) -> None:
    _expect_exit(code, 0)
    for name in ("NOT", "Hadamard", "Phase", "T"):
        betas = [float(b) for b in values[f"{name}_betas"].split(";")]
        fid = fidelity(compose(PulseSequence(betas)), standard_target(name).matrix)
        if abs(fid.magnitude - float(values[f"{name}_composed"])) > 1e-12:
            raise WrongOutput(f"{name}_composed={values[f'{name}_composed']}, recomposed {fid.magnitude!r}")


def _check_verify_beta(beta: float, code: int, values: dict, _out) -> None:
    _expect_exit(code, 0)
    u = analytic_gate(HolonomicGate(beta))
    err = max(abs(complex(values[f"u{i}{j}"]) - u[i, j]) for i in (0, 1) for j in (0, 1))
    if err > VERIFY_GATE_TOLERANCE:
        raise WrongOutput(f"u differs from analytic_gate by {err:.3e} > {VERIFY_GATE_TOLERANCE}")


def _check_verify_drive(code: int, _values: dict, _out) -> None:
    _expect_exit(code, 1)  # non-holonomic: the holonomy checks must fail


def _check_trajectory(n_betas: int, samples: int, code: int, values: dict, out: str | None) -> None:
    _expect_exit(code, 0)
    lines = out.splitlines() if out is not None else []
    expected = n_betas * (2 * samples + 2) + 1
    if len(lines) != expected or lines[0] != "beta,t,branch,x,y,z":
        raise WrongOutput(f"CSV has {len(lines)} lines, expected {expected} with header")
    if int(values["n_rows"]) != expected - 1:
        raise WrongOutput(f"n_rows={values['n_rows']}, expected {expected - 1}")
    for line in lines[1:]:
        _, _, _, x, y, z = line.split(",")
        norm2 = float(x) ** 2 + float(y) ** 2 + float(z) ** 2
        if abs(norm2 - 1.0) > SPHERE_TOLERANCE:
            raise WrongOutput(f"row {line!r} is off the unit sphere by {abs(norm2 - 1.0):.3e}")


def _search(rng: random.Random) -> list[Op]:
    ops = [
        Op(
            ("synth", "--target", name, "--length", str(length), "--seed", str(seed), "--machine"),
            partial(_check_synth, name),
        )
        for name, length in CHEAP_TARGETS
        for seed in SEARCH_SEED_POOL
    ]
    ops.append(
        Op(
            ("synth", "--target", "Hadamard", "--length", "7", "--seed", str(HADAMARD_SEED), "--machine"),
            partial(_check_synth, "Hadamard"),
        )
    )
    ops.append(Op(("catalog", "--machine"), _check_catalog))
    rng.shuffle(ops)
    return ops


def _verify_deep(rng: random.Random) -> list[Op]:
    steps = ("--steps", str(VERIFY_STEPS), "--machine")
    ops = [
        Op(("verify", "--beta", repr(b)) + steps, partial(_check_verify_beta, b))
        for b in VERIFY_BETAS
    ]
    ops.append(Op(("verify", "--drive", "1,1") + steps, _check_verify_drive))
    rng.shuffle(ops)
    return ops


def _trajectory_sweep(rng: random.Random) -> list[Op]:
    # The ROADMAP baseline sweep 0:1.5707963:50 with both ends moved inward by
    # up to 0.05 rad: the same 50 x 200 samples, so the same cost.
    start = round(rng.uniform(0.0, 0.05), 7)
    stop = round(1.5707963 - rng.uniform(0.0, 0.05), 7)
    argv = (
        "trajectory",
        "--beta",
        f"{start!r}:{stop!r}:{TRAJECTORY_COUNT}",
        "--samples",
        str(TRAJECTORY_SAMPLES),
        "--out",
        TRAJECTORY_OUT,
        "--machine",
    )
    check = partial(_check_trajectory, TRAJECTORY_COUNT, TRAJECTORY_SAMPLES)
    return [Op(argv, check, out=TRAJECTORY_OUT)]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The argv list of one pass of ``workload`` at workload seed ``seed``."""
    build = {"search": _search, "verify_deep": _verify_deep, "trajectory_sweep": _trajectory_sweep}
    return build[workload](random.Random(seed))


class Workload:
    """One workload's ops, run pass after pass, with every output checked."""

    def __init__(self, name: str, seed: int):
        self.main = hologate.cli.main
        self.ops = make_ops(name, seed)
        self.reference: list[str] | None = None  # per-op digest of the first pass
        self.verdicts: dict[str, str | None] = {}  # digest -> failure, None if ok
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wrong: list[str] = []  # outputs the oracle contradicts
        self.latencies: list[list[float]] = [[] for _ in self.ops]
        self.first_values: list[dict] = []  # parsed stdout of the first pass
        self.bytes_written = 0  # stdout (minus wall_time_s) and file bytes of the last pass

    def run_pass(self, main=None) -> list[float]:
        """Run every op once and check its output; return the op latencies in
        seconds. Reading the written file is not part of an op's latency."""
        main = main or self.main
        latencies, outputs = [], []
        for op in self.ops:
            stdout, stderr = io.StringIO(), io.StringIO()
            gc.collect()  # each op starts from a collected heap, like a fresh CLI process
            start = perf_counter()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(list(op.argv))
            latencies.append(perf_counter() - start)
            text = Path(op.out).read_text(encoding="utf-8") if op.out else None
            outputs.append((code, stdout.getvalue(), text))
        self._check_pass(outputs)
        return latencies

    def _check_pass(self, outputs) -> None:
        digests = []
        self.bytes_written = 0
        for index, (op, (code, stdout, text)) in enumerate(zip(self.ops, outputs)):
            stable = "".join(ln for ln in stdout.splitlines(True) if not ln.startswith("wall_time_s="))
            self.bytes_written += len(stable.encode()) + len((text or "").encode())
            digest = hashlib.sha256(f"{code}\0{stable}\0{text}".encode()).hexdigest()
            digests.append(digest)
            if digest not in self.verdicts:
                self.verdicts[digest] = self._judge(op, code, stable, text)
            self.attempted += 1
            failure = self.verdicts[digest]
            if failure is None and self.reference and digest != self.reference[index]:
                failure = "output differs from the first pass"
            if failure is not None:
                self.failed += 1
                self.note(f"{op.label}: {failure}")
        if self.reference is None:
            self.reference = digests
            self.first_values = [parse_machine(stdout) for _, stdout, _ in outputs]

    def _judge(self, op, code: int, stdout: str, text: str | None) -> str | None:
        try:
            op.check(code, parse_machine(stdout), text)
        except OpFailed as exc:
            return str(exc)
        except (WrongOutput, KeyError, ValueError) as exc:
            self.wrong.append(f"{op.label}: {exc!r}")
            return f"wrong output: {exc!r}"
        return None

    def note(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)

    def digest(self) -> str:
        return hashlib.sha256("".join(self.reference or []).encode()).hexdigest()

    def per_argv(self) -> list[dict]:
        """Median latency per argv, with the work counters its output reports."""
        rows = []
        for op, samples, values in zip(self.ops, self.latencies, self.first_values):
            row = {"argv": op.label, "median_s": statistics.median(samples) if samples else None}
            row.update((k, int(values[k])) for k in ("evaluations", "restarts_used") if k in values)
            rows.append(row)
        return rows

    def record(self, latencies: list[float]) -> None:
        for samples, t in zip(self.latencies, latencies):
            samples.append(t)
