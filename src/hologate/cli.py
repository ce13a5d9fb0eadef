"""Command-line front end: inspect a holonomic gate, run the numerical
verification suite, synthesize pulse sequences, reproduce the published
catalog, and export Bloch-sphere trajectory data.

All inputs are dimensionless multiples of the drive frequency (w = 1, so the
period is 2 pi). Exit codes: 0 success, 1 check failure, 2 usage/validation
error, 3 I/O error, 4 internal error (an unexpected exception such as
``ConsistencyError``: the run reached no verdict, so it is not a failed check).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .drive import (
    DriveParams,
    HolonomicGate,
    analytic_gate,
    eigensystem,
    lr_phase,
    params_from_beta,
)
from .evolution import (
    DEFAULT_STEPS,
    aa_eigenphases,
    exact_propagator,
    full_report,
    invariant_residual,
)
from .su2 import bloch_vectors, fidelity, max_abs
from .synthesis import (
    TOLERANCE,
    TargetGate,
    catalog,
    compose,
    refine,
    standard_target,
    synthesize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

#: Largest ``verify --steps``. The integrator streams its step factors, so a
#: verify run peaks at ~1.4 MB at 10^6 and at 10^7 steps (tracemalloc): the
#: 256 KiB column exponential of the 2^14-step rows is offset by the fewer
#: stopped rows held beside it. The cap bounds its time, 0.09-0.11 s at 10^7
#: steps (in process, medians on a 2-core Xeon), not its memory.
MAX_VERIFY_STEPS = 10_000_000
#: Largest ``trajectory --samples``. One beta peaks at ~700 B per sample
#: (tracemalloc, 10^5 samples), so the cap bounds it at ~0.7 GB; the rows are
#: written one beta at a time, so further betas add nothing to the peak.
MAX_TRAJECTORY_SAMPLES = 1_000_000
#: Largest count in ``trajectory --beta start:stop:count``. Every beta's drive
#: is built before the file is opened, ~184 B per beta (tracemalloc, 10^5
#: betas), so the cap bounds that list at ~0.2 GB.
MAX_SWEEP_BETAS = 1_000_000
#: Largest ``synth --length``. A batch of 128 starts peaks at ~41 kB per pulse
#: (tracemalloc, lengths 200 to 2,000), so the cap bounds the search at ~0.4 GB.
MAX_SYNTH_LENGTH = 10_000
#: C in the trajectory_dynamical_phase bound C (T / steps)^2. Over 52 beta in
#: [0.02, 1.55], max |gamma_traj| (steps / T)^2 measured 0.0589 at 16, 10^3,
#: 10^4, 10^5 and 10^6 steps (0.0589 also on 1001 beta over [0, pi/2]).
TRAJECTORY_PHASE_COEFF = 0.07
#: Every constant check bound, by check name; a check passes when its measured
#: value is <= its bound. Only ``trajectory_dynamical_phase``
#: (TRAJECTORY_PHASE_COEFF) scales with its inputs.
CHECK_BOUNDS = {
    # verify
    "unitarity": 1e-10,  # max |U^dag U - I|
    "holonomy_integrand": 1e-12,  # max |<phi|H|phi>|
    "dynamical_phase": 1e-8,  # max |gamma_d|
    "total_phase": 1e-6,  # max |alpha_numeric - alpha_closed_form|
    "aa_correspondence": 1e-6,  # max circular |AA eigenphase - alpha_numeric|
    "spectral_agreement": 1e-6,  # max |U_spectral - U_num|
    "spectral_exact": 1e-14,  # max |U_spectral - U_exact|
    "transitionless": 1e-7,  # 1 - min |<phi(T)|U phi(0)>|
    "invariant_equation": 1e-8,  # max |dI/dt + i[H, I]| at h = 1e-5
    "analytic_agreement": 1e-6,  # max |U_num - U_analytic|
    # catalog, per row
    "reproduction": 1e-5,  # 1 - composed fidelity
    "refinement": 1e-10,  # claimed - refined fidelity
    # synth
    "converged": TOLERANCE,  # 1 - fidelity magnitude
    # trajectory
    "on_sphere": 1e-10,  # max |x^2 + y^2 + z^2 - 1|
}


@dataclass
class RunReport:
    """Everything one invocation computed: inputs, outputs, verdicts."""

    command: str
    params: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # name -> (measured value, bound)
    wall_time_s: float = 0.0

    def check(self, name: str, value: float, bound: float) -> None:
        self.checks[name] = (value, bound)

    def verdicts(self):
        """(name, passed, detail) per check; NaN fails, as nan <= bound is false."""
        for name, (value, bound) in self.checks.items():
            yield name, value <= bound, f"{value:.3e} <= {bound:.3e}"

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def _render(report: RunReport, machine: bool) -> str:
    lines = []
    if machine:
        lines.append(f"command={report.command}")
        for key, value in report.params.items():
            lines.append(f"{key}={_fmt(value)}")
        for key, value in report.values.items():
            lines.append(f"{key}={_fmt(value)}")
        for name, ok, _ in report.verdicts():
            lines.append(f"check_{name}={'pass' if ok else 'fail'}")
        lines.append(f"wall_time_s={_fmt(report.wall_time_s)}")
    else:
        lines.append(f"command: {report.command}")
        for key, value in report.params.items():
            lines.append(f"  {key} = {_fmt(value)}")
        if report.values:
            lines.append("outputs:")
            for key, value in report.values.items():
                lines.append(f"  {key} = {_fmt(value)}")
        if report.checks:
            lines.append("checks:")
            for name, ok, detail in report.verdicts():
                lines.append(f"  {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        lines.append(f"wall time: {report.wall_time_s:.3f} s")
    return "\n".join(lines)


def _put_matrix(values: dict, prefix: str, m: np.ndarray) -> None:
    for i in (0, 1):
        for j in (0, 1):
            values[f"{prefix}{i}{j}"] = complex(m[i, j])


def _circular_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


# --- commands ---------------------------------------------------------------


def _cmd_gate(args) -> tuple[RunReport, int]:
    gate = HolonomicGate(args.beta)
    p = params_from_beta(gate)
    u = analytic_gate(gate)
    report = RunReport("gate", params={"beta": args.beta})
    report.values["omega_rabi"] = p.omega_rabi
    report.values["detuning"] = p.detuning
    report.values["omega_drive"] = p.omega_drive
    report.values["lam"] = eigensystem(p, 0.0).lam
    alpha = lr_phase(p, p.period)
    report.values["alpha_plus"] = alpha[0]
    report.values["alpha_minus"] = alpha[1]
    chi = aa_eigenphases(u, p)
    report.values["aa_eigenphase_plus"] = chi[0]
    report.values["aa_eigenphase_minus"] = chi[1]
    _put_matrix(report.values, "u", u)
    return report, EXIT_OK


def _number(text: str, what: str) -> float:
    """``float(text)``, or a ValueError that names ``what``."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {text!r}") from None


def _parse_drive(text: str) -> DriveParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--drive expects 'OMEGA_RABI,DETUNING' (drive frequency is 1)")
    rabi = _number(parts[0], "--drive OMEGA_RABI")
    detuning = _number(parts[1], "--drive DETUNING")
    return DriveParams(rabi, detuning, 1.0)


def _cmd_verify(args) -> tuple[RunReport, int]:
    if (args.beta is None) == (args.drive is None):
        raise ValueError("give exactly one of --beta or --drive")
    if args.steps > MAX_VERIFY_STEPS:
        raise ValueError(f"steps must be <= {MAX_VERIFY_STEPS}, got {args.steps}")
    if args.beta is not None:
        p = params_from_beta(HolonomicGate(args.beta))
        analytic = analytic_gate(HolonomicGate(args.beta))
        params = {"beta": args.beta, "steps": args.steps}
    else:
        p = _parse_drive(args.drive)
        analytic = None
        params = {"drive": args.drive, "steps": args.steps}

    rep = full_report(p, args.steps)
    alpha_cf = lr_phase(p, p.period)

    report = RunReport("verify", params=params)
    v = report.values
    v["lam"] = eigensystem(p, 0.0).lam
    for label, pair in (
        ("gamma_geometric", rep.gamma_geometric),
        ("gamma_dynamical", rep.gamma_dynamical),
        ("alpha_numeric", rep.alpha_numeric),
        ("alpha_closed_form", alpha_cf),
        ("aa_eigenphase", rep.aa_eigenphases),
    ):
        v[f"{label}_plus"], v[f"{label}_minus"] = pair
    v["max_integrand"] = rep.max_integrand
    v["gamma_dynamical_trajectory_plus"] = rep.gamma_dynamical_trajectory[0]
    v["gamma_dynamical_trajectory_minus"] = rep.gamma_dynamical_trajectory[1]
    v["max_integrand_trajectory"] = rep.max_integrand_trajectory
    v["transitionless_defect"] = rep.transitionless_defect
    v["unitarity_defect"] = max_abs(rep.propagator.conj().T @ rep.propagator - np.eye(2))
    v["alpha_error"] = max(abs(a - b) for a, b in zip(rep.alpha_numeric, alpha_cf))
    v["aa_error"] = max(map(_circular_distance, rep.aa_eigenphases, rep.alpha_numeric))
    exact = exact_propagator(p, p.period)
    v["spectral_error"] = max_abs(rep.spectral - rep.propagator)
    v["spectral_exact_error"] = max_abs(rep.spectral - exact)
    v["exact_error"] = max_abs(rep.propagator - exact)
    v["invariant_residual"] = max(
        invariant_residual(p, frac * p.period, 1e-5) for frac in (0.1, 0.3, 0.5, 0.7, 0.9)
    )
    if analytic is not None:
        v["analytic_gate_error"] = max_abs(rep.propagator - analytic)

    measured = {
        "unitarity": v["unitarity_defect"],
        "holonomy_integrand": rep.max_integrand,
        "dynamical_phase": max(map(abs, rep.gamma_dynamical)),
        "trajectory_dynamical_phase": max(map(abs, rep.gamma_dynamical_trajectory)),
        "total_phase": v["alpha_error"],
        "aa_correspondence": v["aa_error"],
        "spectral_agreement": v["spectral_error"],
        "spectral_exact": v["spectral_exact_error"],
        "transitionless": rep.transitionless_defect,
        "invariant_equation": v["invariant_residual"],
    }
    if analytic is not None:
        measured["analytic_agreement"] = v["analytic_gate_error"]
    trajectory_bound = TRAJECTORY_PHASE_COEFF * (p.period / args.steps) ** 2
    bounds = dict(CHECK_BOUNDS, trajectory_dynamical_phase=trajectory_bound)
    for name, value in measured.items():
        report.check(name, value, bounds[name])
    _put_matrix(report.values, "u", rep.propagator)
    return report, EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _parse_matrix_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = []
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            rows.append([])
            for tok in line.replace(",", " ").split():
                try:
                    rows[-1].append(complex(tok))
                except ValueError:
                    message = f"{path} line {number}: {tok!r} is not a complex number"
                    raise ValueError(message) from None
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError(f"{path}: expected a 2x2 matrix (two lines of two complex entries)")
    return np.array(rows, dtype=complex)


def _resolve_target(text: str) -> TargetGate:
    try:
        return standard_target(text)
    except ValueError:
        pass
    try:
        matrix = _parse_matrix_file(text)
    except FileNotFoundError:
        raise ValueError(
            f"target {text!r} is neither a standard name (NOT, Hadamard, Phase, T) "
            "nor a readable matrix file"
        ) from None
    return TargetGate(matrix, name="custom")


#: The ``synth --out`` record: these params and values of the run, in order.
_RECORD_KEYS = (
    "target",
    "length",
    "betas",
    "infidelity_magnitude",
    "infidelity_phase_sensitive",
    "evaluations",
    "restarts_used",
    "seed",
    "converged",
)


def _synthesis_record(report: RunReport) -> str:
    fields = {**report.params, **report.values}
    return "".join(f"{key}={_fmt(fields[key])}\n" for key in _RECORD_KEYS)


def _cmd_synth(args) -> tuple[RunReport, int]:
    if args.length > MAX_SYNTH_LENGTH:
        raise ValueError(f"length must be <= {MAX_SYNTH_LENGTH}, got {args.length}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    target = _resolve_target(args.target)
    result = synthesize(target, args.length, args.restarts, rng_seed=args.seed)

    report = RunReport(
        "synth",
        params={
            "target": target.name,
            "length": args.length,
            "restarts": args.restarts,
            "seed": args.seed,
        },
    )
    report.values["betas"] = ";".join(f"{b:.17g}" for b in result.sequence.betas)
    report.values["infidelity_magnitude"] = 1.0 - result.fidelity.magnitude
    report.values["infidelity_phase_sensitive"] = 1.0 - result.fidelity.phase_sensitive
    report.values["evaluations"] = result.evaluations
    report.values["restarts_used"] = result.restarts_used
    report.values["converged"] = result.converged
    report.check("converged", 1.0 - result.fidelity.magnitude, CHECK_BOUNDS["converged"])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_synthesis_record(report))
        report.values["out"] = args.out
    return report, EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_catalog(args) -> tuple[RunReport, int]:
    report = RunReport("catalog")
    deviation_magnitude = 0.0
    deviation_phase = 0.0
    for entry in catalog():
        name = entry.target.name
        fid = fidelity(compose(entry.sequence), entry.target.matrix)
        refined = refine(entry.target, entry.sequence.betas)
        report.values[f"{name}_betas"] = ";".join(f"{b:g}" for b in entry.sequence.betas)
        report.values[f"{name}_claimed"] = entry.claimed_fidelity
        report.values[f"{name}_composed"] = fid.magnitude
        report.values[f"{name}_refined"] = refined.fidelity.magnitude
        report.check(f"reproduction_{name}", 1.0 - fid.magnitude, CHECK_BOUNDS["reproduction"])
        report.check(
            f"refinement_{name}",
            entry.claimed_fidelity - refined.fidelity.magnitude,
            CHECK_BOUNDS["refinement"],
        )
        deviation_magnitude += abs(fid.magnitude - entry.claimed_fidelity)
        deviation_phase += abs(fid.phase_sensitive - entry.claimed_fidelity)
    report.values["matching_convention"] = (
        "magnitude" if deviation_magnitude <= deviation_phase else "phase_sensitive"
    )
    return report, EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _parse_beta_spec(text: str) -> list[float]:
    """Either a comma list '0.1,0.5' or a sweep 'start:stop:count'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("--beta sweep spec must be 'start:stop:count'")
        start = _number(parts[0], "--beta sweep start")
        stop = _number(parts[1], "--beta sweep stop")
        try:
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"--beta sweep count must be an integer, got {parts[2]!r}") from None
        if count < 1:
            raise ValueError(f"--beta sweep count must be >= 1, got {count}")
        if count > MAX_SWEEP_BETAS:
            raise ValueError(f"--beta sweep count must be <= {MAX_SWEEP_BETAS}, got {count}")
        # a non-finite end gives non-finite betas, which fail validation
        with np.errstate(over="ignore", invalid="ignore"):
            return [float(b) for b in np.linspace(start, stop, count)]
    return [_number(tok, "--beta entry") for tok in text.split(",") if tok.strip()]


#: Stands for the beta field in the template from ``_trajectory_template``.
_BETA_SLOT = "{beta}"


def _trajectory_template(times: np.ndarray) -> str:
    """CSV rows of one beta with t and branch written in, beta left as
    ``_BETA_SLOT`` and x, y, z as ``%.17g`` fields: branches "0" and "1" at
    every time, then the one-period endpoint map as "0_final" and "1_final" at
    the last time.

    Every beta shares the time grid, so its text is formatted once here. The
    fields take, in order, the Bloch vectors of U(t)|0> and U(t)|1> at each
    time and then again at the last time.
    """
    xyz = "%.17g,%.17g,%.17g\n"
    stamps = [f"{_BETA_SLOT},{t:.17g}," for t in times.tolist()]
    rows = "".join([f"{s}0,{xyz}{s}1,{xyz}" for s in stamps])
    return rows + f"{stamps[-1]}0_final,{xyz}{stamps[-1]}1_final,{xyz}"


def _cmd_trajectory(args) -> tuple[RunReport, int]:
    betas = _parse_beta_spec(args.beta)
    if not betas:
        raise ValueError("no beta values given")
    if args.samples < 2:
        raise ValueError(f"samples must be >= 2, got {args.samples}")
    if args.samples > MAX_TRAJECTORY_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_TRAJECTORY_SAMPLES}, got {args.samples}")

    # every beta is validated before --out is opened, so a bad one leaves no file
    drives = [params_from_beta(HolonomicGate(beta)) for beta in betas]
    # HolonomicGate drives at frequency 1 whatever beta, so one period serves all
    times = np.linspace(0.0, drives[0].period, args.samples)
    template = _trajectory_template(times)
    worst_sphere = 0.0
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("beta,t,branch,x,y,z\n")
        for beta, p in zip(betas, drives):
            # swap the matrix axes so the last axis runs over a column's entries
            points = bloch_vectors(np.swapaxes(exact_propagator(p, times), -1, -2))
            sphere = float(np.max(np.abs(np.sum(points**2, axis=-1) - 1.0)))
            worst_sphere = max(worst_sphere, sphere)
            values = tuple(np.concatenate((points, points[-1:])).ravel().tolist())
            del points  # the text built next is the peak; the array adds ~48 B a sample
            fh.write(template.replace(_BETA_SLOT, f"{beta:.17g}") % values)

    report = RunReport(
        "trajectory",
        params={"beta": args.beta, "samples": args.samples, "out": args.out},
    )
    report.values["n_betas"] = len(betas)
    report.values["n_rows"] = len(betas) * (2 * args.samples + 2)
    report.values["max_sphere_deviation"] = worst_sphere
    report.check("on_sphere", worst_sphere, CHECK_BOUNDS["on_sphere"])
    return report, EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


# --- entry point -------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: every ``main``
    call parses with it, so callers must not modify it. Parsing keeps no
    state in the parser; each call fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="hologate",
        description="Holonomic one-qubit gates: inspect, verify, synthesize, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gate = sub.add_parser("gate", help="print one holonomic gate and its phase data")
    p_gate.add_argument("--beta", type=float, required=True, help="gate angle in [0, pi/2]")
    p_gate.add_argument("--machine", action="store_true", help="key=value output")

    p_verify = sub.add_parser("verify", help="run the numerical verification suite")
    p_verify.add_argument("--beta", type=float, help="holonomic gate angle in [0, pi/2]")
    p_verify.add_argument(
        "--drive", help="raw drive 'OMEGA_RABI,DETUNING' (frequency 1); may be non-holonomic"
    )
    p_verify.add_argument(
        "--steps", type=int, default=DEFAULT_STEPS, help=f"midpoint steps, 16 to {MAX_VERIFY_STEPS}"
    )
    p_verify.add_argument("--machine", action="store_true")

    p_synth = sub.add_parser("synth", help="search for a pulse sequence hitting a target")
    p_synth.add_argument("--target", required=True, help="NOT|Hadamard|Phase|T or a matrix file")
    p_synth.add_argument(
        "--length", type=int, required=True, help=f"pulses, 1 to {MAX_SYNTH_LENGTH}"
    )
    p_synth.add_argument("--restarts", type=int, default=100, help="random starts drawn, >= 1")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", help="write the synthesis record to this file")
    p_synth.add_argument("--machine", action="store_true")

    p_catalog = sub.add_parser("catalog", help="recompose and refine the published sequences")
    p_catalog.add_argument("--machine", action="store_true")

    p_traj = sub.add_parser("trajectory", help="export Bloch trajectories as CSV")
    p_traj.add_argument(
        "--beta",
        required=True,
        help=f"comma list '0.1,0.5' or sweep 'start:stop:count', count 1 to {MAX_SWEEP_BETAS}",
    )
    p_traj.add_argument(
        "--samples",
        type=int,
        default=100,
        help=f"time samples per period, 2 to {MAX_TRAJECTORY_SAMPLES}",
    )
    p_traj.add_argument("--out", required=True, help="output CSV path")
    p_traj.add_argument("--machine", action="store_true")

    return parser


_HANDLERS = {
    "gate": _cmd_gate,
    "verify": _cmd_verify,
    "synth": _cmd_synth,
    "catalog": _cmd_catalog,
    "trajectory": _cmd_trajectory,
}


def main(argv=None) -> int:
    """Run one command and return its exit code; callable any number of times
    in one process. An argv that argparse rejects raises SystemExit(2)."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # the boundary: any other failure is a bug, not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report.wall_time_s = time.perf_counter() - start
    print(_render(report, machine=args.machine))
    return code


if __name__ == "__main__":
    sys.exit(main())
