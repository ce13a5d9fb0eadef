"""Command-line front end: inspect a holonomic gate, run the numerical
verification suite, synthesize pulse sequences, reproduce the published
catalog, and export Bloch-sphere trajectory data.

All inputs are dimensionless multiples of the drive frequency (w = 1, so the
period is 2 pi). Exit codes: 0 success, 1 check failure, 2 usage/validation
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
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
    ConsistencyError,
    aa_eigenphases,
    exact_propagator,
    full_report,
    invariant_residual,
    spectral_propagator,
)
from .su2 import bloch_vectors, fidelity, max_abs
from .synthesis import (
    OptimizerConfig,
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


@dataclass
class RunReport:
    """Everything one invocation computed: inputs, outputs, verdicts."""

    command: str
    params: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # name -> (passed, detail)
    wall_time_s: float = 0.0

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks[name] = (bool(passed), detail)

    @property
    def all_passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())


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
        for name, (ok, _) in report.checks.items():
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
            for name, (ok, detail) in report.checks.items():
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


def _parse_drive(text: str) -> DriveParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--drive expects 'OMEGA_RABI,DETUNING' (drive frequency is 1)")
    return DriveParams(float(parts[0]), float(parts[1]), 1.0)


def _cmd_verify(args) -> tuple[RunReport, int]:
    if (args.beta is None) == (args.drive is None):
        raise ValueError("give exactly one of --beta or --drive")
    if args.beta is not None:
        p = params_from_beta(HolonomicGate(args.beta))
        analytic = analytic_gate(HolonomicGate(args.beta))
        params = {"beta": args.beta, "steps": args.steps}
    else:
        p = _parse_drive(args.drive)
        analytic = None
        params = {"drive": args.drive, "steps": args.steps}

    rep = full_report(p, args.steps)
    u_spec = spectral_propagator(p, args.steps)
    alpha_cf = lr_phase(p, p.period)

    report = RunReport("verify", params=params)
    report.values["lam"] = eigensystem(p, 0.0).lam
    for label, pair in (
        ("gamma_geometric", rep.gamma_geometric),
        ("gamma_dynamical", rep.gamma_dynamical),
        ("alpha_numeric", rep.alpha_numeric),
        ("alpha_closed_form", alpha_cf),
        ("aa_eigenphase", rep.aa_eigenphases),
    ):
        report.values[f"{label}_plus"] = pair[0]
        report.values[f"{label}_minus"] = pair[1]
    report.values["max_integrand"] = rep.max_integrand
    report.values["transitionless_defect"] = rep.transitionless_defect

    unitarity = max_abs(rep.propagator.conj().T @ rep.propagator - np.eye(2))
    report.values["unitarity_defect"] = unitarity
    report.check("unitarity", unitarity <= 1e-10, f"{unitarity:.3e} <= 1e-10")

    report.check(
        "holonomy_integrand",
        rep.max_integrand <= 1e-12,
        f"max |<phi|H|phi>| = {rep.max_integrand:.3e} <= 1e-12",
    )
    gd = max(abs(rep.gamma_dynamical[0]), abs(rep.gamma_dynamical[1]))
    report.check("dynamical_phase", gd <= 1e-8, f"max |gamma_d| = {gd:.3e} <= 1e-8")

    alpha_err = max(
        abs(rep.alpha_numeric[0] - alpha_cf[0]), abs(rep.alpha_numeric[1] - alpha_cf[1])
    )
    report.values["alpha_error"] = alpha_err
    report.check("total_phase", alpha_err <= 1e-6, f"{alpha_err:.3e} <= 1e-6")

    aa_err = max(
        _circular_distance(rep.aa_eigenphases[0], rep.alpha_numeric[0]),
        _circular_distance(rep.aa_eigenphases[1], rep.alpha_numeric[1]),
    )
    report.values["aa_error"] = aa_err
    report.check("aa_correspondence", aa_err <= 1e-6, f"{aa_err:.3e} <= 1e-6")

    spectral_err = max_abs(u_spec - rep.propagator)
    report.values["spectral_error"] = spectral_err
    report.check("spectral_agreement", spectral_err <= 1e-6, f"{spectral_err:.3e} <= 1e-6")
    report.values["exact_error"] = max_abs(rep.propagator - exact_propagator(p, p.period))

    report.check(
        "transitionless",
        rep.transitionless_defect <= 1e-7,
        f"{rep.transitionless_defect:.3e} <= 1e-7",
    )

    residual = max(
        invariant_residual(p, frac * p.period, 1e-5) for frac in (0.1, 0.3, 0.5, 0.7, 0.9)
    )
    report.values["invariant_residual"] = residual
    report.check("invariant_equation", residual <= 1e-8, f"{residual:.3e} <= 1e-8")

    if analytic is not None:
        gate_err = max_abs(rep.propagator - analytic)
        report.values["analytic_gate_error"] = gate_err
        report.check("analytic_agreement", gate_err <= 1e-6, f"{gate_err:.3e} <= 1e-6")
    _put_matrix(report.values, "u", rep.propagator)
    return report, EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _parse_matrix_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            entries = [tok for tok in line.replace(",", " ").split() if tok]
            rows.append([complex(tok) for tok in entries])
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


def _synthesis_record(target: TargetGate, length: int, seed: int, result) -> list[str]:
    fid = result.fidelity
    return [
        f"target={target.name}",
        f"length={length}",
        "betas=" + ";".join(f"{b:.17g}" for b in result.sequence.betas),
        f"infidelity_magnitude={1.0 - fid.magnitude:.17g}",
        f"infidelity_phase_sensitive={1.0 - fid.phase_sensitive:.17g}",
        f"evaluations={result.evaluations}",
        f"restarts_used={result.restarts_used}",
        f"seed={seed}",
        f"converged={'true' if result.converged else 'false'}",
    ]


def _cmd_synth(args) -> tuple[RunReport, int]:
    target = _resolve_target(args.target)
    config = OptimizerConfig(restarts=args.restarts)
    result = synthesize(target, args.length, config, rng_seed=args.seed)

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
    report.check(
        "converged",
        result.converged,
        f"infidelity {1.0 - result.fidelity.magnitude:.3e} <= {config.tolerance:.0e}",
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(_synthesis_record(target, args.length, args.seed, result)) + "\n")
        report.values["out"] = args.out
    return report, EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_catalog(args) -> tuple[RunReport, int]:
    report = RunReport("catalog")
    config = OptimizerConfig()
    deviation_magnitude = 0.0
    deviation_phase = 0.0
    for entry in catalog():
        name = entry.target.name
        fid = fidelity(compose(entry.sequence), entry.target.matrix)
        refined = refine(entry.target, entry.sequence.betas, config)
        report.values[f"{name}_betas"] = ";".join(f"{b:g}" for b in entry.sequence.betas)
        report.values[f"{name}_claimed"] = entry.claimed_fidelity
        report.values[f"{name}_composed"] = fid.magnitude
        report.values[f"{name}_refined"] = refined.fidelity.magnitude
        report.check(
            f"reproduction_{name}",
            fid.magnitude >= 1.0 - 1e-5,
            f"composed fidelity {fid.magnitude:.11f} >= {1.0 - 1e-5:.5f}",
        )
        report.check(
            f"refinement_{name}",
            refined.fidelity.magnitude >= entry.claimed_fidelity - 1e-10,
            f"refined {refined.fidelity.magnitude:.11f} >= claimed {entry.claimed_fidelity:.11f} - 1e-10",
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
            raise ValueError("sweep spec must be 'start:stop:count'")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("sweep count must be >= 1")
        return [float(b) for b in np.linspace(start, stop, count)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _trajectory_rows(beta: float, times: np.ndarray, points: np.ndarray) -> str:
    """CSV rows of one beta: branches "0" and "1" at every time, then the
    one-period endpoint map as "0_final" and "1_final" at the last time.

    ``points`` has shape (samples, 2, 3): the Bloch vectors of U(t)|0> and
    U(t)|1> at each time.
    """
    t = np.broadcast_to(times[:, None, None], points.shape[:2] + (1,))
    rows = np.concatenate([t, points], axis=2)  # (samples, 2, 4): t, x, y, z
    row = f"{beta:.17g},%.17g,{{}},%.17g,%.17g,%.17g\n"
    resolved = (row.format("0") + row.format("1")) * len(times)
    final = row.format("0_final") + row.format("1_final")
    return resolved % tuple(rows.ravel().tolist()) + final % tuple(rows[-1].ravel().tolist())


def _cmd_trajectory(args) -> tuple[RunReport, int]:
    betas = _parse_beta_spec(args.beta)
    if not betas:
        raise ValueError("no beta values given")
    if args.samples < 2:
        raise ValueError(f"samples must be >= 2, got {args.samples}")

    chunks = []
    worst_sphere = 0.0
    for beta in betas:
        p = params_from_beta(HolonomicGate(beta))  # validates the range
        times = np.linspace(0.0, p.period, args.samples)
        # swap the matrix axes so the last axis runs over a column's entries
        points = bloch_vectors(np.swapaxes(exact_propagator(p, times), -1, -2))
        sphere = np.abs(np.sum(points**2, axis=-1) - 1.0)
        worst_sphere = max(worst_sphere, float(np.max(sphere)))
        chunks.append(_trajectory_rows(beta, times, points))

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("beta,t,branch,x,y,z\n")
        fh.write("".join(chunks))

    report = RunReport(
        "trajectory",
        params={"beta": args.beta, "samples": args.samples, "out": args.out},
    )
    report.values["n_betas"] = len(betas)
    report.values["n_rows"] = len(betas) * (2 * args.samples + 2)
    report.values["max_sphere_deviation"] = worst_sphere
    report.check("on_sphere", worst_sphere <= 1e-10, f"{worst_sphere:.3e} <= 1e-10")
    return report, EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p_verify.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_verify.add_argument("--machine", action="store_true")

    p_synth = sub.add_parser("synth", help="search for a pulse sequence hitting a target")
    p_synth.add_argument("--target", required=True, help="NOT|Hadamard|Phase|T or a matrix file")
    p_synth.add_argument("--length", type=int, required=True)
    p_synth.add_argument("--restarts", type=int, default=100)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", help="write the synthesis record to this file")
    p_synth.add_argument("--machine", action="store_true")

    p_catalog = sub.add_parser("catalog", help="recompose and refine the published sequences")
    p_catalog.add_argument("--machine", action="store_true")

    p_traj = sub.add_parser("trajectory", help="export Bloch trajectories as CSV")
    p_traj.add_argument(
        "--beta", required=True, help="comma list '0.1,0.5' or sweep 'start:stop:count'"
    )
    p_traj.add_argument("--samples", type=int, default=100, help="time samples per period")
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
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    report.wall_time_s = time.perf_counter() - start
    print(_render(report, machine=args.machine))
    return code


if __name__ == "__main__":
    sys.exit(main())
