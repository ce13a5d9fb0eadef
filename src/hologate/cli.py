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
import io
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
    _closed_pairs,
    aa_eigenphases,
    exact_propagator,
    full_report,
    invariant_residual,
)
from .su2 import fidelity, max_abs, pair_bloch
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
#: Largest ``trajectory --samples``. A beta's times are evaluated and written
#: TRAJECTORY_CHUNK_SAMPLES at a time, so one beta peaks at ~2.4 MB whatever
#: its samples (tracemalloc: 2.41 MB at 3 x 10^5 and 2.52 MB at 10^6). The cap
#: bounds the run's time, ~2-5 s and a 160 MB file at 10^6 samples a beta,
#: not its memory.
MAX_TRAJECTORY_SAMPLES = 1_000_000
#: Most time samples, summed over its betas, that ``trajectory`` evaluates and
#: writes at once: a chunk is as many whole betas as fit, or a piece of one
#: beta's times. Its line grid is allocated once per sweep and its ",t,",
#: branch and separator columns filled once per piece of a beta's times, so
#: once per sweep when a beta fits in a chunk. The 50 x 200 sweep, 10 betas a
#: chunk, peaks at ~2.4 MB (tracemalloc).
TRAJECTORY_CHUNK_SAMPLES = 2**11
#: Largest count in ``trajectory --beta start:stop:count``. The sweep is held
#: as one array of betas, of which only the ends are validated, and its drives
#: are built a chunk at a time: the peak grows by ~14 B per beta (tracemalloc,
#: 10^4 to 10^5 betas), so the cap bounds the run's time, ~9 s at 2 samples,
#: not its memory.
MAX_SWEEP_BETAS = 1_000_000
#: Largest ``synth --length``. A batch of 128 starts peaks at ~43 kB per pulse
#: (tracemalloc: 42.7 kB at length 200, 42.5 kB at 2,000), so the cap bounds
#: the search at ~0.43 GB.
MAX_SYNTH_LENGTH = 10_000
#: Most bytes read of a ``synth --target`` matrix file, far above the ~100 B
#: of a 2x2 matrix: a longer file, or an endless one such as /dev/zero, is
#: rejected after this many bytes.
MAX_MATRIX_FILE_BYTES = 64 * 1024
#: C in the trajectory_dynamical_phase bound C (T / steps)^2. Over 52 beta in
#: [0.02, 1.55], max |gamma_traj| (steps / T)^2 measured 0.0589 at 16, 10^3,
#: 10^4, 10^5 and 10^6 steps (0.0589 also on 1001 beta over [0, pi/2]).
TRAJECTORY_PHASE_COEFF = 0.07
#: k in the invariant_equation bound min(1e-8, k invariant_rounding(p)).
#: Over 20,000 seeded drives that the tests do not use
#: (``tests/invariant_sweep.py``) the residual measured at most 3.0
#: invariant_rounding(p), 3 eta at a subnormal Omega with w, |Delta| < 1/2;
#: at most 1.81 with a normal Omega, and 0.99 at w = 1.
INVARIANT_ROUNDING_COEFF = 5.0
#: Every constant check bound, by check name; a check passes when its measured
#: value is <= its bound. ``trajectory_dynamical_phase``
#: (TRAJECTORY_PHASE_COEFF) scales with its inputs, and ``invariant_equation``
#: takes the smaller of its entry and INVARIANT_ROUNDING_COEFF
#: invariant_rounding(p), so the scaling can only tighten it.
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
    "invariant_equation": 1e-8,  # max |dI/dt + i[H, I]|, dI/dt in closed form
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


def _cmd_gate(args) -> RunReport:
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
    return report


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


def invariant_rounding(p: DriveParams) -> float:
    """(eps Omega + eta)(Omega + |Delta| + w) + eta, the rounding scale of
    ``invariant_residual``, with eta = 2^-1074 the smallest subnormal.

    Each entry of dI/dt + i [H, I] sums products of Omega exp(-i w t) with
    Omega, Delta or w. Under gradual underflow a product rounds by eps
    relative plus at most eta/2 absolute (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 2.1): the error of a subnormal
    Omega exp(-i w t) is carried by the field it multiplies, and a product
    that itself underflows adds the last eta."""
    eta = math.ulp(0.0)
    fields = p.omega_rabi + abs(p.detuning) + p.omega_drive
    return (sys.float_info.epsilon * p.omega_rabi + eta) * fields + eta


def verify_checks(p: DriveParams, steps: int, analytic=None) -> tuple[dict, dict]:
    """``verify`` on drive ``p`` at ``steps`` steps, in ``--machine`` order: (values,
    {check: (value, bound)}). ``analytic``, the gate to match, adds analytic_agreement."""
    rep = full_report(p, steps)
    alpha_cf = lr_phase(p, p.period)
    v = {"lam": eigensystem(p, 0.0).lam}
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
        invariant_residual(p, frac * p.period) for frac in (0.1, 0.3, 0.5, 0.7, 0.9)
    )
    if analytic is not None:
        v["analytic_gate_error"] = max_abs(rep.propagator - analytic)
    _put_matrix(v, "u", rep.propagator)

    checks = {
        "unitarity": (v["unitarity_defect"], CHECK_BOUNDS["unitarity"]),
        "holonomy_integrand": (rep.max_integrand, CHECK_BOUNDS["holonomy_integrand"]),
        "dynamical_phase": (max(map(abs, rep.gamma_dynamical)), CHECK_BOUNDS["dynamical_phase"]),
        "trajectory_dynamical_phase": (
            max(map(abs, rep.gamma_dynamical_trajectory)),
            TRAJECTORY_PHASE_COEFF * (p.period / steps) ** 2,
        ),
        "total_phase": (v["alpha_error"], CHECK_BOUNDS["total_phase"]),
        "aa_correspondence": (v["aa_error"], CHECK_BOUNDS["aa_correspondence"]),
        "spectral_agreement": (v["spectral_error"], CHECK_BOUNDS["spectral_agreement"]),
        "spectral_exact": (v["spectral_exact_error"], CHECK_BOUNDS["spectral_exact"]),
        "transitionless": (rep.transitionless_defect, CHECK_BOUNDS["transitionless"]),
        "invariant_equation": (
            v["invariant_residual"],
            min(CHECK_BOUNDS["invariant_equation"], INVARIANT_ROUNDING_COEFF * invariant_rounding(p)),
        ),
    }
    if analytic is not None:
        checks["analytic_agreement"] = v["analytic_gate_error"], CHECK_BOUNDS["analytic_agreement"]
    return v, checks


def _cmd_verify(args) -> RunReport:
    if (args.beta is None) == (args.drive is None):
        raise ValueError("give exactly one of --beta or --drive")
    if args.steps > MAX_VERIFY_STEPS:
        raise ValueError(f"steps must be <= {MAX_VERIFY_STEPS}, got {args.steps}")
    if args.beta is not None:
        gate = HolonomicGate(args.beta)
        p, analytic = params_from_beta(gate), analytic_gate(gate)
        params = {"beta": args.beta, "steps": args.steps}
    else:
        p, analytic = _parse_drive(args.drive), None
        params = {"drive": args.drive, "steps": args.steps}
    return RunReport("verify", params, *verify_checks(p, args.steps, analytic))


def _parse_matrix_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read(MAX_MATRIX_FILE_BYTES + 1)
    if len(data) > MAX_MATRIX_FILE_BYTES:
        raise ValueError(f"{path}: longer than {MAX_MATRIX_FILE_BYTES} bytes, too long for a matrix")
    rows = []
    try:
        # lines split as a file opened in text mode splits them
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
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
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
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
    except (FileNotFoundError, IsADirectoryError):
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


def _cmd_synth(args) -> RunReport:
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
    report.values["coordinates"] = result.coordinates
    report.values["converged"] = result.converged
    report.check("converged", 1.0 - result.fidelity.magnitude, CHECK_BOUNDS["converged"])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_synthesis_record(report))
        report.values["out"] = args.out
    return report


def _cmd_catalog(args) -> RunReport:
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
    return report


def _parse_beta_spec(text: str) -> np.ndarray:
    """The betas of a comma list '0.1,0.5' or a sweep 'start:stop:count',
    validated by ``HolonomicGate``. A sweep's betas lie between its first and
    last, so only those two are validated."""
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
            betas = np.linspace(start, stop, count)
        bounding = betas[[0, -1]]
    else:
        betas = bounding = np.array(
            [_number(tok, "--beta entry") for tok in text.split(",") if tok.strip()]
        )
    if not betas.size:
        raise ValueError("no beta values given")
    for beta in bounding.tolist():
        HolonomicGate(beta)
    return betas


#: Columns of one field in ``_g17``'s grid: the longest ``%.17g`` of a
#: double, as in "-2.2250738585072014e-308".
_G17_WIDTH = 24


@functools.cache
def _g17_tables():
    """The lookup tables of ``_g17``, built with numpy on its first call, so
    that importing the CLI builds none of them:
    - ``digits[d]``: the 4 ASCII digits of d < 10^4, as the bytes of a uint32;
    - ``zeros[d]``: the trailing zeros of those 4 digits (4 for 0000);
    - ``heads[10 h + lead]``: a field's first 8 bytes, as a uint64: head
      h = 4 sign + k ("0.", "0.0", ... "-0.000", with k zeros after the
      point), NUL-padded, then the lead digit;
    - ``tails[:, z]``: the mask, as 2 uint64, that clears the last z of the
      16 digit bytes after the lead;
    - the scales 10^(16 - E) for the decades E = -4 .. -1 (exact doubles).
    """
    d = np.arange(10_000)
    quads = np.stack((d // 1000, d // 100 % 10, d // 10 % 10, d % 10), axis=1) + ord("0")
    digits = quads.astype(np.uint8).view(np.uint32).ravel()
    zeros = (d % 10 == 0).astype(np.uint8) + (d % 100 == 0) + (d % 1000 == 0) + (d == 0)
    heads = np.zeros((8, 10, 8), np.uint8)
    for h in range(8):
        head = np.frombuffer(b"-" * (h // 4) + b"0." + b"0" * (h % 4), np.uint8)
        heads[h, :, : head.size] = head
    heads[..., 7] = ord("0") + np.arange(10)
    tails = np.where(np.arange(16) < np.arange(16, -1, -1)[:, None], 0xFF, 0).astype(np.uint8)
    return (
        digits,
        zeros,
        heads.reshape(80, 8).view(np.uint64).ravel(),
        tails.view(np.uint64).T.copy(),
        np.array([1e20, 1e19, 1e18, 1e17]),
    )


def _g17(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` of every double v in the 1-D ``values``, as the rows
    of a NUL-padded (len(values), ``_G17_WIDTH``) uint8 grid: row i without
    its NUL bytes is the text of ``values[i]``.

    Every v with 1e-4 <= |v| < 1 is written from integer digits: ``%.17g``
    writes it as "0." and its 17 significant digits, correctly rounded, ties
    to even, with trailing zeros stripped. Every other v (0, |v| >= 1,
    |v| < 1e-4, non-finite) takes Python's ``%``. Only comparisons, IEEE
    multiply, add, subtract, ``rint``, exact casts and integer arithmetic
    reach the digits, so they do not depend on how numpy dispatches its
    loops.
    """
    digits, zeros, heads, tails, scales = _g17_tables()
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1.0)  # NaN fails both
    a = np.where(fast, a, 0.5)
    # the decade E = floor(log10 a) as E + 4, 0 to 3, from the doubles
    # nearest 10^-3, 10^-2 and 10^-1. Each lies above its power of ten, as
    # 1e-4 does, and no double lies between the two, so E is exact.
    e = sum((a >= bound).view(np.uint8) for bound in (1e-3, 1e-2, 1e-1))
    # Dekker's TwoProduct without FMA (Numer. Math. 18, 224 (1971)): 2^27 + 1
    # splits each factor into two 26-bit halves, and a * 10^(16 - E) = p + err
    b = scales.take(e)
    c = 134217729.0 * a
    a_high = c - (c - a)
    a_low = a - a_high
    c = 134217729.0 * b
    b_high = c - (c - b)
    b_low = b - b_high
    p = a * b
    err = ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low
    # As E is exact, 1e16 <= p + err < 1e17 - 8: the largest doubles below
    # 1e-3, 1e-2, 1e-1 and 1 scale to 1e17 - 19.6, - 15.3, - 8.3 and - 11.1.
    # So 1e16 <= p <= 1e17 - 16, err >= 0 where p = 1e16, and, p >= 2^53
    # being an even integer and |err| <= 8, n is p + err rounded to an
    # integer, ties to even: the 17 digits.
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # quotient and remainder by // and a product: numpy's divmod and % take
    # several times as long as // by a constant
    high = n // 10**8
    high, low = high.astype(np.uint32), (n - high * 10**8).astype(np.uint32)
    rest, g3 = high // 10**4, low // 10**4
    lead = rest // 10**4
    g1, g2, g4 = rest - lead * 10**4, high - rest * 10**4, low - g3 * 10**4
    # trailing zeros of the 16 digits after the lead, a group of 4 at a time
    z = zeros.take(g4) + (g4 == 0) * (
        zeros.take(g3) + (g3 == 0) * (zeros.take(g2) + (g2 == 0) * zeros.take(g1))
    )
    text = np.empty((values.size, _G17_WIDTH), np.uint8)
    words = text.view(np.uint64)
    # the sign, then -1 - E zeros after "0.", then the lead digit
    words[:, 0] = heads.take(40 * (values < 0) + 10 * (3 - e) + lead)
    groups = text.view(np.uint32)  # bytes 8 to 23: the groups g1 .. g4
    groups[:, 2], groups[:, 3] = digits.take(g1), digits.take(g2)
    groups[:, 4], groups[:, 5] = digits.take(g3), digits.take(g4)
    words[:, 1] &= tails[0].take(z)
    words[:, 2] &= tails[1].take(z)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = _text_grid([b"%.17g" % v for v in values[slow].tolist()], _G17_WIDTH)
    return text


def _text_grid(texts: list[bytes] | tuple[bytes, ...], width: int | None = None) -> np.ndarray:
    """``texts`` in the rows of a NUL-padded uint8 grid of ``width`` columns
    (the longest text's by default). A longer text would be cut to ``width``,
    so every width passed is the longest its texts can be."""
    return np.array(texts, dtype=f"S{width or ''}").view(np.uint8).reshape(len(texts), -1)


#: The branch field of a beta's rows with its comma: "0" and "1" at every
#: time, then the one-period endpoint map at the last time.
_BRANCHES = (b"0,", b"1,", b"0_final,", b"1_final,")
#: The columns of a trajectory line in its grid: the beta, the ",t," stamp
#: and the branch, each NUL-padded, then from column _FIELDS on x, y and z
#: in cells of _CELL columns: a sign byte ("-" or NUL), the ``_g17`` text of
#: the field's magnitude, and the separator after it.
_LABEL = slice(0, _G17_WIDTH)
_STAMP = slice(_G17_WIDTH, 2 * _G17_WIDTH + 2)
_BRANCH = slice(2 * _G17_WIDTH + 2, 2 * _G17_WIDTH + 10)
_FIELDS = _BRANCH.stop
_CELL = _G17_WIDTH + 2
_LINE_WIDTH = _FIELDS + 3 * _CELL
#: The magnitudes formatted per (beta, time), as the (column, axis) indices
#: of ``pair_bloch``: |x_0|, |y_0|, |y_1| and |z_0|. |x_1| and |z_1| have the
#: bits of |x_0| and |z_0|, so both branches take their text.
_MAGNITUDES = ((0, 0, 1, 0), (0, 1, 1, 2))


def _piece_times(period: float, samples: int, start: int, stop: int) -> np.ndarray:
    """``np.linspace(0.0, period, samples)[start:stop]``, computed for those
    times only: linspace writes time i as i * (period / (samples - 1)), and
    ``period`` itself last."""
    times = np.arange(start, stop, dtype=float) * (period / (samples - 1))
    if stop == samples:
        times[-1] = period
    return times


def _fill_template(lines: np.ndarray, times: np.ndarray, final: bool) -> None:
    """Write the columns of the line grid ``lines`` (beta, time, branch,
    column) that depend only on a line's place within its beta: the ",t,"
    stamp of each of ``times``, the branch, and the fields' separators. With
    ``final``, the lines of the last time are the endpoint map."""
    stamps = _text_grid([b",%.17g," % t for t in times.tolist()], _STAMP.stop - _STAMP.start)
    lines[..., _STAMP] = stamps[:, None]
    branches = _text_grid(_BRANCHES)
    lines[..., _BRANCH] = branches[:2]
    if final:
        lines[:, -1, :, _BRANCH] = branches[2:]
    lines[..., _FIELDS + _CELL - 1 :: _CELL] = np.frombuffer(b",,\n", np.uint8)


def _cmd_trajectory(args) -> RunReport:
    # every beta is validated before --out is opened, so a bad one leaves no file
    betas = _parse_beta_spec(args.beta)
    samples = args.samples
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if samples > MAX_TRAJECTORY_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_TRAJECTORY_SAMPLES}, got {samples}")

    # HolonomicGate drives at frequency 1 whatever beta, so one period serves all
    period = params_from_beta(HolonomicGate(float(betas[0]))).period
    # a chunk is the betas, or the piece of one beta's times, evaluated at once
    piece = min(samples, TRAJECTORY_CHUNK_SAMPLES)
    per_chunk = min(len(betas), max(1, TRAJECTORY_CHUNK_SAMPLES // samples))
    # per beta, the lines of both branches at each time of a piece, and at
    # the last time again for the endpoint map
    grid = np.zeros((per_chunk, piece + 1, 2, _LINE_WIDTH), np.uint8)
    filled = None
    worst_sphere = 0.0
    with open(args.out, "wb") as fh:
        fh.write(b"beta,t,branch,x,y,z\n")
        for first in range(0, len(betas), per_chunk):
            chunk = betas[first : first + per_chunk].tolist()
            drives = [params_from_beta(HolonomicGate(beta)) for beta in chunk]
            labels = _text_grid([b"%.17g" % beta for beta in chunk], _G17_WIDTH)
            grid[: len(chunk), ..., _LABEL] = labels[:, None, None]
            for start in range(0, samples, piece):
                stop = min(start + piece, samples)
                times = _piece_times(period, samples, start, stop)
                if stop == samples:
                    times = np.append(times, times[-1])
                if filled != (start, stop):
                    filled = start, stop
                    _fill_template(grid[:, : len(times)], times, stop == samples)
                points = pair_bloch(*_closed_pairs(drives, times))
                squares = points * points
                sphere = np.max(np.abs((squares[..., 0] + squares[..., 1]) + squares[..., 2] - 1.0))
                # np.maximum keeps a NaN, where max(0.0, nan) would drop it
                worst_sphere = float(np.maximum(worst_sphere, sphere))
                lines = grid[: len(chunk), : len(times)]
                cells = lines[..., _FIELDS:].reshape(lines.shape[:-1] + (3, _CELL))
                cells[..., 0] = (points < 0.0) * np.uint8(ord("-"))
                text = _g17(np.abs(points[..., _MAGNITUDES[0], _MAGNITUDES[1]]).ravel())
                text = text.reshape(points.shape[:2] + (4, _G17_WIDTH))
                digits = cells[..., 1 : 1 + _G17_WIDTH]
                digits[..., 0, :] = text[:, :, None, 0]
                digits[..., 1, :] = text[:, :, 1:3]
                digits[..., 2, :] = text[:, :, None, 3]
                fh.write(lines[lines != 0])

    report = RunReport(
        "trajectory",
        params={"beta": args.beta, "samples": samples, "out": args.out},
    )
    report.values["n_betas"] = len(betas)
    report.values["n_rows"] = len(betas) * (2 * samples + 2)
    report.values["max_sphere_deviation"] = worst_sphere
    report.check("on_sphere", worst_sphere, CHECK_BOUNDS["on_sphere"])
    return report


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
    in one process. An argv that argparse rejects raises SystemExit(2). Each
    handler returns its RunReport, and a report with a failed check exits 1."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report = _HANDLERS[args.command](args)
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
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
