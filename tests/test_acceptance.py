"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they are produced.
"""

import math
import time

import numpy as np
import pytest

from hologate import (
    DriveParams,
    HolonomicGate,
    PulseSequence,
    analytic_gate,
    catalog,
    compose,
    dynamical_integrand,
    fidelity,
    invariant_residual,
    max_abs,
    noncommutativity_witness,
    params_from_beta,
    propagate,
    refine,
    standard_target,
    synthesize,
)
from hologate.cli import CHECK_BOUNDS, verify_checks
from hologate.cli import main as cli_main

BETA_GRID = np.linspace(0.0, math.pi / 2, 20)
TWO_PI = 2.0 * math.pi


def emit(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def circular_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, TWO_PI))


@pytest.fixture(scope="module")
def verified():
    """({beta: verify_checks at 10,000 steps} over BETA_GRID, seconds taken)."""
    start = time.perf_counter()
    runs = {}
    for beta in map(float, BETA_GRID):
        gate = HolonomicGate(beta)
        runs[beta] = verify_checks(params_from_beta(gate), 10_000, analytic_gate(gate))
    return runs, time.perf_counter() - start


def test_criterion_1_catalog_reproduction():
    start = time.perf_counter()
    worst_composed = 1.0
    worst_margin = math.inf
    for row in catalog():
        composed = fidelity(compose(row.sequence), row.target.matrix).magnitude
        refined = refine(row.target, row.sequence.betas).fidelity.magnitude
        worst_composed = min(worst_composed, composed)
        worst_margin = min(
            worst_margin, refined - (row.claimed_fidelity - CHECK_BOUNDS["refinement"])
        )
    elapsed = time.perf_counter() - start
    composed_ok = worst_composed >= 1.0 - CHECK_BOUNDS["reproduction"]
    passed = composed_ok and worst_margin >= 0.0 and elapsed < 1.0
    emit(
        1,
        passed,
        f"composed fidelity >= {worst_composed:.11f}, refinement margin {worst_margin:.2e}, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_2_analytic_numeric_agreement(verified):
    runs, elapsed = verified
    start = time.perf_counter()
    worst_error = 0.0
    ratios = []
    for beta, (_, checks) in runs.items():
        gate = HolonomicGate(beta)
        p = params_from_beta(gate)
        error_coarse = checks["analytic_agreement"][0]
        error_fine = max_abs(propagate(p, p.period, 20_000) - analytic_gate(gate))
        worst_error = max(worst_error, error_coarse)
        if error_coarse > 1e-10:
            ratios.append(error_coarse / error_fine)
    elapsed += time.perf_counter() - start
    ratio_ok = len(ratios) >= 15 and all(2.5 < r < 6.0 for r in ratios)
    bound = CHECK_BOUNDS["analytic_agreement"]
    passed = worst_error <= bound and ratio_ok and elapsed < 10.0
    emit(
        2,
        passed,
        f"max |U_num - U_analytic| = {worst_error:.2e} <= {bound:.0e}, "
        f"doubling ratio ~ {np.median(ratios):.2f}x over {len(ratios)} betas, {elapsed:.1f}s < 10s",
    )


def test_criterion_3_holonomy_verification(verified):
    runs, _ = verified
    times = np.linspace(0.0, TWO_PI, 1000)
    worst_integrand = 0.0
    worst_gamma = 0.0
    for beta, (_, checks) in runs.items():
        p = params_from_beta(HolonomicGate(beta))
        for t in times:
            for branch in "+-":
                worst_integrand = max(
                    worst_integrand, abs(dynamical_integrand(p, float(t), branch))
                )
        worst_gamma = max(worst_gamma, checks["dynamical_phase"][0])
    control_gamma = verify_checks(DriveParams(1.0, 1.0, 1.0), 10_000)[1]["dynamical_phase"][0]
    integrand_bound = CHECK_BOUNDS["holonomy_integrand"]
    gamma_bound = CHECK_BOUNDS["dynamical_phase"]
    passed = (
        worst_integrand <= integrand_bound and worst_gamma <= gamma_bound and control_gamma > 0.1
    )
    emit(
        3,
        passed,
        f"max integrand {worst_integrand:.2e} <= {integrand_bound:.0e}, "
        f"max |gamma_d| {worst_gamma:.2e} <= {gamma_bound:.0e}, "
        f"non-holonomic max |gamma_d| = {control_gamma:.3f} > 0.1",
    )


def test_criterion_4_invariant_equation():
    rng = np.random.default_rng(20260809)
    worst_residual = 0.0
    ratios = []
    for _ in range(100):
        p = DriveParams(
            omega_rabi=float(rng.uniform(0.0, 2.0)),
            detuning=float(rng.uniform(-1.0, 2.0)),
            omega_drive=float(rng.uniform(0.5, 2.0)),
        )
        t = float(rng.uniform(0.0, 10.0))
        worst_residual = max(worst_residual, invariant_residual(p, t, 1e-5))
        coarse = invariant_residual(p, t, 1e-4)
        fine = invariant_residual(p, t, 5e-5)
        if fine > 1e-12:
            ratios.append(coarse / fine)
    median_ratio = float(np.median(ratios))
    bound = CHECK_BOUNDS["invariant_equation"]
    passed = worst_residual <= bound and 3.5 < median_ratio < 4.5
    emit(
        4,
        passed,
        f"max residual {worst_residual:.2e} <= {bound:.0e} at h=1e-5, "
        f"median halving ratio {median_ratio:.2f} (O(h^2))",
    )


def test_criterion_5_phase_correspondence(verified):
    runs, _ = verified
    worst_phase = 0.0
    worst_alpha = 0.0
    for beta, (values, checks) in runs.items():
        expected = sorted(
            (
                (math.pi * (1.0 - math.sin(beta))) % TWO_PI,
                (math.pi * (1.0 + math.sin(beta))) % TWO_PI,
            )
        )
        observed = sorted((values["aa_eigenphase_plus"], values["aa_eigenphase_minus"]))
        direct = max(circular_distance(x, y) for x, y in zip(observed, expected))
        swapped = max(circular_distance(x, y) for x, y in zip(observed, expected[::-1]))
        worst_phase = max(worst_phase, min(direct, swapped))
        worst_alpha = max(worst_alpha, checks["total_phase"][0])
    alpha_bound = CHECK_BOUNDS["total_phase"]
    passed = worst_phase <= 1e-6 and worst_alpha <= alpha_bound
    emit(
        5,
        passed,
        f"max eigenphase mismatch {worst_phase:.2e} <= 1e-6, "
        f"max |alpha_num - alpha_closed| {worst_alpha:.2e} <= {alpha_bound:.0e}",
    )


def test_criterion_6_spectral_propagator(verified):
    runs, _ = verified
    worst = max(checks["spectral_agreement"][0] for _, checks in runs.values())
    bound = CHECK_BOUNDS["spectral_agreement"]
    passed = worst <= bound
    emit(6, passed, f"max |U_spectral - U_direct| = {worst:.2e} <= {bound:.0e}")


def test_criterion_7_fresh_synthesis():
    cases = [("NOT", 4), ("Hadamard", 7), ("Phase", 4), ("T", 3)]
    details = []
    passed = True
    for name, length in cases:
        start = time.perf_counter()
        result = synthesize(standard_target(name), length, 200, rng_seed=20260809)
        elapsed = time.perf_counter() - start
        infidelity = 1.0 - result.fidelity.magnitude
        ok = (
            result.converged
            and infidelity <= 1e-9
            and result.restarts_used <= 200
            and elapsed < 60.0
        )
        passed = passed and ok
        details.append(
            f"{name}@{length}: infidelity {infidelity:.1e} in {result.restarts_used} restarts, "
            f"{elapsed:.1f}s"
        )
    emit(7, passed, "; ".join(details))


def test_criterion_8_universality_witness():
    witness = noncommutativity_witness(math.pi / 6, math.pi / 3)
    rng = np.random.default_rng(8)
    worst_det = 0.0
    worst_unitarity = 0.0
    for _ in range(50):
        seq = PulseSequence(tuple(rng.uniform(0.0, math.pi / 2, 8)))
        u = compose(seq)
        worst_det = max(worst_det, abs(np.linalg.det(u) - 1.0))
        worst_unitarity = max(worst_unitarity, max_abs(u.conj().T @ u - np.eye(2)))
    passed = witness > 0.1 and worst_det <= 1e-11 and worst_unitarity <= 1e-11
    emit(
        8,
        passed,
        f"witness(pi/6, pi/3) = {witness:.3f} > 0.1, det defect {worst_det:.1e}, "
        f"unitarity defect {worst_unitarity:.1e} <= 1e-11",
    )


def test_criterion_9_trajectory_sanity(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "trajectory",
            "--beta", f"0:{math.pi / 2}:9",
            "--samples", "64",
            "--out", str(out_file),
        ]
    )
    capsys.readouterr()
    lines = out_file.read_text().splitlines()
    worst_sphere = 0.0
    worst_pole = 0.0
    for line in lines[1:]:
        beta_s, _, branch, x_s, y_s, z_s = line.split(",")
        beta = float(beta_s)
        x, y, z = float(x_s), float(y_s), float(z_s)
        worst_sphere = max(worst_sphere, abs(x * x + y * y + z * z - 1.0))
        if branch.endswith("_final") and beta in (0.0, math.pi / 2):
            pole = 1.0 if branch.startswith("0") else -1.0
            worst_pole = max(worst_pole, abs(x), abs(y), abs(z - pole))
    sphere_bound = CHECK_BOUNDS["on_sphere"]
    passed = code == 0 and worst_sphere <= sphere_bound and worst_pole <= 1e-10
    emit(
        9,
        passed,
        f"max |x^2+y^2+z^2 - 1| = {worst_sphere:.1e} <= {sphere_bound:.0e}, "
        f"pole deviation at beta = 0, pi/2: {worst_pole:.1e}",
    )
