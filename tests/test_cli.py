import argparse
import contextlib
import io
import math
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hologate.cli as cli
import hologate.evolution as evolution
from hologate import (
    DriveParams,
    HolonomicGate,
    analytic_gate,
    bloch_vectors,
    exact_propagator,
    max_abs,
    params_from_beta,
)
from hologate.cli import (
    CHECK_BOUNDS,
    MAX_SWEEP_BETAS,
    MAX_SYNTH_LENGTH,
    MAX_TRAJECTORY_SAMPLES,
    MAX_VERIFY_STEPS,
    RunReport,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_machine(text):
    values = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        values[key] = value
    return values


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,t,branch,x,y,z"
    rows = []
    for line in lines[1:]:
        beta, t, branch, x, y, z = line.split(",")
        rows.append((float(beta), float(t), branch, float(x), float(y), float(z)))
    return rows


# --- gate -------------------------------------------------------------------


def test_gate_machine_output_matches_analytic_gate(capsys):
    code, out, _ = run_cli(capsys, "gate", "--beta", "0.423", "--machine")
    assert code == 0
    values = parse_machine(out)
    u = np.array(
        [
            [complex(values["u00"]), complex(values["u01"])],
            [complex(values["u10"]), complex(values["u11"])],
        ]
    )
    assert max_abs(u - analytic_gate(HolonomicGate(0.423))) == 0.0
    assert float(values["lam"]) == pytest.approx(math.sin(0.423), abs=1e-15)


def test_gate_beta_zero_prints_minus_identity(capsys):
    code, out, _ = run_cli(capsys, "gate", "--beta", "0", "--machine")
    assert code == 0
    values = parse_machine(out)
    assert complex(values["u00"]) == -1.0 and complex(values["u11"]) == -1.0
    assert float(values["omega_rabi"]) == 0.0
    assert float(values["detuning"]) == 1.0


def test_gate_rejects_out_of_range_beta(capsys):
    code, _, err = run_cli(capsys, "gate", "--beta", "2.0")
    assert code == 2
    assert "beta" in err


def test_unknown_flag_aborts():
    with pytest.raises(SystemExit) as excinfo:
        main(["gate", "--beta", "0.3", "--bogus"])
    assert excinfo.value.code == 2


def test_machine_floats_round_trip(capsys):
    _, out, _ = run_cli(capsys, "verify", "--beta", "0.5", "--machine")
    for key, value in parse_machine(out).items():
        if key.startswith(("check_", "command", "u0", "u1")) or key in ("drive",):
            continue
        assert f"{float(value):.17g}" == value, key


# --- checks -----------------------------------------------------------------


def test_check_bounds_are_pinned():
    # a loosened bound would let a regressed run pass, so every entry is pinned
    assert CHECK_BOUNDS == {
        "unitarity": 1e-10,
        "holonomy_integrand": 1e-12,
        "dynamical_phase": 1e-8,
        "total_phase": 1e-6,
        "aa_correspondence": 1e-6,
        "spectral_agreement": 1e-6,
        "spectral_exact": 1e-14,
        "transitionless": 1e-7,
        "invariant_equation": 1e-8,
        "analytic_agreement": 1e-6,
        "reproduction": 1e-5,
        "refinement": 1e-10,
        "converged": 1e-9,
        "on_sphere": 1e-10,
    }


def test_check_passes_at_its_bound_and_fails_on_nan():
    report = RunReport("test")
    report.check("at_bound", 1e-6, 1e-6)
    assert report.all_passed
    report.check("above", 2e-6, 1e-6)
    report.check("nan", math.nan, 1e-6)
    assert list(report.verdicts()) == [
        ("at_bound", True, "1.000e-06 <= 1.000e-06"),
        ("above", False, "2.000e-06 <= 1.000e-06"),
        ("nan", False, "nan <= 1.000e-06"),
    ]
    assert not report.all_passed


def test_verify_checks_take_their_constant_bounds_from_the_table(monkeypatch):
    # stand-in bounds equal to no real one, so a bound written into verify fails
    table = {name: 1000.0 + i for i, name in enumerate(CHECK_BOUNDS)}
    monkeypatch.setattr(cli, "CHECK_BOUNDS", table)
    monkeypatch.setattr(cli, "TRAJECTORY_PHASE_COEFF", 7.0)
    gate = HolonomicGate(0.5)
    p = params_from_beta(gate)
    _, checks = cli.verify_checks(p, 64, analytic_gate(gate))
    bounds = {name: bound for name, (_, bound) in checks.items()}
    assert bounds.pop("trajectory_dynamical_phase") == 7.0 * (p.period / 64) ** 2
    assert set(bounds) <= set(table)
    assert bounds == {name: table[name] for name in bounds}


# --- verify -----------------------------------------------------------------


def test_verify_holonomic_gate_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--beta", "0.5", "--machine")
    assert code == 0
    checks = {k: v for k, v in parse_machine(out).items() if k.startswith("check_")}
    assert checks and all(v == "pass" for v in checks.values())


def test_verify_coarse_steps_exceed_thresholds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--beta", "0.5", "--steps", "16", "--machine")
    assert code == 1
    values = parse_machine(out)
    assert values["check_spectral_agreement"] == "fail"
    assert values["check_unitarity"] == "pass"
    # the spectral form against the closed form takes no step count
    assert values["check_spectral_exact"] == "pass"


# Omega = 1e-13 w and lam = 1e-12 w: an eigenbasis taken from the limit
# Omega -> 0 or lam -> 0 fails spectral_exact on both, and the second drive,
# whose eigenbasis is the z axis, then passes as holonomic
@pytest.mark.parametrize("drive", ["1,1", "1e-13,0.5", "0,0.999999999999"])
def test_verify_non_holonomic_drive_fails_by_design(capsys, drive):
    code, out, _ = run_cli(capsys, "verify", "--drive", drive, "--machine")
    assert code == 1
    values = parse_machine(out)
    assert values["check_holonomy_integrand"] == "fail"
    assert values["check_dynamical_phase"] == "fail"
    # the invariant-based phase bookkeeping still holds off the holonomic family
    assert values["check_total_phase"] == "pass"
    assert values["check_aa_correspondence"] == "pass"
    assert values["check_spectral_agreement"] == "pass"
    assert values["check_spectral_exact"] == "pass"


@given(b=st.floats(-14.0, -3.0).map(lambda e: 10.0**e), near_half_pi=st.booleans())
@example(b=1e-6, near_half_pi=False)  # max_integrand 4.4e-11 with Delta - w read from Delta
@example(b=3e-6, near_half_pi=False)
@example(b=1e-8, near_half_pi=False)  # |gamma_d| 3.1e-8 likewise
def test_verify_passes_every_check_near_the_ends_of_the_family(b, near_half_pi):
    gate = HolonomicGate(math.pi / 2 - b if near_half_pi else b)
    _, checks = cli.verify_checks(params_from_beta(gate), 10_000, analytic_gate(gate))
    report = RunReport("verify", checks=checks)
    assert report.all_passed, [detail for detail in report.verdicts() if not detail[1]]


def test_verify_a_million_steps_passes_unitarity(capsys):
    # beta 0.74 read a 1.46e-10 defect and exit 1 with the unrenormalized product
    code, out, _ = run_cli(capsys, "verify", "--beta", "0.74", "--steps", "1000000", "--machine")
    assert code == 0
    values = parse_machine(out)
    assert values["check_unitarity"] == "pass"
    assert float(values["unitarity_defect"]) <= 1e-15


def test_internal_error_exits_4_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(evolution, "propagate", lambda p, d, n: 1.5 * np.eye(2, dtype=complex))
    code, out, err = run_cli(capsys, "verify", "--beta", "0.3", "--steps", "64", "--machine")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ConsistencyError: propagator unitarity defect")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("steps,expected", [(1_000, 1.85e-6), (10_000, 1.85e-8)])
def test_verify_reports_integrator_error_against_exact_propagator(capsys, steps, expected):
    _, out, _ = run_cli(capsys, "verify", "--beta", "0.423", "--steps", str(steps), "--machine")
    values = parse_machine(out)
    # exact_propagator and analytic_gate agree to rounding on the holonomic family
    assert abs(float(values["exact_error"]) - float(values["analytic_gate_error"])) <= 1e-15
    assert float(values["exact_error"]) == pytest.approx(expected, rel=0.01)


def test_verify_reports_the_dynamical_phase_along_the_propagated_states(capsys):
    code, out, _ = run_cli(capsys, "verify", "--beta", "0.423", "--machine")
    assert code == 0
    values = parse_machine(out)
    assert values["check_trajectory_dynamical_phase"] == "pass"
    # the integrator's error at the default 10^4 steps: measured 1.40e-8 and 5.2e-9
    for key in ("gamma_dynamical_trajectory_plus", "gamma_dynamical_trajectory_minus"):
        assert abs(float(values[key])) <= 2e-8
    assert 0.0 < float(values["max_integrand_trajectory"]) <= 1e-8

    code, out, _ = run_cli(capsys, "verify", "--drive", "1,1", "--machine")
    assert code == 1
    values = parse_machine(out)
    assert values["check_trajectory_dynamical_phase"] == "fail"
    assert float(values["gamma_dynamical_trajectory_plus"]) == pytest.approx(-math.pi, abs=1e-6)


#: The verify --machine keys before the trajectory phase was added, in order.
PREVIOUS_VERIFY_KEYS = (
    "command {param} steps lam gamma_geometric_plus gamma_geometric_minus "
    "gamma_dynamical_plus gamma_dynamical_minus alpha_numeric_plus alpha_numeric_minus "
    "alpha_closed_form_plus alpha_closed_form_minus aa_eigenphase_plus aa_eigenphase_minus "
    "max_integrand transitionless_defect unitarity_defect alpha_error aa_error spectral_error "
    "exact_error invariant_residual {gate_error}u00 u01 u10 u11 check_unitarity "
    "check_holonomy_integrand check_dynamical_phase check_total_phase check_aa_correspondence "
    "check_spectral_agreement check_transitionless check_invariant_equation {gate_check}"
    "wall_time_s"
)


@pytest.mark.parametrize(
    "argv, fill",
    [
        (["--beta", "0.423"], ("beta", "analytic_gate_error ", "check_analytic_agreement ")),
        (["--drive", "1,1"], ("drive", "", "")),
    ],
    ids=["beta", "drive"],
)
def test_verify_machine_keys_change_only_by_addition(capsys, argv, fill):
    param, gate_error, gate_check = fill
    previous = PREVIOUS_VERIFY_KEYS.format(
        param=param, gate_error=gate_error, gate_check=gate_check
    ).split()
    _, out, _ = run_cli(capsys, "verify", *argv, "--steps", "64", "--machine")
    keys = iter(line.partition("=")[0] for line in out.splitlines())
    assert all(key in keys for key in previous)  # an ordered subsequence


def test_verify_rejects_steps_above_the_cap(monkeypatch, capsys):
    # the cap is checked before anything is allocated; never run a huge count
    monkeypatch.setattr("hologate.cli.full_report", lambda *a: pytest.fail("propagated"))
    for steps in (MAX_VERIFY_STEPS + 1, 10_000_000_000):
        code, out, err = run_cli(capsys, "verify", "--beta", "0.3", "--steps", str(steps))
        assert code == 2 and out == ""
        assert err == f"error: steps must be <= {MAX_VERIFY_STEPS}, got {steps}\n"


def test_verify_requires_exactly_one_parameterization(capsys):
    assert run_cli(capsys, "verify")[0] == 2
    assert run_cli(capsys, "verify", "--beta", "0.3", "--drive", "1,1")[0] == 2
    assert run_cli(capsys, "verify", "--drive", "1,1,1,1")[0] == 2


@pytest.mark.parametrize(
    "drive, field",
    [
        ("nan,1", "omega_rabi"),
        ("inf,1", "omega_rabi"),
        ("1,nan", "detuning"),
        ("1,-inf", "detuning"),
    ],
)
def test_verify_rejects_non_finite_drive(capsys, drive, field):
    code, _, err = run_cli(capsys, "verify", "--drive", drive)
    assert code == 2
    assert f"{field} must be finite" in err


@pytest.mark.parametrize("drive, field", [("1e300,1", "omega_rabi"), ("1,1e200", "detuning")])
def test_verify_rejects_overflowing_drive(capsys, drive, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(capsys, "verify", "--drive", drive, "--steps", "16")
    assert code == 2
    assert f"{field} is too large" in err
    assert "Traceback" not in err


@given(
    omega_rabi=st.floats(0.0, allow_infinity=False),
    detuning=st.floats(allow_nan=False, allow_infinity=False),
)
def test_verify_accepted_drives_raise_no_runtime_warning(omega_rabi, detuning):
    argv = ["verify", "--drive", f"{omega_rabi!r},{detuning!r}", "--steps", "16", "--machine"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    # exit 2 only where DriveParams rejects the triple; every accepted drive
    # runs the whole suite to a verdict
    assert code in (0, 1, 2)
    if code == 2:
        with pytest.raises(ValueError, match="too large"):
            DriveParams(omega_rabi, detuning, 1.0)


# --- synth ------------------------------------------------------------------


RECORD_KEYS = [
    "target",
    "length",
    "betas",
    "infidelity_magnitude",
    "infidelity_phase_sensitive",
    "evaluations",
    "restarts_used",
    "seed",
    "converged",
]


def test_synth_writes_complete_record(tmp_path, capsys):
    out_file = tmp_path / "not.rec"
    code, _, _ = run_cli(
        capsys,
        "synth", "--target", "NOT", "--length", "4",
        "--restarts", "200", "--seed", "1", "--out", str(out_file),
    )
    assert code == 0
    record = parse_machine(out_file.read_text())
    assert list(record) == RECORD_KEYS
    assert record["target"] == "NOT"
    assert record["converged"] == "true"
    assert float(record["infidelity_magnitude"]) <= 1e-9
    betas = [float(b) for b in record["betas"].split(";")]
    assert len(betas) == 4 and all(0.0 <= b <= math.pi / 2 for b in betas)


def test_synth_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.rec", tmp_path / "b.rec"]
    for path in paths:
        run_cli(
            capsys,
            "synth", "--target", "T", "--length", "3",
            "--seed", "9", "--out", str(path),
        )
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_synth_matrix_file_target(tmp_path, capsys):
    matrix_file = tmp_path / "not.mat"
    matrix_file.write_text("0 1j\n1j 0\n")
    code, out, _ = run_cli(
        capsys, "synth", "--target", str(matrix_file), "--length", "4",
        "--seed", "1", "--machine",
    )
    assert code == 0
    values = parse_machine(out)
    assert values["target"] == "custom"
    assert float(values["infidelity_magnitude"]) <= 1e-9


def test_synth_machine_output_names_the_coordinates_of_the_result(tmp_path, capsys):
    # NOT is symmetric, so its first starts are palindromes; the Ry(pi/2)
    # rotation [[1, -1], [1, 1]] / sqrt(2) is not, so only general ones run
    matrix_file = tmp_path / "ry.mat"
    h = "0.7071067811865476"
    matrix_file.write_text(f"{h} -{h}\n{h} {h}\n")
    found = {}
    for target in ("NOT", str(matrix_file)):
        code, out, _ = run_cli(capsys, "synth", "--target", target, "--length", "5", "--machine")
        values = parse_machine(out)
        assert code == 0 and values["converged"] == "true"
        assert list(values).index("coordinates") == list(values).index("restarts_used") + 1
        found[values["target"]] = values["coordinates"]
    assert found == {"NOT": "palindromic", "custom": "general"}


def test_synth_identity_matrix_file_converges_at_length_one(tmp_path, capsys):
    # U(0) = -I matches I up to the global sign the magnitude ignores
    matrix_file = tmp_path / "identity.mat"
    matrix_file.write_text("1 0\n0 1\n")
    code, out, _ = run_cli(
        capsys, "synth", "--target", str(matrix_file), "--length", "1", "--machine"
    )
    assert code == 0
    values = parse_machine(out)
    assert values["converged"] == "true"
    assert abs(float(values["betas"])) <= 1e-9


def test_synth_rejects_non_unitary_matrix_file(tmp_path, capsys):
    matrix_file = tmp_path / "bad.mat"
    matrix_file.write_text("1 0\n0 2\n")
    code, _, err = run_cli(capsys, "synth", "--target", str(matrix_file), "--length", "2")
    assert code == 2
    assert "unitary" in err


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_synth_rejects_non_finite_matrix_file(tmp_path, entry):
    matrix_file = tmp_path / "bad.mat"
    matrix_file.write_text(f"{entry} 0\n0 1\n")
    result = subprocess.run(
        [sys.executable, "-m", "hologate.cli", "synth", "--target", str(matrix_file), "--length", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "finite" in result.stderr
    assert "Traceback" not in result.stderr


def test_synth_rejects_overflowing_matrix_file_with_one_line(tmp_path):
    # u† u overflows to inf and NaN: the matrix is not unitary, and no numpy
    # warning may precede the error line
    matrix_file = tmp_path / "huge.mat"
    matrix_file.write_text("1e300 0\n0 1\n")
    result = subprocess.run(
        [sys.executable, "-m", "hologate.cli", "synth", "--target", str(matrix_file), "--length", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error:")


def test_synth_rejects_a_negative_seed_by_name(monkeypatch, capsys):
    monkeypatch.setattr("hologate.cli.synthesize", lambda *a, **k: pytest.fail("searched"))
    code, out, err = run_cli(capsys, "synth", "--target", "NOT", "--length", "2", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_synth_rejects_unknown_target_name(capsys):
    code, _, err = run_cli(capsys, "synth", "--target", "CNOT", "--length", "2")
    assert code == 2
    assert "CNOT" in err


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_synth_rejects_non_positive_restarts(capsys, restarts):
    code, _, err = run_cli(
        capsys, "synth", "--target", "NOT", "--length", "2", "--restarts", restarts
    )
    assert code == 2
    assert "restarts must be >= 1" in err


def test_synth_rejects_length_above_the_cap(monkeypatch, capsys):
    # the cap is checked before the search allocates; never run a huge length
    monkeypatch.setattr("hologate.cli.synthesize", lambda *a, **k: pytest.fail("searched"))
    for length in (MAX_SYNTH_LENGTH + 1, 10_000_000_000):
        code, out, err = run_cli(capsys, "synth", "--target", "NOT", "--length", str(length))
        assert code == 2 and out == ""
        assert err == f"error: length must be <= {MAX_SYNTH_LENGTH}, got {length}\n"


def test_synth_single_pulse_not_does_not_converge(capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--target", "NOT", "--length", "1",
        "--restarts", "10", "--machine",
    )
    assert code == 1
    assert parse_machine(out)["converged"] == "false"


# --- catalog ----------------------------------------------------------------


def test_catalog_reproduces_published_numbers(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--machine")
    assert code == 0
    values = parse_machine(out)
    assert values["matching_convention"] == "magnitude"
    assert float(values["NOT_claimed"]) == 0.99999999990
    for name in ("NOT", "Hadamard", "Phase", "T"):
        assert values[f"check_reproduction_{name}"] == "pass"
        assert values[f"check_refinement_{name}"] == "pass"
        assert float(values[f"{name}_refined"]) >= float(values[f"{name}_claimed"]) - 1e-10


# --- trajectory ---------------------------------------------------------------


def test_trajectory_sweep_endpoints_fix_poles(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "trajectory", "--beta", f"0:{math.pi / 2}:5",
        "--samples", "20", "--out", str(out_file),
    )
    assert code == 0
    # the exact zeros of t = 0 and beta = 0 print as 0, never as -0
    assert "-0" not in {field for line in out_file.read_text().splitlines() for field in line.split(",")}
    rows = read_rows(out_file)
    for beta, _, branch, x, y, z in rows:
        assert abs(x * x + y * y + z * z - 1.0) <= 1e-10
        if branch == "0_final" and beta in (0.0, math.pi / 2):
            assert abs(x) <= 1e-10 and abs(y) <= 1e-10 and abs(z - 1.0) <= 1e-10
        if branch == "1_final" and beta in (0.0, math.pi / 2):
            assert abs(z + 1.0) <= 1e-10


def test_trajectory_final_rows_are_the_analytic_gate_columns(tmp_path, capsys):
    out_file = tmp_path / "final.csv"
    code, _, _ = run_cli(
        capsys, "trajectory", "--beta", "0.3,0.9,1.4", "--samples", "20", "--out", str(out_file)
    )
    assert code == 0
    finals = [row for row in read_rows(out_file) if row[2].endswith("_final")]
    assert len(finals) == 6
    for beta, t, branch, *point in finals:
        assert t == 2 * math.pi
        column = analytic_gate(HolonomicGate(beta))[:, int(branch[0])]
        assert max_abs(np.array(point) - bloch_vectors(column)) <= 1e-14


def test_trajectory_time_resolved_row_counts(tmp_path, capsys):
    out_file = tmp_path / "one.csv"
    code, _, _ = run_cli(
        capsys, "trajectory", "--beta", "0.785", "--samples", "100", "--out", str(out_file)
    )
    assert code == 0
    rows = read_rows(out_file)
    per_branch = {}
    for _, _, branch, *_ in rows:
        per_branch[branch] = per_branch.get(branch, 0) + 1
    assert per_branch == {"0": 100, "1": 100, "0_final": 1, "1_final": 1}


def test_trajectory_rejects_single_sample(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "trajectory", "--beta", "0.3", "--samples", "1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_trajectory_rejects_samples_above_the_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("hologate.cli._closed_forms", lambda *a: pytest.fail("sampled"))
    samples = MAX_TRAJECTORY_SAMPLES + 1
    code, out, err = run_cli(
        capsys, "trajectory", "--beta", "0.3", "--samples", str(samples),
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and out == ""
    assert err == f"error: samples must be <= {MAX_TRAJECTORY_SAMPLES}, got {samples}\n"
    assert not (tmp_path / "x.csv").exists()


def test_trajectory_rejects_sweep_count_above_the_cap(tmp_path, monkeypatch, capsys):
    # np.linspace would allocate the whole sweep; never run a huge count
    monkeypatch.setattr("hologate.cli.np.linspace", lambda *a: pytest.fail("swept"))
    for count in (MAX_SWEEP_BETAS + 1, 10_000_000_000):
        code, out, err = run_cli(
            capsys, "trajectory", "--beta", f"0:1.5:{count}", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and out == ""
        assert err == f"error: --beta sweep count must be <= {MAX_SWEEP_BETAS}, got {count}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("spec", ["inf:inf:1", "-1.7e308:1.7e308:3"])
def test_trajectory_rejects_non_finite_sweep_ends(tmp_path, capsys, spec):
    # np.linspace warns (invalid value, overflow) on these ends; the NaN betas
    # it returns fail validation, with no RuntimeWarning on the way
    code, out, err = run_cli(capsys, "trajectory", f"--beta={spec}", "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert err == "error: beta must lie in [0, pi/2], got nan\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("a:1:2", "--beta sweep start must be a number, got 'a'"),
        ("0:b:2", "--beta sweep stop must be a number, got 'b'"),
        ("0.1,b", "--beta entry must be a number, got 'b'"),
        ("0:1", "--beta sweep spec must be 'start:stop:count'"),
        ("0:1:0", "--beta sweep count must be >= 1, got 0"),
    ],
    ids=["start", "stop", "entry", "spec", "count"],
)
def test_trajectory_names_a_malformed_beta(tmp_path, capsys, spec, message):
    code, out, err = run_cli(capsys, "trajectory", "--beta", spec, "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "drive, message",
    [
        ("a,1", "--drive OMEGA_RABI must be a number, got 'a'"),
        ("1,b", "--drive DETUNING must be a number, got 'b'"),
    ],
    ids=["OMEGA_RABI", "DETUNING"],
)
def test_verify_names_a_malformed_drive_field(capsys, drive, message):
    code, out, err = run_cli(capsys, "verify", "--drive", drive)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_synth_names_the_line_of_a_malformed_matrix_entry(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text("# the identity, with a typo\n1 0\n0 x\n")
    code, out, err = run_cli(capsys, "synth", "--target", "m.txt", "--length", "2")
    assert code == 2 and out == ""
    assert err == "error: m.txt line 3: 'x' is not a complex number\n"


@pytest.mark.parametrize("count", ["2.5", "x", ""])
def test_trajectory_rejects_a_non_integer_sweep_count(tmp_path, capsys, count):
    code, out, err = run_cli(
        capsys, "trajectory", "--beta", f"0:1:{count}", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2 and out == ""
    assert err == f"error: --beta sweep count must be an integer, got {count!r}\n"
    assert not (tmp_path / "x.csv").exists()


def test_trajectory_out_of_range_last_beta_writes_no_file(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "trajectory", "--beta", "0.3,0.9,1.6", "--samples", "5",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


def test_trajectory_multi_beta_file_concatenates_single_beta_rows(tmp_path, capsys):
    betas = ["0.2", "0.785", "1.4"]
    paths = [tmp_path / f"{i}.csv" for i in range(len(betas))] + [tmp_path / "all.csv"]
    for spec, path in zip(betas + [",".join(betas)], paths):
        code, _, _ = run_cli(
            capsys, "trajectory", "--beta", spec, "--samples", "9", "--out", str(path)
        )
        assert code == 0
    expected = ["beta,t,branch,x,y,z\n"]
    for path in paths[:-1]:
        header, *rows = path.read_text().splitlines(keepends=True)
        assert header == expected[0]
        expected += rows
    assert paths[-1].read_text() == "".join(expected)


def expected_trajectory_csv(betas, samples):
    """The trajectory CSV rebuilt row by row, one f-string per row."""
    lines = ["beta,t,branch,x,y,z\n"]
    for beta in betas:
        p = params_from_beta(HolonomicGate(beta))
        times = np.linspace(0.0, p.period, samples)
        points = bloch_vectors(np.swapaxes(exact_propagator(p, times), -1, -2))
        rows = [(t, str(b), points[i, b]) for i, t in enumerate(times) for b in (0, 1)]
        rows += [(times[-1], f"{b}_final", points[-1, b]) for b in (0, 1)]
        for t, branch, (x, y, z) in rows:
            lines.append(f"{beta:.17g},{t:.17g},{branch},{x:.17g},{y:.17g},{z:.17g}\n")
    return "".join(lines)


@pytest.mark.parametrize("samples", [2, 9])
@pytest.mark.parametrize(
    "spec, betas",
    [
        # both ends of [0, pi/2]
        (f"0:{math.pi / 2!r}:5", np.linspace(0.0, math.pi / 2, 5).tolist()),
        ("0.3,0.9,1.4", [0.3, 0.9, 1.4]),
    ],
    ids=["sweep", "list"],
)
def test_trajectory_csv_matches_an_independent_row_formatter(tmp_path, capsys, spec, betas, samples):
    out_file = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "trajectory", "--beta", spec, "--samples", str(samples), "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_bytes() == expected_trajectory_csv(betas, samples).encode()


def g17_texts(values):
    """Each value's field as ``cli._g17`` writes it: its grid row without NUL."""
    return [row[row != 0].tobytes() for row in cli._g17(np.array(values, dtype=float))]


#: Every double, NaN, infinities, subnormals and -0 among them, and every
#: 64-bit pattern read as a double.
ANY_DOUBLE = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)


@given(values=st.lists(ANY_DOUBLE, min_size=1, max_size=64))
# the doubles next to 10^-k on both sides, k = 0 .. 5: the ends of the fast
# path and the decades where log10 may pick the scale one off
@example(values=[float(np.nextafter(10.0**-k, end)) for k in range(6) for end in (0.0, math.inf)])
@example(values=[1 - 2**-53, 0.99999999999999999, 1.0, -1.0, 0.0, -0.0, 1e-4, -1e-4])
# few mantissa bits: 17 digits exactly, trailing zeros, and 18 digits ending
# in 5, ties that round to even up (26215) and down (26217)
@example(values=[0.5, -0.375, 0.25, 26215 * 2.0**-18, 26217 * 2.0**-18, -5243 * 2.0**-19])
def test_g17_writes_every_double_as_percent_17g(values):
    assert g17_texts(values) == [b"%.17g" % v for v in values]


@pytest.mark.parametrize(
    "chunk_samples",
    [1, 9, 18, 10**6],
    # at 9 samples: 2 rows a write; 1 beta a chunk; 2, 2, 1 betas; 1 chunk
    ids=["two_rows_a_write", "one_beta_a_chunk", "uneven_chunks", "one_chunk"],
)
def test_trajectory_chunks_do_not_move_a_byte(tmp_path, capsys, monkeypatch, chunk_samples):
    monkeypatch.setattr(cli, "TRAJECTORY_CHUNK_SAMPLES", chunk_samples)
    out_file = tmp_path / "t.csv"
    # beta = 0 (lam = 0) and pi/2 at the ends
    betas = np.linspace(0.0, math.pi / 2, 5).tolist()
    code, out, _ = run_cli(
        capsys, "trajectory", "--beta", f"0:{math.pi / 2!r}:5", "--samples", "9",
        "--out", str(out_file), "--machine",
    )
    assert code == 0
    assert out_file.read_bytes() == expected_trajectory_csv(betas, 9).encode()
    sphere = 0.0
    for beta in betas:
        p = params_from_beta(HolonomicGate(beta))
        points = bloch_vectors(np.swapaxes(exact_propagator(p, np.linspace(0.0, p.period, 9)), -1, -2))
        sphere = max(sphere, float(np.max(np.abs(np.sum(points**2, axis=-1) - 1.0))))
    assert float(parse_machine(out)["max_sphere_deviation"]) == sphere


def test_trajectory_unwritable_path_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "trajectory", "--beta", "0.3", "--samples", "5",
        "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 3
    assert "i/o" in err


def test_trajectory_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run_cli(capsys, "trajectory", "--beta", "0.2,0.9", "--samples", "12", "--out", str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --- determinism ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["gate", "--beta", "0.423"],
        ["verify", "--beta", "0.423", "--steps", "256"],
        ["verify", "--drive", "1,1", "--steps", "256"],
        ["synth", "--target", "T", "--length", "3", "--seed", "9"],
        ["catalog"],
        ["trajectory", "--beta", "0.1:1.4:3", "--samples", "8", "--out", "{out}"],
    ],
    ids=["gate", "verify", "verify_drive", "synth", "catalog", "trajectory"],
)
def test_machine_output_is_byte_identical_across_runs(tmp_path, capsys, argv):
    # The benchmark digests --machine stdout minus only the wall_time_s line,
    # so any other key that varies between runs (a timing) must fail here.
    argv = [arg.format(out=tmp_path / "t.csv") for arg in argv] + ["--machine"]
    outputs = []
    for _ in range(2):
        main(argv)
        out = capsys.readouterr().out
        outputs.append([ln for ln in out.splitlines() if not ln.startswith("wall_time_s=")])
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 1


# --- fuzz -------------------------------------------------------------------

#: Values that break naive numeric code. Every count also draws small in-range
#: values, never one above its cap, so no example sizes a large allocation.
_EDGE = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e300")
#: Matrix files for synth --target: unitary, NaN and overflowing entries.
_MATRIX_FILES = {"unitary": "0 1j\n1j 0\n", "nan": "nan 1j\n1j 0\n", "huge": "1e300 0\n0 1\n"}


def _real():
    return st.sampled_from(_EDGE) | st.floats(-1.0, 2.0).map(repr)


def _count(cap):
    return st.sampled_from(_EDGE) | st.integers(1, cap).map(str)


def _option(name, values):
    # --name=value, so that values such as -inf reach the program, not argparse
    return st.just([]) | values.map(lambda v: [f"--{name}={v}"])


@st.composite
def _argv(draw, workdir):
    command = draw(st.sampled_from(["gate", "verify", "synth", "catalog", "trajectory"]))
    options = {
        "gate": [("beta", _real())],
        "verify": [
            ("beta", _real()),
            ("drive", st.tuples(_real(), _real()).map(",".join)),
            ("steps", _count(4096)),
        ],
        "synth": [
            (
                "target",
                st.sampled_from(["NOT", "Hadamard", "Phase", "T", "bogus"])
                | st.sampled_from([str(workdir / name) for name in _MATRIX_FILES]),
            ),
            ("length", _count(6)),
            ("restarts", _count(8)),
            ("seed", st.sampled_from(_EDGE) | st.integers(0, 2**70).map(str)),
            ("out", st.just(str(workdir / "record.txt"))),
        ],
        "catalog": [],
        "trajectory": [
            (
                "beta",
                st.lists(_real(), max_size=3).map(",".join)
                | st.tuples(_real(), _real(), _count(8)).map(":".join),
            ),
            ("samples", _count(64)),
            ("out", st.sampled_from([str(workdir / "t.csv"), str(workdir / "no" / "t.csv")])),
        ],
    }[command]
    argv = [command]
    for name, values in options:
        argv += draw(_option(name, values))
    return argv + draw(st.sampled_from([[], ["--machine"]]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    for name, text in _MATRIX_FILES.items():
        (workdir / name).write_text(text)
    return workdir


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_known_code_and_no_traceback(fuzz_dir, data):
    argv = data.draw(_argv(fuzz_dir), label="argv")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


# --- one parser per process ----------------------------------------------------


def test_repeated_main_calls_share_one_parser_and_leak_no_options(tmp_path, monkeypatch, capsys):
    # main parses every argv with one cached parser; each handler must still
    # get exactly what a freshly built parser makes of its argv
    record = str(tmp_path / "rec.txt")
    calls = [
        ["synth", "--target", "NOT", "--length", "4", "--seed", "5", "--restarts", "3", "--out", record],
        ["synth", "--target", "NOT", "--length", "4", "--machine"],
        ["verify", "--drive", "1,1", "--steps", "16"],
        ["verify", "--beta", "0.3", "--steps", "16", "--machine"],
        ["gate", "--beta", "0.3", "--bogus"],
        ["gate", "--beta", "0.3"],
    ]
    fresh = cli.build_parser.__wrapped__()
    expected = [vars(fresh.parse_args(argv)) for argv in calls if "--bogus" not in argv]
    main(["gate", "--beta", "0.3"])  # builds the shared parser if no earlier call did
    capsys.readouterr()

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    seen = []

    def recording(handler):
        def handle(args):
            seen.append(dict(vars(args)))
            return handler(args)

        return handle

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for name, handler in list(cli._HANDLERS.items()):
        monkeypatch.setitem(cli._HANDLERS, name, recording(handler))

    outputs = []
    for argv in calls:
        if "--bogus" in argv:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            capsys.readouterr()
            continue
        code, out, _ = run_cli(capsys, *argv)
        outputs.append((code, out))

    assert built == []
    assert seen == expected
    assert (tmp_path / "rec.txt").is_file()
    synth = parse_machine(outputs[1][1])
    assert (outputs[1][0], synth["seed"], synth["restarts"]) == (0, "0", "100")
    assert "out" not in synth
    assert outputs[2][0] == 1  # the non-holonomic drive fails its holonomy checks
    verify = parse_machine(outputs[3][1])
    assert verify["beta"] == "0.29999999999999999" and "drive" not in verify
    assert outputs[4][0] == 0


def test_importing_the_cli_builds_no_parser():
    probe = "import hologate.cli as cli; print(cli.build_parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


# --- console entry point --------------------------------------------------------


def test_console_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "hologate.cli", "gate", "--beta", "0.3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "alpha_plus" in result.stdout


def test_importing_the_cli_does_not_load_scipy():
    probe = "import sys, hologate.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
