import math
import subprocess
import sys

import numpy as np
import pytest

from hologate import HolonomicGate, analytic_gate, bloch_of, max_abs
from hologate.cli import main


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


def test_verify_non_holonomic_drive_fails_by_design(capsys):
    code, out, _ = run_cli(capsys, "verify", "--drive", "1,1", "--machine")
    assert code == 1
    values = parse_machine(out)
    assert values["check_holonomy_integrand"] == "fail"
    assert values["check_dynamical_phase"] == "fail"
    # the invariant-based phase bookkeeping still holds off the holonomic family
    assert values["check_total_phase"] == "pass"
    assert values["check_aa_correspondence"] == "pass"
    assert values["check_spectral_agreement"] == "pass"


@pytest.mark.parametrize("steps,expected", [(1_000, 1.85e-6), (10_000, 1.85e-8)])
def test_verify_reports_integrator_error_against_exact_propagator(capsys, steps, expected):
    _, out, _ = run_cli(capsys, "verify", "--beta", "0.423", "--steps", str(steps), "--machine")
    values = parse_machine(out)
    # exact_propagator and analytic_gate agree to rounding on the holonomic family
    assert abs(float(values["exact_error"]) - float(values["analytic_gate_error"])) <= 1e-15
    assert float(values["exact_error"]) == pytest.approx(expected, rel=0.01)


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
        assert max_abs(np.array(point) - bloch_of(column)) <= 1e-14


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
