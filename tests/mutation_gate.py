"""Check that the test suite catches known faults: each row of MUTATIONS
breaks one line of ``src/``, and the suite must fail on every such copy.

Run by name, not collected by pytest:

    python tests/mutation_gate.py

Each row is ``(name, file under src/hologate, exact old text, new text,
known killer)``; the old text must occur exactly once and the known killer,
a pytest node id, must name a test that exists, which ``test_mutation_gate.py``
checks on every run of the suite. The gate first runs the suite on an
unmutated copy, which must pass. Then, on one copy per row, it runs the row's
known killer alone, and the whole suite only if the row survives it, with
``pytest -x -q -p no:cacheprovider``, leaving out ``test_mutation_gate.py``,
which fails on every mutated copy by design. The verdict is that of the whole
suite: a row is killed if any test fails. Each copy holds ``src/``,
``tests/`` and ``pyproject.toml`` in a temporary directory, so the checkout
is never edited. It prints one line per row, with the first failing test of
each killed row, and the total time; the exit code is 1 if the unmutated copy
fails or a row survives. A row that survives is a gap in the tests, not a row
to delete; a row that the suite kills but its known killer does not names
the wrong killer.
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
        "tests/test_cli.py::test_synth_machine_output_names_the_coordinates_of_the_result",
    ),
    (
        "search: better inverted",
        "synthesis.py",
        "better = trial_infidelity < infidelity",
        "better = trial_infidelity >= infidelity",
        "tests/test_acceptance.py::test_criterion_1_catalog_reproduction",
    ),
    (
        "search: fold sign dropped from d(beta)/dx",
        "synthesis.py",
        "np.where(flip, -1.0, 1.0)",
        "np.where(flip, 1.0, 1.0)",
        "tests/test_golden.py::test_output_matches_its_golden_file[synth_NOT_4]",
    ),
    (
        "search: a dg term scaled by 1 + 1e-9",
        "synthesis.py",
        "np.multiply(pi_c * sp, dbeta, out=da.real)",
        "np.multiply(pi_c * sp * (1 + 1e-9), dbeta, out=da.real)",
        "tests/test_synthesis.py::test_jacobian_matches_the_dual_number_product_to_rounding",
    ),
    (
        "search: a dg term dropped",
        "synthesis.py",
        "c * (sp + pi_s * cp)",
        "c * sp",
        "tests/test_golden.py::test_output_matches_its_golden_file[synth_NOT_4]",
    ),
    (
        "search: the J J^T terms summed over the pulses in reverse",
        "synthesis.py",
        'np.einsum("kis,kjs->ijs", jac, jac)',
        'np.einsum("kis,kjs->ijs", jac[::-1], jac[::-1])',
        "tests/test_golden.py::test_output_matches_its_golden_file[synth_Hadamard_7]",
    ),
    (
        "search: pruning keeps hits[0] starts, dropping the hit itself",
        "synthesis.py",
        "keep = slice(hits[0] + 1)",
        "keep = slice(hits[0])",
        "tests/test_acceptance.py::test_criterion_7_fresh_synthesis",
    ),
    (
        "search: pruning keyed to the last hit",
        "synthesis.py",
        "keep = slice(hits[0] + 1)",
        "keep = slice(hits[-1] + 1)",
        "tests/test_golden.py::test_output_matches_its_golden_file[synth_NOT_4]",
    ),
    (
        "search: the palindrome's Jacobian fold-back dropped",
        "synthesis.py",
        "        jac[: n - m] += jac[::-1][: n - m]\n",
        "",
        "tests/test_cli.py::test_synth_machine_output_names_the_coordinates_of_the_result",
    ),
    (
        "search: the odd middle pulse of a palindrome counted twice",
        "synthesis.py",
        "jac[: n - m] += jac[::-1][: n - m]",
        "jac[:m] += jac[::-1][:m]",
        "tests/test_golden.py::test_output_matches_its_golden_file[synth_T_3]",
    ),
    (
        "search: the symmetric-target predicate forced false",
        "synthesis.py",
        "symmetric = length > 1 and abs(target_pair[2, 0]) <= _SYMMETRIC_RE_B",
        "symmetric = False",
        "tests/test_cli.py::test_synth_machine_output_names_the_coordinates_of_the_result",
    ),
    (
        "checks: <= changed to < in RunReport.verdicts",
        "cli.py",
        "yield name, value <= bound,",
        "yield name, value < bound,",
        "tests/test_cli.py::test_check_passes_at_its_bound_and_fails_on_nan",
    ),
    (
        "cli: main's ValueError handler dropped",
        "cli.py",
        '    except ValueError as exc:\n        print(f"error: {exc}", file=sys.stderr)\n'
        "        return EXIT_USAGE\n",
        "",
        "tests/test_cli.py::test_gate_rejects_out_of_range_beta",
    ),
    (
        "cli: main parses into one shared module-level Namespace",
        "cli.py",
        "args = build_parser().parse_args(argv)",
        'args = build_parser().parse_args(argv, globals().setdefault("_ARGS", argparse.Namespace()))',
        "tests/test_cli.py::test_repeated_main_calls_share_one_parser_and_leak_no_options",
    ),
    (
        "cli: main returns 0 when a check fails",
        "cli.py",
        "return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED",
        "return EXIT_OK",
        "tests/test_cli.py::test_verify_coarse_steps_exceed_thresholds",
    ),
    (
        "cli: parser rebuilt on every main call",
        "cli.py",
        "@functools.cache\ndef build_parser",
        "def build_parser",
        "tests/test_cli.py::test_repeated_main_calls_share_one_parser_and_leak_no_options",
    ),
    (
        "tree: the operands of each pair product swapped",
        "evolution.py",
        "b1, b0 = b[..., 1::2], b[..., : 2 * n : 2]",
        "b0, b1 = b[..., 1::2], b[..., : 2 * n : 2]",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "tree: the odd carry dropped (the identity carried instead)",
        "evolution.py",
        "    la[..., n] = a\n    lb[..., n] = b\n",
        "    la[..., n] = 1\n    lb[..., n] = 0\n",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "tree: the odd-carry slot left unwritten",
        "evolution.py",
        "    if width % 2:\n        calls.append((_carry, (la, lb, n, carry, b[..., -1])))\n",
        "",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "tree: the scalar level's a a changed to a conj(a)",
        "evolution.py",
        "np.multiply(np.asarray(a), a)",
        "np.multiply(np.asarray(a), a.conjugate())",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "tree: no ping-pong swap between the level buffers",
        "evolution.py",
        "        out, spare = spare, out\n",
        "",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "tree: the temporary placed at the start of the output buffer",
        "evolution.py",
        "out[level.size : level.size + math.prod(t_shape)]",
        "out[: math.prod(t_shape)]",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "tree: the temporaries left out of the level buffers' sizes",
        "evolution.py",
        "rows * (2 * first + (0 if scalar_a else width // 2)), rows * (2 * second + first // 2)",
        "rows * 2 * first, rows * 2 * second",
        "tests/test_evolution.py::test_buffered_tree_levels_equal_fresh_ones_bit_for_bit",
    ),
    (
        "rows: the root division dropped",
        "evolution.py",
        "roots.append(pair_unit(la[..., 0], lb[..., 0]))",
        "roots.append((la[..., 0], lb[..., 0]))",
        "tests/test_cli.py::test_verify_a_million_steps_passes_unitarity",
    ),
    (
        "rows: the top rows placed in reverse group order",
        "evolution.py",
        "top[0, start - chunk : start - chunk + count] = la\n"
        "                    top[1, start - chunk : start - chunk + count] = lb\n",
        "top[0, chunk + chunk_rows - start - count : chunk + chunk_rows - start] = la\n"
        "                    top[1, chunk + chunk_rows - start - count : chunk + chunk_rows - start] = lb\n",
        "tests/test_cli.py::test_verify_a_million_steps_passes_unitarity",
    ),
    (
        "rows: the stopped rows of a set finished in one pass",
        "evolution.py",
        "held = _finished_rows(steps, per_group) if several else n_rows",
        "held = n_rows",
        "tests/test_evolution.py::test_propagate_never_holds_every_step_factor",
    ),
    (
        "rows: a plan reused for a group with another row count",
        "evolution.py",
        "b, plan, (la, lb) = plans[count]",
        "b, plan, (la, lb) = next(iter(plans.values()))",
        "tests/test_cli.py::test_verify_a_million_steps_passes_unitarity",
    ),
    (
        "rows: the build buffer left at numpy's default",
        "evolution.py",
        "buffer = np.setbufsize(_BUILD_BUFFER)",
        "buffer = np.getbufsize()",
        "tests/test_evolution.py::test_propagate_never_holds_every_step_factor",
    ),
    (
        "rows: the caller's buffer size not restored",
        "evolution.py",
        "np.setbufsize(buffer)",
        "pass",
        "tests/test_evolution.py::test_propagate_leaves_the_ufunc_buffer_size_as_it_found_it[set]",
    ),
    (
        "streaming: the row start shifted by one step",
        "evolution.py",
        "np.exp(-1j * p.omega_drive * t_rows)",
        "np.exp(-1j * p.omega_drive * (t_rows + dt))",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "streaming: the 1/2 of the column times dropped",
        "evolution.py",
        "np.arange(0.5, steps)",
        "np.arange(0.0, steps)",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "streaming: the short last block dropped",
        "evolution.py",
        "    if rest:\n        blocks.append(_row_products(p, dt, np.array([full * size * dt]), rest))\n",
        "",
        "tests/test_cli.py::test_verify_a_million_steps_passes_unitarity",
    ),
    (
        "streaming: the short last block put first",
        "evolution.py",
        "blocks.append(_row_products(p, dt, np.array([full * size * dt]), rest))",
        "blocks.insert(0, _row_products(p, dt, np.array([full * size * dt]), rest))",
        "tests/test_cli.py::test_verify_a_million_steps_passes_unitarity",
    ),
    (
        "streaming: the column phase conjugated",
        "evolution.py",
        "columns = np.exp(-1j * p.omega_drive",
        "columns = np.exp(1j * p.omega_drive",
        "tests/test_acceptance.py::test_criterion_2_analytic_numeric_agreement",
    ),
    (
        "factors: the vanished field divides by zero",
        "evolution.py",
        "scale = field or 1.0",
        "scale = field",
        "tests/test_cli.py::test_verify_accepted_drives_raise_no_runtime_warning",
    ),
    (
        "quadrature: conj(psi0) dropped from the energy",
        "evolution.py",
        "2.0 * (psi0.conj() * h01 * psi1).real",
        "2.0 * (psi0 * h01 * psi1).real",
        "tests/test_acceptance.py::test_criterion_3_holonomy_verification",
    ),
    (
        "pairs: pair_mul's operands swapped",
        "su2.py",
        "def pair_mul(a1, b1, a2, b2, out=(None, None)):",
        "def pair_mul(a2, b2, a1, b1, out=(None, None)):",
        "tests/test_cli.py::test_verify_holonomic_gate_passes",
    ),
    (
        "pairs: pair_mul's conj moved from b2 to b1",
        "su2.py",
        "np.subtract(a1 * a2, np.multiply(b1, b2.conj()), out=out[0])",
        "np.subtract(a1 * a2, np.multiply(b1.conj(), b2), out=out[0])",
        "tests/test_acceptance.py::test_criterion_1_catalog_reproduction",
    ),
    (
        "pairs: b1 * conj(b2) by the * operator, which numpy may swap in place",
        "su2.py",
        "np.multiply(b1, b2.conj())",
        "b1 * b2.conj()",
        "tests/test_su2.py::test_pair_mul_rounds_a_long_call_as_short_ones",
    ),
    (
        "scan: the operands of each prefix product swapped",
        "evolution.py",
        "pair_mul(a[shift:], b[shift:], a[:-shift], b[:-shift])",
        "pair_mul(a[:-shift], b[:-shift], a[shift:], b[shift:])",
        "tests/test_cli.py::test_verify_holonomic_gate_passes",
    ),
    (
        "scan: the division of each pass dropped",
        "evolution.py",
        "pa, pb = pair_unit(*pair_mul(a[shift:], b[shift:], a[:-shift], b[:-shift]))",
        "pa, pb = pair_mul(a[shift:], b[shift:], a[:-shift], b[:-shift])",
        "tests/test_evolution.py::test_prefix_scan_matches_closed_form_at_every_block_boundary",
    ),
    (
        "drive: DriveParams' overflow check dropped",
        "drive.py",
        "if not math.isfinite(4.0 * sum(v * v for v in fields.values())):",
        "if False:",
        "tests/test_cli.py::test_verify_rejects_overflowing_drive[1e300,1-omega_rabi]",
    ),
    (
        "drive: params_from_beta's exact offset dropped",
        "drive.py",
        '    object.__setattr__(p, "offset", -w * s * s)\n',
        "",
        "tests/test_cli.py::test_verify_passes_every_check_near_the_ends_of_the_family",
    ),
    (
        "drive: _theta_pairs reads Delta - w from Delta again",
        "drive.py",
        "    dz = p.offset\n    om = p.omega_rabi\n",
        "    dz = p.detuning - p.omega_drive\n    om = p.omega_rabi\n",
        "tests/test_cli.py::test_verify_passes_every_check_near_the_ends_of_the_family",
    ),
    (
        "drive: invariant reads Delta - w from Delta again",
        "drive.py",
        "    dz = p.offset\n    return np.array([[dz, off]",
        "    dz = p.detuning - p.omega_drive\n    return np.array([[dz, off]",
        "tests/test_drive.py::test_closed_forms_read_the_stored_offset_not_detuning_minus_drive",
    ),
    (
        "invariant: the transverse part scaled by 1 + 1e-10",
        "drive.py",
        "    off = p.omega_rabi * np.exp(-1j * p.omega_drive * t)\n",
        "    off = p.omega_rabi * (1 + 1e-10) * np.exp(-1j * p.omega_drive * t)\n",
        "tests/test_cli.py::test_verify_fails_the_invariant_equation_on_an_invariant_off_by_1e_10",
    ),
    (
        "invariant residual: the derivative's w factor dropped",
        "evolution.py",
        "rate = -1j * p.omega_drive * p.omega_rabi * np.exp",
        "rate = -1j * p.omega_rabi * np.exp",
        "tests/test_evolution.py::test_invariant_residual_small_for_random_drives",
    ),
    (
        "invariant residual: the derivative's sign flipped",
        "evolution.py",
        "rate = -1j * p.omega_drive",
        "rate = 1j * p.omega_drive",
        "tests/test_acceptance.py::test_criterion_4_invariant_equation",
    ),
    (
        "drive: lr_phase reads Delta - w from Delta again",
        "drive.py",
        "lam = math.hypot(p.omega_rabi, p.offset)",
        "lam = math.hypot(p.omega_rabi, p.detuning - p.omega_drive)",
        "tests/test_drive.py::test_closed_forms_read_the_stored_offset_not_detuning_minus_drive",
    ),
    (
        "theta: xi_+ as the plain quotient (lam - |Delta - w|) / Omega, which cancels",
        "drive.py",
        "t = om / (lam + abs(dz)) if lam else 1.0",
        "t = (lam - abs(dz)) / om if om else 0.0 if lam else 1.0",
        "tests/test_cli.py::test_verify_non_holonomic_drive_fails_by_design[1e-13,0.5]",
    ),
    (
        "theta: the bases of Delta >= w and Delta < w swapped",
        "drive.py",
        "    if dz >= 0:\n",
        "    if dz < 0:\n",
        "tests/test_acceptance.py::test_criterion_3_holonomy_verification",
    ),
    (
        "exact: the sign of the axis component nz flipped",
        "evolution.py",
        "(p.omega_rabi / lam, dz / lam)",
        "(p.omega_rabi / lam, -dz / lam)",
        "tests/test_cli.py::test_verify_holonomic_gate_passes",
    ),
    (
        "exact: the frame phase conjugated",
        "evolution.py",
        "frame = np.exp(-0.5j * w * t)",
        "frame = np.exp(0.5j * w * t)",
        "tests/test_evolution.py::test_exact_propagator_matches_lewis_riesenfeld_form_generic",
    ),
    (
        "exact: the 1/2 of the rotation angle dropped from the cosine",
        "evolution.py",
        "c = np.cos(0.5 * lam * t)",
        "c = np.cos(lam * t)",
        "tests/test_acceptance.py::test_criterion_9_trajectory_sanity",
    ),
    (
        "exact: reads Delta - w from Delta again",
        "evolution.py",
        "        dz = p.offset\n",
        "        dz = p.detuning - p.omega_drive\n",
        "tests/test_drive.py::test_closed_forms_read_the_stored_offset_not_detuning_minus_drive",
    ),
    (
        "exact: lam from np.hypot, which rounds otherwise than math.hypot",
        "evolution.py",
        "lam = math.hypot(p.omega_rabi, dz)",
        "lam = float(np.hypot(p.omega_rabi, dz))",
        "tests/test_evolution.py::test_closed_form_rows_equal_each_drive_s_exact_propagator_bit_for_bit",
    ),
    (
        "exact: the frame multiplied from the right",
        "evolution.py",
        "np.multiply(frame, c - 1j * s * nz)",
        "np.multiply(c - 1j * s * nz, frame)",
        "tests/test_evolution.py::test_closed_form_rows_equal_each_drive_s_exact_propagator_bit_for_bit",
    ),
    (
        "exact: the frame multiplied by the * operator, which numpy may swap in place",
        "evolution.py",
        "np.multiply(frame, c - 1j * s * nz)",
        "frame * (c - 1j * s * nz)",
        "tests/test_evolution.py::test_closed_form_bits_do_not_depend_on_how_many_times_are_asked_for",
    ),
    (
        "trajectory: every chunk labelled with the first chunk's betas",
        "cli.py",
        'b"%.17g" % beta for beta in chunk]',
        'b"%.17g" % beta for beta in betas[:per_chunk].tolist()]',
        "tests/test_cli.py::test_trajectory_chunks_do_not_move_a_byte[two_rows_a_write]",
    ),
    (
        "trajectory: every write formats the first rows' fields",
        "cli.py",
        "times = _piece_times(period, samples, start, stop)",
        "times = _piece_times(period, samples, 0, stop - start)",
        "tests/test_cli.py::test_trajectory_chunks_do_not_move_a_byte[two_rows_a_write]",
    ),
    (
        "trajectory: the stamps and branches filled for a beta's first piece only",
        "cli.py",
        "if filled != (start, stop):",
        "if filled is None:",
        "tests/test_cli.py::test_trajectory_chunks_do_not_move_a_byte[two_rows_a_write]",
    ),
    (
        "trajectory: branch 1's x written with branch 0's sign",
        "cli.py",
        '                cells[..., 0] = (points < 0.0) * np.uint8(ord("-"))\n',
        '                cells[..., 0] = (points < 0.0) * np.uint8(ord("-"))\n'
        "                cells[..., 1, 0, 0] = cells[..., 0, 0, 0]\n",
        "tests/test_cli.py::test_trajectory_final_rows_are_the_analytic_gate_columns",
    ),
    (
        "trajectory: y_1's text taken from y_0",
        "cli.py",
        "digits[..., 1, :] = text[:, :, 1:3]",
        "digits[..., 1, :] = text[:, :, None, 1]",
        "tests/test_cli.py::test_trajectory_csv_matches_an_independent_row_formatter[sweep-9]",
    ),
    (
        "trajectory: the _final rows taken from the first time",
        "cli.py",
        "times = np.append(times, times[-1])",
        "times = np.append(times, times[0])",
        "tests/test_cli.py::test_trajectory_final_rows_are_the_analytic_gate_columns",
    ),
    (
        "trajectory: the sign column of z dropped",
        "cli.py",
        'cells[..., 0] = (points < 0.0) * np.uint8(ord("-"))',
        'cells[..., :2, 0] = (points[..., :2] < 0.0) * np.uint8(ord("-"))',
        "tests/test_acceptance.py::test_criterion_9_trajectory_sanity",
    ),
    (
        "trajectory: a sweep validated at its first beta only",
        "cli.py",
        "bounding = betas[[0, -1]]",
        "bounding = betas[[0]]",
        "tests/test_cli.py::test_trajectory_sweep_past_pi_half_at_either_end_writes_no_file[0.3:1.6:3]",
    ),
    (
        "trajectory: the sphere deviation accumulated by max(), which drops a NaN",
        "cli.py",
        "worst_sphere = float(np.maximum(worst_sphere, sphere))",
        "worst_sphere = max(worst_sphere, float(sphere))",
        "tests/test_cli.py::test_trajectory_fails_on_sphere_for_off_norm_or_nan_pairs[nan]",
    ),
    (
        "text grid: the width ignored, so each grid is as wide as its longest text",
        "cli.py",
        '''dtype=f"S{width or ''}"''',
        '''dtype="S"''',
        "tests/test_golden.py::test_output_matches_its_golden_file[trajectory_small]",
    ),
    (
        "pairs: pair_bloch's conj(a) (-conj(b)) by the * operator, which numpy may swap in place",
        "su2.py",
        "np.multiply(conj_a, -conj_b)",
        "conj_a * -conj_b",
        "tests/test_su2.py::test_pair_bloch_is_bloch_vectors_of_the_columns_bit_for_bit",
    ),
    (
        "g17: the 17 digits truncate err instead of rounding it",
        "cli.py",
        "np.rint(err).astype(np.int64)",
        "err.astype(np.int64)",
        "tests/test_cli.py::test_trajectory_csv_matches_an_independent_row_formatter[sweep-2]",
    ),
    (
        "g17: the decade bounds one ulp below 10^-3, 10^-2 and 10^-1",
        "cli.py",
        "for bound in (1e-3, 1e-2, 1e-1))",
        "for bound in (0.0009999999999999998, 0.009999999999999998, 0.09999999999999999))",
        "tests/test_cli.py::test_g17_writes_every_double_as_percent_17g",
    ),
    (
        "g17: trailing zeros counted one group short",
        "cli.py",
        "(zeros.take(g2) + (g2 == 0) * zeros.take(g1))",
        "zeros.take(g2)",
        "tests/test_cli.py::test_g17_writes_every_double_as_percent_17g",
    ),
    (
        "g17: +-1 kept on the fast path",
        "cli.py",
        "fast = (a >= 1e-4) & (a < 1.0)",
        "fast = (a >= 1e-4) & (a <= 1.0)",
        "tests/test_acceptance.py::test_criterion_9_trajectory_sanity",
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
        name, file, old, new, _ = mutation
        path = copy / SRC.relative_to(ROOT) / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {file}, not once")
        path.write_text(text.replace(old, new), encoding="utf-8")
    return copy


def run_tests(copy: Path, tests: str = "tests") -> tuple[bool, str, float]:
    """(passed, the first failing test or the output's tail, seconds) of the
    pytest node id or directory ``tests`` in ``copy``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--ignore", "tests/test_mutation_gate.py", tests,
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
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        passed, detail, seconds = run_tests(make_copy(Path(workdir)))
        if not passed:
            print(f"unmutated copy: FAILS ({seconds:.1f} s) {detail}")
            return 1
        print(f"unmutated copy: passes ({seconds:.1f} s)", flush=True)
        survivors = 0
        for mutation in MUTATIONS:
            copy = make_copy(Path(workdir), mutation)
            passed, detail, seconds = run_tests(copy, mutation[4])
            how = "its known killer"
            if passed:
                passed, detail, more = run_tests(copy)
                seconds += more
                how = "the suite; NOT its known killer"
            survivors += passed
            verdict = "SURVIVED" if passed else f"killed by {detail} ({how})"
            print(f"{mutation[0]}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTATIONS) - survivors} of {len(MUTATIONS)} mutations killed")
    print(f"{time.perf_counter() - start:.0f} s in all")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
