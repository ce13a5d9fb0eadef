"""Run the byte-contract tests at every numpy CPU dispatch level this host
offers, and report where the contract holds.

Run by name, not collected by pytest:

    python tests/dispatch_check.py

numpy runs each of its SIMD loops at the best dispatch target that both the
build and the CPU support (``numpy.show_runtime()`` lists them). Loops at
different targets may round differently, so output is byte-deterministic for
fixed inputs and seed per numpy build and dispatch level, not across them.
For each level the check runs ``BYTE_TESTS`` in a child process whose
``NPY_DISABLE_CPU_FEATURES`` switches off every dispatch target above that
level; the variable reaches only the child. The lowest level is the build's
baseline, as on a CPU without any of its dispatch targets.

It prints one line per level, with the tests that failed there. A level may
fail only the tests ``KNOWN_MOVES`` lists for it; the exit code is 1 if a
level fails any other test, or passes one that is listed, so the README's
statement of the contract is checked and not assumed.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The tests that pin output bytes: the golden files, the trajectory CSV
#: against its independent row formatter and across chunkings, its fields'
#: formatter against Python's ``%.17g``, the closed form's bits for many
#: drives against one, and the pair product's bits for one long call against
#: short ones.
BYTE_TESTS = (
    "tests/test_golden.py",
    "tests/test_cli.py::test_g17_writes_every_double_as_percent_17g",
    "tests/test_cli.py::test_trajectory_csv_matches_an_independent_row_formatter",
    "tests/test_cli.py::test_trajectory_chunks_do_not_move_a_byte",
    "tests/test_cli.py::test_trajectory_multi_beta_file_concatenates_single_beta_rows",
    "tests/test_evolution.py::test_closed_form_rows_equal_each_drive_s_exact_propagator_bit_for_bit",
    "tests/test_evolution.py::test_closed_form_bits_do_not_depend_on_how_many_times_are_asked_for",
    "tests/test_su2.py::test_pair_mul_rounds_a_long_call_as_short_ones",
)

#: Level -> the tests known to fail there (numpy 2.4.6 on x86-64). At the
#: X86_V2 baseline, complex multiply runs without FMA, so the search's pair
#: products round otherwise and the Hadamard/7 angles move by up to 1e-13
#: relative: past the golden tolerance, and the byte-compared record with them.
KNOWN_MOVES = {
    "X86_V2": {"tests/test_golden.py::test_output_matches_its_golden_file[synth_Hadamard_7]"},
}


def levels() -> list[tuple[str, str]]:
    """(level, NPY_DISABLE_CPU_FEATURES value) per dispatch level the host
    offers, from the best down to the build's baseline."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )

    # numpy lists its dispatch targets from the lowest up
    offered = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    found = []
    for kept in range(len(offered), -1, -1):
        level = offered[kept - 1] if kept else (__cpu_baseline__ or ["baseline"])[-1]
        found.append((level, " ".join(reversed(offered[kept:]))))
    return found


def run_level(disabled: str) -> tuple[set[str], str]:
    """(failed test ids, pytest's summary line) of ``BYTE_TESTS`` in a child
    with ``NPY_DISABLE_CPU_FEATURES`` set to ``disabled``."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "NPY_DISABLE_CPU_FEATURES")}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *BYTE_TESTS],
        cwd=ROOT,  # pyproject puts src/ on the path
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE))
    if proc.returncode not in (0, 1) or (proc.returncode == 1) != bool(failed):
        failed.add(f"pytest exit {proc.returncode}: {proc.stdout[-300:]}{proc.stderr[-300:]}")
    return failed, proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


def main() -> int:
    mismatches = 0
    for level, disabled in levels():
        failed, summary = run_level(disabled)
        known = KNOWN_MOVES.get(level, set())
        verdict = "pass" if not failed else "FAIL"
        print(f"{level} (disabled: {disabled or 'none'}): {verdict}, {summary}", flush=True)
        for test in sorted(failed):
            print(f"  failed: {test}{'' if test in known else ' (not known to move)'}")
        for test in sorted(known - failed):
            print(f"  passed although known to move: {test}")
        mismatches += failed != known
    print("as stated" if not mismatches else f"{mismatches} level(s) differ from KNOWN_MOVES")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
