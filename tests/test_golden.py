"""Golden outputs: the CLI's ``--machine`` stdout, without ``wall_time_s``,
and two files it writes, recorded once and compared on every run.

A value moved by rounding passes; anything else that changes fails:
- the keys and their order;
- the exit code, every integer and string value, and every check verdict;
- a float by more than ``FLOAT_TOL``, relative to ``max(1, |golden|)``;
- the ``synth --out`` record, which is compared byte for byte: it is a file
  format, and its floats must keep their ``%.17g`` text.

A change that moves output on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says which values moved and why.
"""

import contextlib
import io
import math
import os
import sys
from pathlib import Path

import pytest

from hologate.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Largest accepted move of a float, relative to max(1, |golden|). The largest
#: move seen from rounding alone is 1.8e-15; a real change to a result moves
#: it by orders of magnitude more.
FLOAT_TOL = 8e-15

_VERIFY = [
    (f"verify_{label}_{steps}", ("verify", *where, "--steps", str(steps)))
    for label, where in (
        ("beta0.1", ("--beta", "0.1")),
        ("beta0.423", ("--beta", "0.423")),
        ("beta1.2", ("--beta", "1.2")),
        ("beta0.68", ("--beta", "0.68")),
        ("drive1,1", ("--drive", "1,1")),
    )
    for steps in (10_000, 1_000_000)
]

#: Golden stem -> argv. Runs write relative paths; a written file named in
#: WRITTEN is kept as golden/<that name>.
CASES = {
    **{f"gate_beta{b}": ("gate", "--beta", b) for b in ("0", "0.3", "0.785", "1.5707963")},
    **dict(_VERIFY),
    "catalog": ("catalog",),
    "synth_NOT_4": ("synth", "--target", "NOT", "--length", "4"),
    "synth_Phase_4": ("synth", "--target", "Phase", "--length", "4"),
    "synth_T_3": ("synth", "--target", "T", "--length", "3"),
    "synth_Hadamard_7": (
        "synth", "--target", "Hadamard", "--length", "7", "--out", "synth_Hadamard_7_record.txt",
    ),
    "trajectory_baseline": (
        "trajectory", "--beta", "0:1.5707963:50", "--samples", "200", "--out", "baseline.csv",
    ),
    "trajectory_small": (
        "trajectory", "--beta", "0:1.5707963:5", "--samples", "20", "--out", "trajectory_small.csv",
    ),
}
WRITTEN = {
    "synth_Hadamard_7": "synth_Hadamard_7_record.txt",
    "trajectory_small": "trajectory_small.csv",
}


def run(argv) -> str:
    """The exit code and the ``--machine`` stdout without ``wall_time_s``, as
    one text: ``exit=<code>`` on its first line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--machine"])
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("wall_time_s=")]
    return "\n".join([f"exit={code}", *lines]) + "\n"


def _number(text: str):
    """``text`` as an int, a float or a complex, or None."""
    for kind in (int, float, complex):
        try:
            return kind(text)
        except ValueError:
            pass
    return None


def same_value(got: str, want: str) -> bool:
    """Equal text, or floats (or ';'-lists of them) within FLOAT_TOL."""
    if got == want:
        return True
    if ";" in want:
        got_parts, want_parts = got.split(";"), want.split(";")
        return len(got_parts) == len(want_parts) and all(map(same_value, got_parts, want_parts))
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return False
    if isinstance(g, int) and isinstance(w, int):
        return g == w  # a counter, or a float that prints as a whole number
    g, w = complex(g), complex(w)
    if any(map(math.isnan, (g.real, g.imag, w.real, w.imag))):
        return False
    return abs(g - w) <= FLOAT_TOL * max(1.0, abs(w))


def assert_same_fields(got_rows, want_rows, sep: str, what: str) -> None:
    """Row by row: the same keys (or field count) in order, each value alike."""
    assert len(got_rows) == len(want_rows), f"{what}: {len(got_rows)} lines, want {len(want_rows)}"
    for number, (got, want) in enumerate(zip(got_rows, want_rows), 1):
        if sep == "=":
            (got_key, _, got), (want_key, _, want) = got.partition("="), want.partition("=")
            assert got_key == want_key, f"{what} line {number}: key {got_key!r}, want {want_key!r}"
            got, want = [got], [want]
        else:
            got, want = got.split(sep), want.split(sep)
            assert len(got) == len(want), f"{what} line {number}: {len(got)} fields"
        for g, w in zip(got, want):
            assert same_value(g, w), f"{what} line {number}: {g!r}, want {w!r}"


@pytest.mark.parametrize("stem", list(CASES))
def test_output_matches_its_golden_file(stem, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run(CASES[stem]).splitlines()
    want = (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0]  # the exit code
    assert_same_fields(got[1:], want[1:], "=", f"{stem}.txt")
    written = WRITTEN.get(stem)
    if written is None:
        return
    got_file = (tmp_path / written).read_text(encoding="utf-8")
    want_file = (GOLDEN / written).read_text(encoding="utf-8")
    if written.endswith(".csv"):
        got_lines, want_lines = got_file.splitlines(), want_file.splitlines()
        assert got_lines[0] == want_lines[0]  # the header
        assert_same_fields(got_lines[1:], want_lines[1:], ",", written)
    else:
        assert got_file == want_file


def test_same_value_accepts_rounding_only():
    assert same_value("0.10000000000000001", "0.1")
    assert same_value("3.1415926535897940", "3.1415926535897931")
    assert same_value("1;2.0000000000000004", "1;2")
    assert same_value("-1-2.0000000000000004j", "-1-2j")
    assert not same_value("1.00000000000001", "1")
    assert same_value("2.2204460492503131e-16", "0")
    assert not same_value("601", "600")  # counters are exact
    assert not same_value("fail", "pass")
    assert not same_value("1;2", "1;2;3")
    assert not same_value("nan", "nan0")
    assert not same_value("nan", "0.5")


def regenerate() -> None:
    """Rewrite every golden file from this checkout's CLI."""
    GOLDEN.mkdir(exist_ok=True)
    here = os.getcwd()
    work = GOLDEN / ".work"
    work.mkdir(exist_ok=True)
    os.chdir(work)
    try:
        for stem, argv in CASES.items():
            (GOLDEN / f"{stem}.txt").write_text(run(argv), encoding="utf-8", newline="\n")
            if stem in WRITTEN:
                os.replace(WRITTEN[stem], GOLDEN / WRITTEN[stem])
            for leftover in os.listdir("."):
                os.remove(leftover)
    finally:
        os.chdir(here)
        work.rmdir()


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
