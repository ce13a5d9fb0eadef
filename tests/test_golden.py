"""Golden outputs: the CLI's ``--machine`` stdout, without ``wall_time_s``,
and two files it writes, recorded once and compared on every run.

A value moved by rounding passes; anything else that changes fails:
- the keys and their order;
- the exit code, every integer and string value, and every check verdict;
- a float by more than ``FLOAT_TOL``, relative to ``max(1, |golden|)``;
- the ``synth --out`` record, which is compared byte for byte: it is a file
  format, and its floats must keep their ``%.17g`` text.

The files hold this contract per numpy build and CPU dispatch level, not
across them: the loops of different levels may round differently. With numpy
2.4.6 on x86-64 every case passes at the AVX512_SPR, AVX512_ICL, X86_V4 and
X86_V3 levels. At the X86_V2 baseline, as on a CPU without AVX2, one is known
to move: ``synth_Hadamard_7``, whose angles move by up to 1e-13 relative, past
``FLOAT_TOL``, and its byte-compared record with them. ``tests/dispatch_check.py``
runs this file at every level the host offers and checks that statement.

It holds for the host's default OpenBLAS core only: numpy's OpenBLAS picks
its kernels for the CPU, and ``NPY_DISABLE_CPU_FEATURES`` does not reach
them. Under ``OPENBLAS_CORETYPE=Haswell``, the core an AVX2 host gets, 13 of
the 24 cases print other bytes (every ``verify`` case, ``catalog``, and
``synth`` Phase/4 and Hadamard/7), and ``synth_Hadamard_7`` fails here.

A change that moves output on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says which values moved and why.
"""

import contextlib
import io
import math
import os
import sys
import tempfile
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
    "verify_beta1e-06_10000": ("verify", "--beta", "1e-06", "--steps", "10000"),
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


def field_mismatch(got_rows, want_rows, sep: str) -> str | None:
    """Row by row: the same keys (or field count) in order, each value alike;
    the first difference, or None."""
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows)} lines, want {len(want_rows)}"
    for number, (got, want) in enumerate(zip(got_rows, want_rows), 2):
        if sep == "=":
            (got_key, _, got), (want_key, _, want) = got.partition("="), want.partition("=")
            if got_key != want_key:
                return f"line {number}: key {got_key!r}, want {want_key!r}"
            got, want = [got], [want]
        else:
            got, want = got.split(sep), want.split(sep)
            if len(got) != len(want):
                return f"line {number}: {len(got)} fields, want {len(want)}"
        for g, w in zip(got, want):
            if not same_value(g, w):
                return f"line {number}: {g!r}, want {w!r}"
    return None


def mismatch(name: str, got: str, want: str) -> str | None:
    """Where the text ``got`` of the golden file ``name`` departs from its
    recorded text ``want`` by the rules above, or None if it matches: the
    first line (the exit code, or a CSV's header) exactly, then the fields of
    a ``--machine`` output or a CSV; a written record byte for byte."""
    if name in WRITTEN.values() and not name.endswith(".csv"):
        return None if got == want else "not the same bytes"
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if got_rows[:1] != want_rows[:1]:
        return f"line 1: {got_rows[:1]}, want {want_rows[:1]}"
    return field_mismatch(got_rows[1:], want_rows[1:], "," if name.endswith(".csv") else "=")


def outputs(stem: str) -> dict[str, str]:
    """Golden file name -> text of the case ``stem``, run in the current
    directory: its ``run`` output and the file it writes, if any."""
    texts = {f"{stem}.txt": run(CASES[stem])}
    written = WRITTEN.get(stem)
    if written is not None:
        texts[written] = Path(written).read_text(encoding="utf-8")
    return texts


def refresh(path: Path, got: str) -> bool:
    """Write ``got`` to the golden file ``path`` if it is missing or
    ``mismatch`` finds a difference; returns whether it wrote."""
    if path.exists() and mismatch(path.name, got, path.read_text(encoding="utf-8")) is None:
        return False
    path.write_text(got, encoding="utf-8", newline="\n")
    return True


@pytest.mark.parametrize("stem", list(CASES))
def test_output_matches_its_golden_file(stem, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, got in outputs(stem).items():
        want = (GOLDEN / name).read_text(encoding="utf-8")
        assert mismatch(name, got, want) is None, f"{name}: {mismatch(name, got, want)}"


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


def test_refresh_rewrites_only_what_moved_beyond_rounding(tmp_path):
    path = tmp_path / "verify.txt"
    want = "exit=0\ncommand=verify\nexact_error=1.84946e-12\n"
    path.write_text(want, encoding="utf-8")
    assert not refresh(path, want.replace("1.84946e-12", "1.84941e-12"))  # moved within FLOAT_TOL
    assert path.read_text(encoding="utf-8") == want
    for moved in (want.replace("1.84946e-12", "1.9e-12"), want.replace("exact_error", "exact_err")):
        assert refresh(path, moved)
        assert path.read_text(encoding="utf-8") == moved
    record = tmp_path / WRITTEN["synth_Hadamard_7"]
    record.write_text("betas=0.1\n", encoding="utf-8")
    assert refresh(record, "betas=0.10000000000000001\n")  # a record is compared byte for byte


def regenerate() -> list[str]:
    """Rewrite the golden files whose output from this checkout's CLI no
    longer matches them (``refresh``); returns their names."""
    GOLDEN.mkdir(exist_ok=True)
    here = os.getcwd()
    rewritten = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for stem in CASES:
                for name, got in outputs(stem).items():
                    if refresh(GOLDEN / name, got):
                        rewritten.append(name)
        finally:
            os.chdir(here)
    return rewritten


if __name__ == "__main__":
    for name in regenerate():
        print(f"rewrote {name}")
    sys.exit(0)
