"""The benchmark's own checks. Slow (about two minutes), so the file name keeps
it out of a plain `python -m pytest` collection; run it by name:

    python3 -m pytest -q bench/check_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *map(str, args)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_lines(proc):
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.splitlines()
    return json.loads(details), json.loads(result)


def traced_run(workload, spans_path):
    details, result = result_lines(
        bench("--workload", workload, "--seed", 5, "--seconds", 0, "--trace", 1, "--spans", spans_path)
    )
    assert result["correct"] and result["failed"] == 0, details["problems"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert details["machine"]["threads"] == 1
    return details


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_and_outputs_repeat_exactly(workload, tmp_path):
    first = traced_run(workload, tmp_path / "a.jsonl")
    second = traced_run(workload, tmp_path / "b.jsonl")
    assert first["counters"] == second["counters"]
    assert first["output_digest"] == second["output_digest"]

    spans = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
    assert spans and all(s["name"] == "cli.main" for s in spans if s["parent"] < 0)
    by_pass = {}
    for span in spans:
        by_pass.setdefault(span["pass"], []).append(span)
    for pass_spans in by_pass.values():
        for index, span in enumerate(pass_spans):
            assert span["start"] <= span["end"]
            if span["parent"] >= 0:
                parent = pass_spans[span["parent"]]
                assert span["parent"] < index
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_all_prints_every_end_to_end_metric_of_every_workload():
    proc = bench("--workload", "all", "--seed", 2, "--seconds", 0, "--trace", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
