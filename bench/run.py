"""hologate benchmark: drive ``hologate.cli.main`` with one workload's argv
list, pass after pass, in this one warmed process, and print the metrics.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (machine, sample counts, tail percentile, output digest, per-argv
latencies). README.md explains the workloads and every metric.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads: every load in this
# benchmark comes from this one process, on one core.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("search", "verify_deep", "trajectory_sweep")

#: Fresh interpreters timed per run for setup_s; one import varies 0.4-0.7 s.
SETUP_SAMPLES = 7
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hologate.cli; print(time.perf_counter() - t)"
)
#: Samples op_tail_s leaves beyond its percentile.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile that leaves TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def measure_setup() -> list[float]:
    """Seconds to `import hologate.cli` in each of SETUP_SAMPLES fresh interpreters."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        samples.append(float(probe.stdout))
    return samples


def machine_block() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = None
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            threads = next((int(ln.split()[1]) for ln in fh if ln.startswith("Threads:")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "hologate").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "env": PINNED_ENV,
        "threads": threads,
    }


def run_timed(wl, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    wl.run_pass()  # warm-up; its outputs are the determinism reference
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        latencies = wl.run_pass()
        wl.record(latencies)
        walls.append(sum(latencies))
    ops = [t for samples in wl.latencies for t in samples]
    tail_s, tail_pct, beyond = tail(ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "samples": {"setup_s": len(setup), "wall_s": len(walls), "op": len(ops)},
        "op_tail": {"percentile": tail_pct, "beyond": beyond},
        "setup_samples_s": setup,
        "wall_samples_s": walls,
    }
    return metrics, details


def run_traced(wl, seconds: float, spans_path: str | None) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    wl.run_pass()  # warm-up; its outputs are the determinism reference
    plain, traced, layers, counters, spans = [], [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        latencies = wl.run_pass()
        wl.record(latencies)
        plain.append(sum(latencies))
        tracer.reset()
        tracer.install()
        try:
            latencies = wl.run_pass(tracer.main)
        finally:
            tracer.uninstall()
        traced.append(sum(latencies))
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
        metrics["cli.bytes_written"] = wl.bytes_written
        layers.append(metrics)
        counters.append({k: metrics[k] for k in tracing.EXACT_COUNTERS})
        if spans_path:
            spans.append(tracer.spans)
    if any(c != counters[0] for c in counters):
        wl.failed += 1
        wl.note(f"work counters differ between traced passes: {counters}")
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(plain)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for k, pass_spans in enumerate(spans):
                for name, t0, t1, parent in pass_spans:
                    span = {"pass": k, "name": name, "start": t0, "end": t1, "parent": parent}
                    fh.write(json.dumps(span) + "\n")
    details = {
        "samples": {"traced_passes": len(traced), "untraced_passes": len(plain)},
        "wall_samples_s": {"traced": traced, "untraced": plain},
        "counters": counters[0],
    }
    return out, details


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import hologate

    from workloads import Workload

    if Path(hologate.__file__).resolve().parent != SRC / "hologate":
        print(f"error: imported hologate from {hologate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spans = os.path.abspath(args.spans) if args.spans else None
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    # The ops write relative paths, so every run works in a directory of its own.
    with tempfile.TemporaryDirectory(dir=work) as run_dir:
        os.chdir(run_dir)
        try:
            wl = Workload(args.workload, args.seed)
            if args.trace:
                metrics, details = run_traced(wl, args.seconds, spans)
            else:
                metrics, details = run_timed(wl, args.seconds)
        finally:
            os.chdir(ROOT)
    try:
        work.rmdir()
    except OSError:  # another run in this checkout still uses it
        pass
    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine_block(),
        ops_per_pass=len(wl.ops),
        fail_frac=wl.failed / wl.attempted,
        output_digest=wl.digest(),
        per_argv=wl.per_argv(),
        problems=wl.problems[:20],
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not wl.wrong,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:17} {name:38} {metric['value']:.6g} {metric['unit']}")
        print(f"{workload:17} {'fail_frac':38} {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; shapes the argv")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1: write the traced spans here as JSON lines")
    args = parser.parse_args(argv)
    if not (SRC / "hologate" / "cli.py").is_file():
        print(f"error: no hologate sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
