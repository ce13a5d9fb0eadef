"""Layer spans recorded from outside the program.

``Tracer.install()`` rebinds every public function of hologate's layer
modules (``su2``, ``drive``, ``evolution``, ``synthesis``) in each hologate
namespace that holds it, which is where its callers look it up (for example
``hologate.cli.full_report`` and ``hologate.evolution.propagate``). Each
wrapper appends a span ``[name, start, end, parent]`` to an in-memory list;
``uninstall()`` puts the originals back. Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its direct
children. Calls run on one thread and nest, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import hologate
import hologate.cli
from hologate.evolution import DEFAULT_STEPS

LAYERS = ("su2", "drive", "evolution", "synthesis")

#: Bytes of the (steps, 2, 2) complex128 step-factor array per midpoint step.
FACTOR_BYTES_PER_STEP = 64
#: Bytes of the quadrature arrays per grid node: times (8), phase (16),
#: Hamiltonian nodes (64), and per branch the eigenvector (32) plus the
#: geometric and dynamical integrands (8 + 8).
QUADRATURE_BYTES_PER_NODE = 8 + 16 + 64 + 2 * (32 + 8 + 8)


class Tracer:
    """Spans and work counters of the calls made while installed."""

    def __init__(self):
        self._sites = []  # (namespace, attribute, original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"hologate.{layer}"]
            for attr in hologate.__all__:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._add_sites(fn, self._wrap(f"{layer}.{attr}", fn))
        self.main = self._wrap("cli.main", hologate.cli.main)
        self.reset()

    def _add_sites(self, fn, wrapper) -> None:
        for name in ("hologate", "hologate.cli", *(f"hologate.{layer}" for layer in LAYERS)):
            namespace = sys.modules[name]
            for attr, value in vars(namespace).items():
                if value is fn:
                    self._sites.append((namespace, attr, fn, wrapper))

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._sites:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._sites:
            setattr(namespace, attr, original)

    def _wrap(self, name: str, fn):
        count = self._counter(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        """Work counter for ``name``, read from its arguments or result."""
        if name in ("synthesis.synthesize", "synthesis.refine"):

            def count(counts, args, kwargs, result):
                counts["synthesis.results"] += 1
                counts["synthesis.evaluations"] += result.evaluations
                counts["synthesis.restarts"] += result.restarts_used
                counts["synthesis.converged"] += int(result.converged)

            return count
        signature = inspect.signature(fn)
        if name in ("evolution.propagate", "evolution.propagate_samples"):

            def count(counts, args, kwargs, result):
                a = signature.bind(*args, **kwargs).arguments
                # propagate takes `steps`; propagate_samples takes samples and steps_per_segment
                steps = a["steps"] if "steps" in a else (a["samples"] - 1) * a["steps_per_segment"]
                counts["evolution.steps"] += steps
                counts["evolution.bytes_computed"] += FACTOR_BYTES_PER_STEP * steps

            return count
        if name in ("evolution.full_report", "evolution.spectral_propagator"):

            def count(counts, args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                nodes = bound.arguments.get("steps", DEFAULT_STEPS) + 1
                counts["evolution.bytes_computed"] += QUADRATURE_BYTES_PER_NODE * nodes

            return count
        return None


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _), children in zip(spans, child_time):
        self_s[name] += end - start - children
        calls[name] += 1
    return self_s, calls


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    self_s, calls = self_times(spans)

    def layer_total(prefix: str, table) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    evaluations = counts["synthesis.evaluations"]
    steps = counts["evolution.steps"]
    search_s = self_s["synthesis.synthesize"] + self_s["synthesis.refine"]
    propagate_s = self_s["evolution.propagate"] + self_s["evolution.propagate_samples"]
    metrics = {
        "synthesis.synthesize.self_s": self_s["synthesis.synthesize"],
        "synthesis.refine.self_s": self_s["synthesis.refine"],
        "synthesis.evaluations": evaluations,
        "synthesis.restarts": counts["synthesis.restarts"],
        "synthesis.us_per_evaluation": 1e6 * search_s / evaluations if evaluations else 0.0,
        "synthesis.converged_frac": (
            counts["synthesis.converged"] / counts["synthesis.results"]
            if counts["synthesis.results"]
            else 0.0
        ),
        "synthesis.compose.calls": calls["synthesis.compose"],
        "synthesis.compose.self_s": self_s["synthesis.compose"],
        "su2.fidelity.calls": calls["su2.fidelity"],
        "su2.fidelity.self_s": self_s["su2.fidelity"],
        "evolution.propagate.self_s": self_s["evolution.propagate"],
        "evolution.full_report.self_s": self_s["evolution.full_report"],
        "evolution.spectral_propagator.self_s": self_s["evolution.spectral_propagator"],
        "evolution.propagate_samples.self_s": self_s["evolution.propagate_samples"],
        "evolution.steps": steps,
        "evolution.ns_per_step": 1e9 * propagate_s / steps if steps else 0.0,
        "evolution.bytes_computed": counts["evolution.bytes_computed"],
        "su2.bloch_of.calls": calls["su2.bloch_of"],
        "su2.bloch_of.self_s": self_s["su2.bloch_of"],
        "cli.self_s": self_s["cli.main"],
        "drive.calls": layer_total("drive", calls),
        "drive.self_s": layer_total("drive", self_s),
    }
    for layer in ("su2", "evolution", "synthesis"):
        metrics[f"{layer}.self_s"] = layer_total(layer, self_s)
    return metrics


#: Per-layer metrics that count work; they must repeat exactly at a fixed seed.
EXACT_COUNTERS = (
    "synthesis.evaluations",
    "synthesis.restarts",
    "synthesis.compose.calls",
    "su2.fidelity.calls",
    "evolution.steps",
    "evolution.bytes_computed",
    "su2.bloch_of.calls",
    "drive.calls",
    "cli.bytes_written",
)
