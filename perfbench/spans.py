"""In-memory span tracing of the phasespec layers, from outside the package.

The tracer wraps the public entry points of each layer and patches every
name where its caller looks it up (``phasespec.experiments.estimate_expectation``
is the estimator as ``run_henon_heiles`` sees it, ``phasespec.cli.write_csv``
is the CSV writer as ``cli.main`` sees it, and so on).  Nothing in the
package is edited; ``uninstall`` restores every original.

A span is (id, name, parent, thread, start, end) plus the work it did
(points, bytes) and a few call attributes.  Spans opened on a worker thread
with nothing open on that thread take the open estimator span as their
parent, so the chunk pool's work nests under the estimate that started it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import statistics
import threading
import time
from importlib import import_module

# (module, attribute path, span name, options).  A target missing from the
# package is skipped and listed in ``Tracer.missing``, so the benchmark keeps
# running when a later refactor removes an entry point.
TARGETS = [
    ("phasespec.sampling", "PointSource.uniform_block", "sampling.uniform_block", {"points": "count", "stream": True}),
    ("phasespec.sampling", "ndtri", "sampling.ndtri", {}),
    ("phasespec.sampling", "gamma2_inverse_cdf", "sampling.gamma2_inverse_cdf", {}),
    # Per-chunk assembly; transparent, so its own time stays in the
    # estimator's self time, but it marks the chunk for pool_busy_frac.
    ("phasespec.sampling", "_component_arrays", "sampling.component_arrays", {"transparent": True}),
    ("phasespec.sampling", "husimi_many", "densities.husimi_many", {"points": "Q"}),
    ("phasespec.sampling", "hermite_mixture_many", "densities.hermite_mixture_many", {"points": "Q"}),
    ("phasespec.sampling", "estimate_expectation", "sampling.estimate_expectation", {"estimate": True}),
    ("phasespec.experiments", "estimate_expectation", "sampling.estimate_expectation", {"estimate": True}),
    ("phasespec.observables", "Observable.evaluate", "observables.evaluate", {"points": "Q"}),
    ("phasespec.experiments", "reference_expectation_grid", "observables.reference_expectation_grid", {}),
    ("phasespec.observables", "position_wavefunction", "observables.position_wavefunction", {"points": "X"}),
    ("phasespec.quadrature", "tensor_grid_integrals", "quadrature.tensor_grid_integrals", {}),
    ("phasespec.densities", "mu_many", "densities.mu_many", {"points": "Q"}),
    ("phasespec.densities", "mu_combination_many", "densities.mu_combination_many", {"points": "Q"}),
    ("phasespec.densities", "wigner_many", "densities.wigner_many", {"points": "Q"}),
    ("phasespec.experiments", "run_henon_heiles", "experiments.run_henon_heiles", {}),
    ("phasespec.experiments", "run_accuracy_sweep", "experiments.run_accuracy_sweep", {}),
    ("phasespec.cli", "run_expectation", "experiments.run_expectation", {}),
    ("phasespec.cli", "write_csv", "experiments.write_csv", {"bytes": True}),
    ("phasespec.cli", "main", "cli.main", {}),
]

LAYERS = ("sampling", "densities", "observables", "quadrature", "experiments", "cli")
DENSITY_FUNCTIONS = ("husimi_many", "hermite_mixture_many", "mu_many", "mu_combination_many", "wigner_many")
RUNNERS = ("run_henon_heiles", "run_accuracy_sweep", "run_expectation")
GUARD_DIMS = (2, 8, 32)
ROOT = "bench.iteration"


def _resolve(module: str, path: str):
    owner = import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    """Records spans at the layer boundaries listed in ``TARGETS``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._estimate_id = None
        self._patches: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1]["id"] if stack else self._estimate_id
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "thread": threading.current_thread().name,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        stack.append(rec)
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter() - self._t0
        self._stack().pop()
        self.spans.append(rec)

    @contextlib.contextmanager
    def root(self, iteration: int):
        """The span enclosing one workload iteration."""
        rec = self._open(ROOT)
        rec["iteration"] = iteration
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str, opts: dict):
        tracer = self
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):  # numpy ufuncs such as ndtri
            signature = None
        params = [] if signature is None else list(signature.parameters)

        def argument(args, kwargs, param):
            i = params.index(param)
            if i < len(args):
                return args[i]
            if param in kwargs:
                return kwargs[param]
            return signature.parameters[param].default

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            if opts.get("estimate"):
                rec["d"] = int(argument(args, kwargs, "state").dim)
                rec["n"] = int(argument(args, kwargs, "n"))
                rec["workers"] = int(argument(args, kwargs, "workers"))
                outer, tracer._estimate_id = tracer._estimate_id, rec["id"]
            try:
                result = fn(*args, **kwargs)
            finally:
                if opts.get("estimate"):
                    tracer._estimate_id = outer
                tracer._close(rec)
            if "points" in opts:
                value = argument(args, kwargs, opts["points"])
                rec["points"] = int(value) if opts["points"] == "count" else len(value)
            if opts.get("stream"):
                start = int(argument(args, kwargs, "start"))
                rec["stream"] = (args[0].generator_id, start, start + rec["points"])
            if opts.get("bytes"):
                rec["bytes"] = len(result.encode())
            if opts.get("transparent"):
                rec["transparent"] = True
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        for module, path, name, opts in TARGETS:
            owner, attr, fn = _resolve(module, path)
            if fn is None:
                if f"{module}.{path}" not in self.missing:
                    self.missing.append(f"{module}.{path}")
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, opts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


# -- analysis -------------------------------------------------------------
def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def _effective_children(span, children):
    """Children with transparent spans replaced by their own children."""
    out = []
    for child in children.get(span["id"], ()):
        if child.get("transparent"):
            out.extend(_effective_children(child, children))
        else:
            out.append(child)
    return out


def iteration_metrics(spans: list[dict], projected_seconds=None) -> dict:
    """Per-layer metrics of one traced iteration.

    ``spans`` holds the iteration's root span and everything below it.
    Times are summed over threads, so a layer running on two workers can
    report more seconds than the iteration took.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    self_time = {}
    for s in spans:
        if s.get("transparent"):
            continue
        kids = _effective_children(s, children)
        self_time[s["id"]] = dur[s["id"]] - _covered(
            [(k["start"], k["end"]) for k in kids], s["start"], s["end"]
        )

    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, key=None):
        return float(sum(dur[s["id"]] if key is None else s.get(key, 0) for s in named(name)))

    def self_of(name):
        return float(sum(self_time[s["id"]] for s in named(name)))

    m = {}
    m["sampling.uniform_block.s"] = total("sampling.uniform_block")
    m["sampling.uniform_block.points"] = total("sampling.uniform_block", "points")
    m["sampling.stream_reuse"] = stream_reuse([s["stream"] for s in named("sampling.uniform_block")])
    m["sampling.ndtri.s"] = total("sampling.ndtri")
    m["sampling.gamma2_inverse_cdf.s"] = total("sampling.gamma2_inverse_cdf")
    m["sampling.estimate_expectation.self_s"] = self_of("sampling.estimate_expectation")
    m["sampling.chunks"] = float(len(named("sampling.uniform_block")))
    estimates = named("sampling.estimate_expectation")
    busy = sum(dur[k["id"]] for e in estimates for k in children.get(e["id"], ()))
    capacity = sum(e["workers"] * dur[e["id"]] for e in estimates)
    m["sampling.pool_busy_frac"] = busy / capacity if capacity > 0 else 0.0
    m["observables.evaluate.s"] = total("observables.evaluate")
    m["observables.evaluate.points"] = total("observables.evaluate", "points")
    m["observables.reference_expectation_grid.s"] = total("observables.reference_expectation_grid")
    m["observables.reference_expectation_grid.calls"] = float(len(named("observables.reference_expectation_grid")))
    m["observables.position_wavefunction.points"] = total("observables.position_wavefunction", "points")
    m["quadrature.tensor_grid_integrals.s"] = total("quadrature.tensor_grid_integrals")
    m["quadrature.tensor_grid_integrals.calls"] = float(len(named("quadrature.tensor_grid_integrals")))
    for fn in DENSITY_FUNCTIONS:
        m[f"densities.{fn}.s"] = total(f"densities.{fn}")
        m[f"densities.{fn}.points"] = total(f"densities.{fn}", "points")
    m["experiments.estimate_calls"] = float(len(estimates))
    m["experiments.write_csv.s"] = total("experiments.write_csv")
    m["experiments.write_csv.bytes"] = total("experiments.write_csv", "bytes")
    for runner in RUNNERS:
        m[f"experiments.{runner}.self_s"] = self_of(f"experiments.{runner}")
    for d in GUARD_DIMS:
        ratios = [] if projected_seconds is None else [
            projected_seconds(e["n"], e["d"]) / dur[e["id"]] for e in estimates if e["d"] == d
        ]
        m[f"experiments.guard_ratio.d{d}"] = statistics.median(ratios) if ratios else 0.0
    m["cli.main.self_s"] = self_of("cli.main")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".")[0]
        if layer in layer_self and s["id"] in self_time:
            layer_self[layer] += self_time[s["id"]]
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds
    root = named(ROOT)[0]
    m["trace.uncovered_s"] = self_time[root["id"]]
    m["trace.spans"] = float(len(spans) - 1)
    return m


def stream_reuse(ranges) -> float:
    """Points generated divided by distinct (generator, index) pairs."""
    generated = sum(e - s for _, s, e in ranges)
    distinct = 0
    by_gen: dict = {}
    for gen, s, e in ranges:
        by_gen.setdefault(gen, []).append((s, e))
    for intervals in by_gen.values():
        lo = min(s for s, _ in intervals)
        hi = max(e for _, e in intervals)
        distinct += _covered(intervals, lo, hi)
    return generated / distinct if distinct else 0.0


def split_iterations(spans: list[dict]) -> list[list[dict]]:
    """Group spans by the iteration root they descend from."""
    by_id = {s["id"]: s for s in spans}
    root_of: dict = {}

    def find(sid):
        path = []
        while sid is not None and sid not in root_of:
            s = by_id[sid]
            if s["name"] == ROOT:
                root_of[sid] = sid
                break
            path.append(sid)
            sid = s["parent"]
        found = root_of.get(sid)
        for p in path:
            root_of[p] = found
        return found

    groups: dict = {}
    for s in spans:
        groups.setdefault(find(s["id"]), []).append(s)
    return [groups[sid] for sid in sorted(g for g in groups if g is not None)]

