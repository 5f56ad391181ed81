"""Spans around the public functions of each multifuse module.

``Tracer.install`` replaces every binding of the listed functions, in every
loaded ``multifuse`` module, by a wrapper that records a span and calls the
original with the same arguments; ``uninstall`` puts the originals back.  The
program is not edited, so a traced ``run_pipeline`` makes exactly the calls
an untraced one makes, one Python call deeper each.

A span is ``{"name", "start", "end", "parent", "run"}``, plus ``iterations``
and ``converged`` for solver calls and ``peak_mb`` for the outermost
distance-correlation call, whose peak comes from ``tracemalloc``.
``numpy.linalg.eigh`` gets a span only when called directly by
``sym_eigen``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc

import numpy as np

TRACED = {
    "pipeline": ("run_pipeline", "load_abundance_tables", "filter_entities", "build_layers",
                 "write_similarity_csv", "export_graph"),
    "cli": ("main",),
    "simbuild": ("rbf_similarity", "auto_sigma"),
    "snf": ("snf_fuse", "local_normalize", "cdp_step"),
    "sma": ("rv_matrix", "weights_frobenius", "weights_rowsum", "solve_barycenter",
            "barycenter_frobenius", "barycenter_riemannian", "barycenter_wasserstein"),
    "matcore": ("sym_eigen",),
    "netanalysis": ("distance_correlation", "correlation_table", "louvain_communities"),
}
SOLVERS = {"snf.snf_fuse", "sma.barycenter_frobenius", "sma.barycenter_riemannian",
           "sma.barycenter_wasserstein"}
DCOR = {"netanalysis.distance_correlation", "netanalysis.correlation_table"}
EIGH = "numpy.linalg.eigh"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == EIGH and (parent is None or parent["name"] != "matcore.sym_eigen"):
                return fn(*args, **kwargs)
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": None if parent is None else parent["id"], "run": self.run_id,
                    "id": len(spans)}
            measure_memory = name in DCOR and not any(s["name"] in DCOR for s in stack)
            if measure_memory:
                tracemalloc.start()
            spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if measure_memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if name in SOLVERS:
                span["iterations"] = int(result.iterations)
                span["converged"] = bool(result.converged)
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for short, names in TRACED.items():
            module = sys.modules[f"multifuse.{short}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrappers[id(original)] = self._wrap(f"{short}.{fn_name}", original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "multifuse" and not mod_name.startswith("multifuse."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._patched.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._wrap(EIGH, np.linalg.eigh)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-run metrics from a list of spans


def _covered(spans, by_id, names) -> float:
    """Time inside spans named in ``names``, not counting nested ones twice."""
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            total += s["end"] - s["start"]
    return total


def _solver(spans, by_id, name) -> tuple[float, int, float]:
    seconds = _covered(spans, by_id, {name})
    iters = sum(s.get("iterations", 0) for s in spans if s["name"] == name)
    return seconds, iters, seconds / iters if iters else 0.0


def run_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (all spans sharing one run id)."""
    by_id = {s["id"]: s for s in spans}

    def cov(*names):
        return _covered(spans, by_id, set(names))

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    snf = [s for s in spans if s["name"] == "snf.snf_fuse"]
    own = self_times(spans)
    out = {
        "pipeline.load_s": cov("pipeline.load_abundance_tables"),
        "pipeline.filter_s": cov("pipeline.filter_entities"),
        "pipeline.write_s": cov("pipeline.write_similarity_csv", "pipeline.export_graph"),
        "pipeline.self_s": own.get("pipeline.run_pipeline", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "simbuild.rbf_s": cov("simbuild.rbf_similarity", "simbuild.auto_sigma"),
        "snf.local_normalize_s": cov("snf.local_normalize"),
        "snf.cdp_step_s": cov("snf.cdp_step"),
        "snf.converged": (sum(s["converged"] for s in snf) / len(snf)) if snf else 0.0,
        "sma.rv_weights_s": cov("sma.rv_matrix", "sma.weights_frobenius", "sma.weights_rowsum"),
        "sma.unconverged": sum(1 for s in spans if s["name"].startswith("sma.barycenter_")
                               and not s["converged"]),
        "matcore.sym_eigen_calls": count("matcore.sym_eigen"),
        "matcore.sym_eigen_s": cov("matcore.sym_eigen"),
        "matcore.eigh_s": cov(EIGH),
        "netanalysis.dcor_s": cov(*DCOR),
        "netanalysis.dcor_calls": count("netanalysis.distance_correlation"),
        "netanalysis.dcor_peak_mb": max((s.get("peak_mb", 0.0) for s in spans), default=0.0),
        "netanalysis.louvain_s": cov("netanalysis.louvain_communities"),
    }
    out["snf.fuse_s"], out["snf.iters"], out["snf.s_per_iter"] = _solver(
        spans, by_id, "snf.snf_fuse")
    for metric in ("riemannian", "wasserstein"):
        p = f"sma.{metric}"
        out[f"{p}_s"], out[f"{p}_iters"], out[f"{p}_s_per_iter"] = _solver(
            spans, by_id, f"sma.barycenter_{metric}")
    return out


def self_times(spans) -> dict[str, float]:
    """Self time of every span name, summed over all spans given."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - children.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
