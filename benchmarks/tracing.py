"""Spans around the calls into each ``poolreg`` module, and the layer metrics.

The tracer replaces public functions by wrappers at the names the program
looks them up under (``poolreg.simulation.estimate_curve`` is the one the
Monte Carlo loop calls, ``poolreg.estimators.kernel_eval`` the one every
fit calls). A wrapper records a span (name, layer, start, end, parent) and
a few counts read off the call's result. Spans stay in memory until the
run ends.

A span's self time is its duration minus the time its child spans cover.
Counting after a call is the tracer's own work: it sits inside the child's
covered interval, so it never lands in the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

_THEORY_SUMMARIES = (
    "individual_summary", "homogeneous_summary", "marginal_random_summary",
    "average_random_summary", "product_random_bias",
)

# (module, attribute, layer) for every call site the benchmark wraps
WRAPPED = (
    ("poolreg.cli", "main", "cli"),
    ("poolreg.cli", "read_pooled_csv", "data"),
    ("poolreg.cli", "select_bandwidth", "bandwidth"),
    ("poolreg.cli", "estimate_curve", "estimators"),
    ("poolreg.cli", "build_pseudo_data", "estimators"),
    ("poolreg.cli", "run_monte_carlo", "simulation"),
    ("poolreg.cli", "select_quartile_realizations", "simulation"),
    ("poolreg.cli", "theory_context", "simulation"),
    ("poolreg.simulation", "_replicate", "simulation"),
    ("poolreg.simulation", "sample_dgp", "simulation"),
    ("poolreg.simulation", "pool_random", "data"),
    ("poolreg.simulation", "pool_homogeneous", "data"),
    ("poolreg.simulation", "build_pseudo_data", "estimators"),
    ("poolreg.simulation", "select_bandwidth", "bandwidth"),
    ("poolreg.simulation", "estimate_curve", "estimators"),
    ("poolreg.estimators", "kernel_eval", "kernels"),
    *(("poolreg.theory", name, "theory") for name in _THEORY_SUMMARIES),
)


def _counts(attr: str, result) -> dict:
    """Work counts read off a call's result."""
    if attr == "kernel_eval":
        arr = np.asarray(result)
        return {"elements": int(arr.size), "nonzero": int(np.count_nonzero(arr))}
    if attr == "select_bandwidth":
        return {"candidates": int(result.h_grid.size),
                "valid": int(np.isfinite(result.criterion).sum()),
                "fold_failures": len(result.failures)}
    if attr == "estimate_curve":
        return {"points": int(result.grid.size), "failed": int(result.n_failed)}
    return {}


class Tracer:
    """Installs the wrappers, collects spans, and restores the originals."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, f"{module_name}.{attr}", attr, layer))
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, original, name: str, attr: str, layer: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": name, "layer": layer,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span["counts"] = _counts(attr, result)
            span["cover_end"] = time.perf_counter()
            return result

        return wrapper


def self_times(spans: list[dict]) -> dict[int, float]:
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["cover_end"] - s["start"]
    return {s["id"]: max(0.0, s["end"] - s["start"] - covered[s["id"]]) for s in spans}


def layer_metrics(spans: list[dict], overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced run."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def pick(attr: str, outermost: bool = False) -> list[dict]:
        # outermost: drop spans nested in another span of the same function
        out = []
        for s in spans:
            if s["name"].rsplit(".", 1)[1] != attr:
                continue
            if outermost and s["parent"] is not None and \
                    by_id[s["parent"]]["name"].rsplit(".", 1)[1] == attr:
                continue
            out.append(s)
        return out

    def total(group, key=None) -> float:
        if key is None:
            return float(sum(s["end"] - s["start"] for s in group))
        return float(sum(s["counts"].get(key, 0) for s in group))

    def self_total(group) -> float:
        return float(sum(own[s["id"]] for s in group))

    kernels = pick("kernel_eval")
    bandwidth = pick("select_bandwidth", outermost=True)
    curves = pick("estimate_curve", outermost=True)
    theory = [s for s in spans if s["layer"] == "theory"
              and (s["parent"] is None or by_id[s["parent"]]["layer"] != "theory")]
    pools = pick("pool_random") + pick("pool_homogeneous")
    elements = total(kernels, "elements")
    return {
        "kernels.kernel_eval_s": total(kernels),
        "kernels.kernel_eval_calls": float(len(kernels)),
        "kernels.kernel_evals": elements,
        "kernels.nonzero_ratio": total(kernels, "nonzero") / elements if elements else 0.0,
        "kernels.bytes_computed": 8.0 * elements,
        "bandwidth.select_bandwidth_s": total(bandwidth),
        "bandwidth.self_s": self_total(bandwidth),
        "bandwidth.calls": float(len(bandwidth)),
        "bandwidth.candidates": total(bandwidth, "candidates"),
        "bandwidth.candidates_valid": total(bandwidth, "valid"),
        "bandwidth.fold_failures": total(bandwidth, "fold_failures"),
        "estimators.estimate_curve_s": total(curves),
        "estimators.self_s": self_total(curves),
        "estimators.calls": float(len(curves)),
        "estimators.points": total(curves, "points"),
        "estimators.points_failed": total(curves, "failed"),
        "simulation.run_monte_carlo_s": total(pick("run_monte_carlo")),
        "simulation.replicate_self_s": self_total(pick("_replicate")),
        "simulation.sample_dgp_s": total(pick("sample_dgp")),
        "data.read_pooled_csv_s": total(pick("read_pooled_csv")),
        "data.pool_s": total(pools),
        "data.pool_calls": float(len(pools)),
        "theory.summary_s": total(theory),
        "theory.summary_calls": float(len(theory)),
        "cli.self_s": self_total(pick("main")),
        "trace.overhead_s": overhead_s,
    }
