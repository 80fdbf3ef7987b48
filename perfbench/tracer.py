"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper at the module attribute its caller looks it up through, so the
program's own code stays untouched. A wrapper records one span (name,
start, end, parent) plus a few attributes; spans stay in memory and are
handed to the parent process once the stage ends. ``layer_metrics`` turns
the spans of a workload into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from statistics import median

import numpy as np

STAGES = ("preprocess", "forecast", "evaluate", "ensemble", "evaluate_ensembles")
MODELS = ("SNaive", "HW", "SARIMA", "Prophet", "STL-Drift", "STL-ES", "STL-Holt", "STL-ARIMA")


def _rows(obj) -> int:
    """Rows behind a reader's result or a writer's argument."""
    if hasattr(obj, "rows"):  # leaderboard
        return len(obj.rows)
    if isinstance(obj, dict):
        return len(obj)
    total = 0
    for item in obj:
        if hasattr(item, "samples"):
            total += len(item.samples)
        elif hasattr(item, "values"):
            total += len(item.values)
        else:
            total += 1
    return total


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# Hooks: before(args, kwargs) -> attrs, evaluated before the span starts;
# after(args, kwargs, result) -> attrs, evaluated after it ends.

def _stl_input(args, kwargs):
    y, period = args[0], args[1] if len(args) > 1 else kwargs.get("period")
    config = args[2] if len(args) > 2 else kwargs.get("config")
    digest = hashlib.sha1(np.asarray(y, dtype=float).tobytes() + repr((period, config)).encode()).hexdigest()
    return {"input": digest}


def _eval_points(args, kwargs):
    points = args[4] if len(args) > 4 else kwargs["eval_points"]
    return {"eval_points": len(points)}


def _samples(args, kwargs):
    return {"samples": len(args[0].samples)}


def _fit(args, kwargs, result):
    return {"model": args[0].value, "fallback": bool(result.notes)}


def _fill(args, kwargs, result):
    if hasattr(result, "filled_flags"):
        return {"filled": int(result.filled_flags.sum())}
    return {"rejected": 1}


def _records(args, kwargs, result):
    return {"records": len(result[0])}


def _win(args, kwargs, result):
    return {"win_fraction": float(result.win_fraction)}


def _read(args, kwargs, result):
    return {"rows": _rows(result), "bytes": _size(args[0])}


def _write(args, kwargs, result):
    return {"rows": _rows(args[1]), "bytes": _size(args[0])}


# (module, attribute, span name, before, after)
TARGETS = [
    ("pqforecast.cli", "fit_predict", "models.fit_predict", None, _fit),
    ("pqforecast.models.stl_models", "stl_decompose", "numerics.stl_decompose", _stl_input, None),
    ("pqforecast.numerics", "stl_decompose", "numerics.stl_decompose", _stl_input, None),
    ("pqforecast.numerics.stl", "loess_window", "numerics.loess_window", _eval_points, None),
    ("pqforecast.models.sarima", "nelder_mead", "numerics.nelder_mead", None, None),
    ("pqforecast.models.smoothing", "nelder_mead", "numerics.nelder_mead", None, None),
    ("pqforecast.models.sarima", "css_residuals", "numerics.css_residuals", None, None),
    ("pqforecast.cli", "combine", "ensembles.combine", None, None),
    ("pqforecast.ensembles", "compute_weights", "ensembles.compute_weights", None, None),
    ("pqforecast.cli", "evaluate_corpus", "evaluation.evaluate_corpus", None, _records),
    ("pqforecast.cli", "composition_analysis", "evaluation.composition_analysis", None, None),
    ("pqforecast.cli", "compare_best", "evaluation.compare_best", None, _win),
    ("pqforecast.cli", "aggregate_weekly", "weekly.aggregate_weekly", _samples, None),
    ("pqforecast.cli", "fill_gaps", "weekly.fill_gaps", None, _fill),
    ("pqforecast.cli", "normalize", "weekly.normalize", None, None),
] + [
    ("pqforecast.io", name, "io.read", None, _read)
    for name in ("read_raw_csv", "read_weekly_csv", "read_forecast_csv", "read_leaderboard_csv",
                 "load_planning_levels")
] + [
    ("pqforecast.io", name, "io.write", None, _write)
    for name in ("write_weekly_csv", "write_rejections_csv", "write_forecast_csv",
                 "write_leaderboard_csv", "write_manifest")
]


class Tracer:
    """Span recorder for one stage of one workload, in one process."""

    def __init__(self, workload: str, stage: str, targets=TARGETS):
        self.workload = workload
        self.stage = stage
        self.targets = targets
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self.stack: list[int] = []
        self.missing: list[str] = []

    def install(self) -> None:
        for module_name, attr, name, before, after in self.targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if name == "numerics.nelder_mead":
                wrapper = self._wrap_optimizer(fn)
            else:
                wrapper = self._wrap(fn, name, before, after)
            setattr(module, attr, wrapper)

    def _open(self, name: str, attrs) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else -1, name, 0.0, 0.0, attrs]
        self.spans.append(span)
        self.stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, before, after):
        def wrapper(*args, **kwargs):
            span = self._open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                span[5] = {**(span[5] or {}), **after(args, kwargs, result)}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_optimizer(self, fn):
        """nelder_mead: also count objective evaluations and keep the
        optimizer's own iteration count and convergence flag."""
        def wrapper(objective, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return objective(x)

            span = self._open("numerics.nelder_mead", None)
            try:
                result = fn(counted, *args, **kwargs)
            finally:
                self._close(span)
            span[5] = {"evals": evals[0], "iterations": int(result.iterations),
                       "converged": bool(result.converged)}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_stage(self, main, argv) -> int:
        span = self._open(f"cli.{self.stage}", None)
        try:
            return main(argv)
        finally:
            self._close(span)

    def dump(self) -> dict:
        return {"workload": self.workload, "stage": self.stage, "spans": self.spans,
                "missing": self.missing}


# -- analysis (parent side) ------------------------------------------------------

def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def _outermost(spans: list[list], name: str) -> list[list]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s[0]: s for s in spans}
    out = []
    for span in spans:
        if span[2] != name:
            continue
        parent = span[1]
        while parent >= 0 and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if parent < 0:
            out.append(span)
    return out


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it; (0, 0) with fewer than 20 samples, where it would fall below
    the median."""
    n = len(samples)
    if n < 20:
        return 0.0, 0.0
    pct = 100.0 * (1.0 - 10.0 / n)
    return pct, float(np.percentile(samples, pct))


def pass_counts(spans: list[list]) -> dict[str, float]:
    """Work counts of one traced pass over a workload's stages."""
    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    def total(name, key):
        return sum((s[5] or {}).get(key, 0) for s in spans if s[2] == name)

    def share(name, part):
        return part / calls(name) if calls(name) else 0.0

    stl_inputs = {s[5]["input"] for s in spans if s[2] == "numerics.stl_decompose"}
    wins = [s[5]["win_fraction"] for s in spans if s[2] == "evaluation.compare_best" and s[5]]
    return {
        "numerics.stl_decompose.calls": calls("numerics.stl_decompose"),
        "numerics.stl_decompose.unique_ratio": share("numerics.stl_decompose", len(stl_inputs)),
        "numerics.loess_window.calls": calls("numerics.loess_window"),
        "numerics.loess_window.eval_points": total("numerics.loess_window", "eval_points"),
        "numerics.nelder_mead.calls": calls("numerics.nelder_mead"),
        "numerics.nelder_mead.iterations": total("numerics.nelder_mead", "iterations"),
        "numerics.nelder_mead.objective_evals": total("numerics.nelder_mead", "evals"),
        "numerics.nelder_mead.converged_ratio": share("numerics.nelder_mead",
                                                      total("numerics.nelder_mead", "converged")),
        "numerics.css_residuals.calls": calls("numerics.css_residuals"),
        "models.fits": calls("models.fit_predict"),
        "models.fallbacks": total("models.fit_predict", "fallback"),
        "ensembles.combine.calls": calls("ensembles.combine"),
        "ensembles.compute_weights.calls": calls("ensembles.compute_weights"),
        "evaluation.evaluate_corpus.calls": calls("evaluation.evaluate_corpus"),
        "evaluation.records": total("evaluation.evaluate_corpus", "records"),
        "evaluation.ensemble_win_fraction": wins[-1] if wins else 0.0,
        "io.rows_read": total("io.read", "rows"),
        "io.rows_written": total("io.write", "rows"),
        "io.bytes_read": total("io.read", "bytes"),
        "io.bytes_written": total("io.write", "bytes"),
        "weekly.samples": total("weekly.aggregate_weekly", "samples"),
        "weekly.weeks_filled": total("weekly.fill_gaps", "filled"),
        "weekly.series_rejected": total("weekly.fill_gaps", "rejected"),
        "trace.spans": len(spans),
    }


BUSY = {
    "numerics.stl_decompose.busy_s": "numerics.stl_decompose",
    "numerics.loess_window.busy_s": "numerics.loess_window",
    "numerics.nelder_mead.busy_s": "numerics.nelder_mead",
    "numerics.css_residuals.busy_s": "numerics.css_residuals",
    "models.fit_predict.busy_s": "models.fit_predict",
    "ensembles.combine.busy_s": "ensembles.combine",
    "evaluation.evaluate_corpus.busy_s": "evaluation.evaluate_corpus",
    "evaluation.composition_analysis.busy_s": "evaluation.composition_analysis",
    "evaluation.compare_best.busy_s": "evaluation.compare_best",
    "io.read_s": "io.read",
    "io.write_s": "io.write",
    "weekly.aggregate_weekly.busy_s": "weekly.aggregate_weekly",
    "weekly.fill_gaps.busy_s": "weekly.fill_gaps",
    "weekly.normalize.busy_s": "weekly.normalize",
}

# counters named after a layer rather than after the span they come from
_COUNTER_SOURCES = {
    "io.read_s": "io.read", "io.rows_read": "io.read", "io.bytes_read": "io.read",
    "io.write_s": "io.write", "io.rows_written": "io.write", "io.bytes_written": "io.write",
    "models.fits": "models.fit_predict", "models.fallbacks": "models.fit_predict",
    "evaluation.records": "evaluation.evaluate_corpus",
    "evaluation.ensemble_win_fraction": "evaluation.compare_best",
    "weekly.samples": "weekly.aggregate_weekly",
    "weekly.weeks_filled": "weekly.fill_gaps", "weekly.series_rejected": "weekly.fill_gaps",
}


def _source(metric: str) -> str | None:
    """The span name a metric is measured from; None for cli.* and trace.*."""
    if metric in _COUNTER_SOURCES:
        return _COUNTER_SOURCES[metric]
    if ".fit_ms." in metric:
        return "models.fit_predict"
    return next((t[2] for t in TARGETS if metric.startswith(t[2] + ".")), None)


def layer_metrics(passes: list[dict], missing: list[str]) -> dict[str, float]:
    """Per-layer metrics from traced passes over a workload.

    ``passes`` holds, per repetition, ``{stage: {"spans", "traced_s"}}``;
    the first also has the untraced ``untraced_s`` and ``rss_mb``. Counts
    come from the first pass (they repeat exactly); times are medians over
    passes; fit-time percentiles pool the fits of all passes. Metrics of a span name whose every wrap
    target is missing are left out, so they read as missing, not as zero.
    """
    first = passes[0]
    metrics = pass_counts([s for stage in first.values() for s in stage["spans"]])
    for metric, name in BUSY.items():
        metrics[metric] = median(
            sum(s[4] - s[3] for stage in p.values() for s in _outermost(stage["spans"], name))
            for p in passes)

    fit_ms: dict[str, list[float]] = {m: [] for m in MODELS}
    for p in passes:
        for stage in p.values():
            for s in stage["spans"]:
                if s[2] == "models.fit_predict" and s[5]["model"] in fit_ms:
                    fit_ms[s[5]["model"]].append(1000.0 * (s[4] - s[3]))
    for model, samples in fit_ms.items():
        pct, tail = tail_percentile(samples)
        metrics[f"models.{model}.fit_ms.p50"] = median(samples) if samples else 0.0
        metrics[f"models.{model}.fit_ms.tail"] = tail
        metrics[f"models.{model}.fit_ms.tail_pct"] = pct
        metrics[f"models.{model}.fit_ms.n"] = len(samples)

    for stage in STAGES:
        selfs = []
        for p in passes:
            if stage in p:
                spans = p[stage]["spans"]
                root = next(s for s in spans if s[2] == f"cli.{stage}")
                selfs.append(self_times(spans)[root[0]])
        metrics[f"cli.{stage}.self_s"] = median(selfs) if selfs else 0.0
        metrics[f"cli.{stage}.peak_rss_mb"] = first[stage]["rss_mb"] if stage in first else 0.0

    metrics["trace.overhead_ratio"] = (sum(st["traced_s"] for st in first.values())
                                       / sum(st["untraced_s"] for st in first.values()))
    metrics["trace.missing_targets"] = len(missing)

    gone = {t[2] for t in TARGETS} - {t[2] for t in TARGETS if f"{t[0]}.{t[1]}" not in missing}
    return {k: v for k, v in metrics.items() if _source(k) not in gone}
