"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions of each package module for
the length of a traced pass and restores them afterwards, so untraced
passes run the program untouched. A wrapper is installed wherever the
original function object is bound: in its own module, in every module that
imported it by name, and in the package namespace. Times are inclusive: a
``metrics.brier_score`` call made by ``model_parts`` counts in both.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
import types

MB = 1024.0 * 1024.0

# (module, function) -> metric prefix. Times sum over the calls of a pass.
TIMED = (
    ("ingest", "ingest_csv"),
    ("models", "fit_cox"),
    ("global_explain", "model_parts"),
    ("global_explain", "model_profile"),
    ("global_explain", "model_profile_2d"),
    ("global_explain", "model_diagnostics"),
    ("local_explain", "predict_parts_survlime"),
    ("local_explain", "predict_profile"),
    ("local_explain", "model_survshap"),
    ("artifacts", "build_envelope"),
    ("svg", "render_line_chart"),
)
METRIC_KERNELS = ("brier_score", "cd_auc", "concordance_index", "roc_at_time")

# Every per-layer metric a traced run reports, zero when its layer does not
# run on a workload. The CLI commands are timed by the runner, per command.
CLI_COMMANDS = ("fit", "predict", "performance", "parts", "profile", "profile2d", "diagnostics",
                "shap", "lime", "ice", "survshap-global", "plot")
LAYER_METRICS = (
    [(f"{module}.{name}_s", "s") for module, name in TIMED]
    + [(f"metrics.{name}_s", "s") for name in METRIC_KERNELS]
    + [
        ("metrics.peak_mb", "MB"),
        ("local_explain.survshap_exact_s", "s"),
        ("local_explain.survshap_sampling_s", "s"),
        ("artifacts.write_artifact_s", "s"),
        ("artifacts.bytes_written", "bytes"),
        ("explainer.survival_matrix_s", "s"),
        ("explainer.survival_matrix_calls", "count"),
        ("explainer.rows_predicted", "count"),
        ("explainer.user_fn_calls", "count"),
    ]
    + [(f"cli.{command}_s", "s") for command in CLI_COMMANDS]
)


class LayerTracer:
    """Accumulates per-layer totals for one pass; ``install``/``uninstall``
    bracket the traced pass."""

    def __init__(self, package):
        self.package = package
        self.totals = {}
        self._restore = []

    def reset(self):
        self.totals = {name: 0.0 for name, _ in LAYER_METRICS}

    def add(self, name, amount):
        self.totals[name] += amount

    def peak(self, name, amount):
        self.totals[name] = max(self.totals[name], amount)

    # -- wrappers --------------------------------------------------------------

    def _timed(self, original, metric):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.add(metric, time.perf_counter() - start)
        return wrapper

    def _metric_kernel(self, original, metric):
        def wrapper(*args, **kwargs):
            outermost = not tracemalloc.is_tracing()
            if outermost:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.add(metric, time.perf_counter() - start)
                if outermost:
                    self.peak("metrics.peak_mb", tracemalloc.get_traced_memory()[1] / MB)
                    tracemalloc.stop()
        return wrapper

    def _survshap(self, original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.add(f"local_explain.survshap_{result.method}_s", time.perf_counter() - start)
            return result
        return wrapper

    def _write_artifact(self, original):
        def wrapper(path, envelope):
            start = time.perf_counter()
            original(path, envelope)
            self.add("artifacts.write_artifact_s", time.perf_counter() - start)
            self.add("artifacts.bytes_written", os.path.getsize(path))
        return wrapper

    def _survival_matrix(self, original):
        def wrapper(explainer, X, grid=None):
            start = time.perf_counter()
            result = original(explainer, X, grid)
            self.add("explainer.survival_matrix_s", time.perf_counter() - start)
            self.add("explainer.survival_matrix_calls", 1)
            self.add("explainer.rows_predicted", len(result))
            return result
        return wrapper

    def count_calls(self, fn, metric):
        """Wrap a user callable so each call counts toward ``metric``."""
        def wrapper(*args, **kwargs):
            self.add(metric, 1)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self):
        prefix = self.package.__name__
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        wrapped = {}
        for module, name in TIMED:
            original = getattr(sys.modules[f"{prefix}.{module}"], name)
            wrapped[original] = self._timed(original, f"{module}.{name}_s")
        for name in METRIC_KERNELS:
            original = getattr(sys.modules[f"{prefix}.metrics"], name)
            wrapped[original] = self._metric_kernel(original, f"metrics.{name}_s")
        local = sys.modules[f"{prefix}.local_explain"]
        wrapped[local.predict_parts_survshap] = self._survshap(local.predict_parts_survshap)
        artifacts = sys.modules[f"{prefix}.artifacts"]
        wrapped[artifacts.write_artifact] = self._write_artifact(artifacts.write_artifact)

        for module in modules:
            for attribute, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._restore.append((module, attribute, value))
                    setattr(module, attribute, wrapped[value])
        explainer_class = sys.modules[f"{prefix}.explainer"].Explainer
        original = explainer_class.survival_matrix
        self._restore.append((explainer_class, "survival_matrix", original))
        explainer_class.survival_matrix = self._survival_matrix(original)

    def uninstall(self):
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)
