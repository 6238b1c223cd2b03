"""Span tracing of volterra_lab's layers from outside the package.

``Tracer.install`` replaces every public module-level function of the
traced modules (plus ``ExperimentConfig.from_dict``) with a wrapper that
records a span: name, start, end, parent span and experiment id.  Several
modules import functions by value (``from .core import solve_linear``), so
every module binding of an original function is replaced, not only the
defining one; calls through any binding therefore nest correctly, such as
``resolvent`` reaching ``solve_linear`` through ``core``'s global.

Spans stay in memory; ``layer_metrics`` aggregates them and ``dump``
writes them out once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("core", "stochastic", "asymptotics", "series", "spectral", "config", "cli")


def kernel_terms(horizon: int, m: int) -> int:
    """Kernel terms the forward recursion visits: sum_{n<horizon} min(n+1, m).

    A computed count (it assumes the solve runs to the horizon), not a
    measured one.
    """
    full = min(horizon, m)
    return full * (full + 1) // 2 + (horizon - full) * m


def _solve_linear_variant(signature, args, kwargs):
    from volterra_lab.series import LogTrajectory

    bound = signature.bind(*args, **kwargs)
    log = bound.arguments.get("log_domain", False) or isinstance(
        bound.arguments["forcing"], LogTrajectory)
    terms = kernel_terms(int(bound.arguments["horizon"]), bound.arguments["kernel"].size)
    return ("log" if log else "plain"), terms


class Tracer:
    """Records spans; ``experiment`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, experiment, terms]
        self.experiment = None
        self._stack = []
        self._restore = []
        self._annotators = {}  # span name -> (args, kwargs) -> (variant, terms)

    def _wrap(self, name, fn):
        annotate = self._annotators.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label, terms = name, 0
            if annotate is not None:
                variant, terms = annotate(args, kwargs)
                label = f"{name}.{variant}"
            span = [label, time.perf_counter(), None,
                    stack[-1] if stack else None, self.experiment, terms]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap the public functions of every traced module, in every binding."""
        import volterra_lab.cli  # noqa: F401  (imports every traced module)
        from volterra_lab.config import ExperimentConfig
        from volterra_lab.core import solve_linear

        self._annotators["core.solve_linear"] = functools.partial(
            _solve_linear_variant, inspect.signature(solve_linear))
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"volterra_lab.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "volterra_lab" and not module_name.startswith("volterra_lab."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])
                    self._restore.append((module, attr, obj))
        original = ExperimentConfig.__dict__["from_dict"]
        ExperimentConfig.from_dict = classmethod(
            self._wrap("config.ExperimentConfig.from_dict", original.__func__))
        self._restore.append((ExperimentConfig, "from_dict", original))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "experiment", "terms")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def layer_metrics(spans) -> tuple:
    """Per span name: calls, inclusive ``s``, ``self_s`` and ``terms``.

    ``s`` counts a span only when no ancestor carries the same name, so a
    function that reaches itself is not counted twice.  Also returns
    ``top_s``, the summed duration of spans without a parent.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    top_s = 0.0
    for i, (name, start, end, parent, _, terms) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "terms": 0})
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[i]
        entry["terms"] += terms
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["s"] += duration
        if parent is None:
            top_s += duration
    return out, top_s


# (metric, unit).  ``<span>.<key>`` metrics read key ``calls``, ``s``,
# ``self_s``, ``terms`` or ``ns_per_term`` from that span name's aggregate.
PER_LAYER = (
    ("core.solve_linear.plain.calls", "count"),
    ("core.solve_linear.plain.self_s", "s"),
    ("core.solve_linear.plain.terms", "count"),
    ("core.solve_linear.plain.ns_per_term", "ns"),
    ("core.solve_linear.log.calls", "count"),
    ("core.solve_linear.log.self_s", "s"),
    ("core.solve_linear.log.terms", "count"),
    ("core.solve_linear.log.ns_per_term", "ns"),
    ("core.resolvent.calls", "count"),
    ("core.resolvent.self_s", "s"),
    ("core.solve_nonlinear.calls", "count"),
    ("core.solve_nonlinear.s", "s"),
    ("stochastic.generate.calls", "count"),
    ("stochastic.generate.s", "s"),
    ("stochastic.ensemble_verify.calls", "count"),
    ("stochastic.ensemble_verify.self_s", "s"),
    ("stochastic.envelope_sums.calls", "count"),
    ("stochastic.envelope_sums.s", "s"),
    ("asymptotics.verify_growth2.self_s", "s"),
    ("asymptotics.estimate_limsup.calls", "count"),
    ("asymptotics.estimate_limsup.s", "s"),
    ("asymptotics.predict_x_over_a.calls", "count"),
    ("asymptotics.predict_x_over_a.s", "s"),
    ("asymptotics.extract_almost_periodic.calls", "count"),
    ("asymptotics.extract_almost_periodic.s", "s"),
    ("asymptotics.time_average.calls", "count"),
    ("asymptotics.time_average.s", "s"),
    ("asymptotics.phi_average_bounds.calls", "count"),
    ("asymptotics.phi_average_bounds.s", "s"),
    ("series.ratio_series.calls", "count"),
    ("series.ratio_series.s", "s"),
    ("spectral.characteristic_roots.calls", "count"),
    ("spectral.characteristic_roots.s", "s"),
    ("spectral.multiplier_L.calls", "count"),
    ("config.ExperimentConfig.from_dict.calls", "count"),
    ("config.ExperimentConfig.from_dict.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.run_experiment.self_s", "s"),
    ("cli.write.bytes", "B"),
    ("cli.write.files", "count"),
    ("other_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def layer_values(spans, wall_s, write_files, write_bytes) -> dict:
    """Every ``PER_LAYER`` metric of one traced repetition except the
    overhead, which needs the untraced runs too."""
    layers, top_s = layer_metrics(spans)
    special = {
        "cli.write.bytes": write_bytes,
        "cli.write.files": write_files,
        "other_s": wall_s - top_s,
        "trace.spans": len(spans),
    }
    out = {}
    for metric, _ in PER_LAYER:
        if metric in special:
            out[metric] = special[metric]
            continue
        span, key = metric.rsplit(".", 1)
        entry = layers.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "terms": 0})
        if key == "ns_per_term":
            out[metric] = entry["self_s"] / entry["terms"] * 1e9 if entry["terms"] else 0.0
        elif key in entry:
            out[metric] = entry[key]
    return out
