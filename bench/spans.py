"""Spans and counters recorded around repeatcap's public functions.

The library records nothing itself, so the traced run replaces module
attributes with wrappers.  A wrapper goes where the caller looks the name
up: ``bounds`` imported ``build_dual`` by name, so a wrapper on
``repeatcap.duals.build_dual`` alone would see no call from the bound
optimizer.

Self time is a span's duration minus the time its child spans cover.  The
S-table is built lazily inside ``sum_series``; the quadrature it runs is a
child ``numerics.integrate`` span, so the build is charged to quadrature
and not to the series.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
from time import perf_counter

from repeatcap.channels import RepeatChannel, reduction_params
from repeatcap.duals import _VARIANT_FAMILY


@dataclasses.dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """In-memory span accounting: per-layer calls, self time and counters."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.top_level_s = 0.0
        self._open: list[float] = []  # child seconds of each open span

    def calls(self) -> dict[str, int]:
        return {name: layer.calls for name, layer in self.layers.items()}

    def wrap(self, name, fn, *, before=None, after=None):
        """fn wrapped in a span named name.

        before(layer, args, kwargs) may return replacement (args, kwargs) and
        runs inside the span; after(layer, args, result) runs outside it.
        """
        layer = self.layers.setdefault(name, Layer())

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                if before is not None:
                    args, kwargs = before(layer, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                layer.calls += 1
                layer.self_s += duration - self._open.pop()
                if self._open:
                    self._open[-1] += duration
                else:
                    self.top_level_s += duration
            if after is not None:
                after(layer, args, result)
            return result

        return traced


def _count_integrand(layer, args, kwargs):
    problem, *rest = args
    inner = problem.integrand

    def counted(t):
        value = inner(t)
        layer.add("evals", 1)
        layer.add("values", getattr(value, "size", 1))
        return value

    return (dataclasses.replace(problem, integrand=counted), *rest), kwargs


def _count_terms(layer, args, result):
    layer.add("terms", result.terms_used)


def _count_evals(layer, args, result):
    layer.add("evals", result.n_evals)
    layer.add("nonunimodal", int(not result.unimodal))


def _count_feasible(layer, args, dual):
    threshold = reduction_params(RepeatChannel(_VARIANT_FAMILY[dual.variant], dual.p)).lam
    layer.add("feasible", int(dual.series_converged and dual.mean >= threshold))


def _count_scan(layer, args, result):
    layer.add("x_total", len(result))


def _count_symbols(layer, args, result):
    layer.add("symbols", len(result))


def _count_cells(layer, args, result):
    a, b = args
    layer.add("cells", len(a) * len(b))


# (module, attribute looked up by the caller, layer name, before, after)
WRAPPERS = (
    ("repeatcap.bounds", "compute_bound", "bounds.compute_bound", None, None),
    ("repeatcap.numerics", "integrate", "numerics.integrate", _count_integrand, None),
    ("repeatcap.duals", "sum_series", "numerics.sum_series", None, _count_terms),
    ("repeatcap.bounds", "maximize_concave", "numerics.maximize_concave", None, _count_evals),
    ("repeatcap.bounds", "build_dual", "duals.build_dual", None, _count_feasible),
    ("repeatcap.bounds", "convexity_gap_scan", "duals.convexity_gap_scan", None, _count_scan),
    ("repeatcap.bounds", "r_p", "duals.r_p", None, None),
    ("repeatcap.channels", "output_log_pmf", "channels.output_log_pmf", None, None),
    ("repeatcap.simulate", "run_monte_carlo", "simulate.run_monte_carlo", None, None),
    ("repeatcap.simulate", "sample_channel_output", "simulate.sample_channel_output", None, _count_symbols),
    ("repeatcap.simulate", "run_length_decode", "simulate.run_length_decode", None, None),
    ("repeatcap.simulate", "edit_distance", "simulate.edit_distance", None, _count_cells),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Every wrapper in WRAPPERS installed for the duration of the block."""
    originals = []
    try:
        for module_name, attr, name, before, after in WRAPPERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, before=before, after=after))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metric values, by metric name."""
    L = tracer.layers
    integrate, series = L["numerics.integrate"], L["numerics.sum_series"]
    optimizer, build = L["numerics.maximize_concave"], L["duals.build_dual"]
    scan, pmf = L["duals.convexity_gap_scan"], L["channels.output_log_pmf"]
    edit = L["simulate.edit_distance"]
    out = {
        "numerics.integrate.calls": integrate.calls,
        "numerics.integrate.self_s": integrate.self_s,
        "numerics.integrate.panels": integrate.counts.get("evals", 0) / 15,
        "numerics.integrate.values": integrate.counts.get("values", 0),
        "numerics.integrate.us_per_value": 1e6 * _ratio(integrate.self_s, integrate.counts.get("values", 0)),
        "numerics.sum_series.calls": series.calls,
        "numerics.sum_series.self_s": series.self_s,
        "numerics.sum_series.terms": series.counts.get("terms", 0),
        "numerics.sum_series.ns_per_term": 1e9 * _ratio(series.self_s, series.counts.get("terms", 0)),
        "numerics.maximize_concave.calls": optimizer.calls,
        "numerics.maximize_concave.self_s": optimizer.self_s,
        "numerics.maximize_concave.evals": optimizer.counts.get("evals", 0),
        "numerics.maximize_concave.nonunimodal": optimizer.counts.get("nonunimodal", 0),
        "duals.build_dual.calls": build.calls,
        "duals.build_dual.self_s": build.self_s,
        "duals.build_dual.feasible_frac": _ratio(build.counts.get("feasible", 0), build.calls),
        "duals.convexity_gap_scan.calls": scan.calls,
        "duals.convexity_gap_scan.self_s": scan.self_s,
        "duals.convexity_gap_scan.x_total": scan.counts.get("x_total", 0),
        "channels.output_log_pmf.calls": pmf.calls,
        "channels.output_log_pmf.self_s": pmf.self_s,
        "duals.r_p.calls": L["duals.r_p"].calls,
        "duals.r_p.self_s": L["duals.r_p"].self_s,
        "bounds.compute_bound.calls": L["bounds.compute_bound"].calls,
        "bounds.compute_bound.self_s": L["bounds.compute_bound"].self_s,
        "simulate.run_monte_carlo.self_s": L["simulate.run_monte_carlo"].self_s,
        "simulate.sample_channel_output.self_s": L["simulate.sample_channel_output"].self_s,
        "simulate.sample_channel_output.symbols": L["simulate.sample_channel_output"].counts.get("symbols", 0),
        "simulate.run_length_decode.self_s": L["simulate.run_length_decode"].self_s,
        "simulate.edit_distance.calls": edit.calls,
        "simulate.edit_distance.self_s": edit.self_s,
        "simulate.edit_distance.cells": edit.counts.get("cells", 0),
        "simulate.edit_distance.ns_per_cell": 1e9 * _ratio(edit.self_s, edit.counts.get("cells", 0)),
        "trace.wall_s": traced_wall_s,
        "trace.unattributed_s": traced_wall_s - tracer.top_level_s,
        "trace.overhead_frac": _ratio(traced_wall_s, untraced_wall_s) - 1.0,
    }
    return out


def self_time_residual(tracer: Tracer) -> float:
    """Top-level span time minus every layer's self time.

    Zero up to rounding when the self-time accounting is consistent, which
    makes the self times plus trace.unattributed_s add up to trace.wall_s.
    """
    return tracer.top_level_s - sum(layer.self_s for layer in tracer.layers.values())
