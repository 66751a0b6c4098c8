"""``repro.metrics`` — hardware utilization counters and roofline attribution.

Three coupled pieces (see ``docs/observability.md``):

* the **counter registry** (:mod:`repro.metrics.registry`): labelled
  counters/gauges/histograms/high-water marks fed by instrumentation hooks
  in ``repro.hw``, ``repro.simmpi``, the kernel plans and the framework —
  ambient, and a strict no-op when disabled;
* the **roofline analyzer** (:mod:`repro.metrics.roofline` /
  :mod:`repro.metrics.session`): classifies every priced kernel and layer
  as compute-, DMA- or RLC-bound with its achieved fraction of the
  respective hardware ceiling, and aggregates a training step into a
  per-resource utilization report (``python -m repro metrics <net>``);
* the **benchmark pipeline** (:mod:`repro.metrics.benchfmt` /
  :mod:`repro.metrics.benchrun`): the shared runner that writes every
  ``benchmarks/bench_*`` result as a versioned ``BENCH_<suite>.json``,
  diffable by ``tools/bench_compare.py``.
"""

# Only the dependency-free registry is imported eagerly: the instrumented
# modules (repro.hw.*, repro.simmpi.*, ...) import this package at their own
# import time, so pulling in roofline/session here would be a cycle.
from repro.metrics.registry import (
    Counter,
    Gauge,
    HighWaterMark,
    Histogram,
    MetricsRegistry,
    collecting,
)

_LAZY = {
    "LayerRoofline": "repro.metrics.roofline",
    "RooflineVerdict": "repro.metrics.roofline",
    "bound_summary": "repro.metrics.roofline",
    "classify_cost": "repro.metrics.roofline",
    "net_roofline": "repro.metrics.roofline",
    "render_roofline": "repro.metrics.roofline",
    "METRICS_SCHEMA": "repro.metrics.session",
    "MetricsReport": "repro.metrics.session",
    "ResourceUtilization": "repro.metrics.session",
    "collect_training_step": "repro.metrics.session",
    "chrome_counter_events": "repro.metrics.export",
    "to_chrome_with_metrics": "repro.metrics.export",
    "write_chrome_json_with_metrics": "repro.metrics.export",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Counter",
    "Gauge",
    "HighWaterMark",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "LayerRoofline",
    "RooflineVerdict",
    "bound_summary",
    "classify_cost",
    "net_roofline",
    "render_roofline",
    "METRICS_SCHEMA",
    "MetricsReport",
    "ResourceUtilization",
    "collect_training_step",
    "chrome_counter_events",
    "to_chrome_with_metrics",
    "write_chrome_json_with_metrics",
]
