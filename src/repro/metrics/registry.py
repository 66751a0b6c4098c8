"""The metrics registry: hardware utilization counters on the simulated machine.

Where :mod:`repro.trace` answers *what happened when* (typed spans on the
simulated clock), this registry answers *how much, in total* — bytes DMAed,
FLOPs retired, pipeline-busy seconds, LDM high-water marks — as named,
labelled instruments fed by the same instrumentation sites.

Four instrument kinds:

* :class:`Counter` — monotonically non-decreasing sum (bytes, steps, FLOPs);
* :class:`Gauge` — last-written value (a level, not a rate);
* :class:`HighWaterMark` — maximum value ever observed (LDM occupancy);
* :class:`Histogram` — full sample record with percentile queries
  (per-transfer achieved-bandwidth fractions, pipeline efficiencies).

Instruments are keyed by ``(name, labels)``; labels are free-form string
pairs (``dir="get"``, ``collective="rhd"``) and ambient label context can
be pushed with :meth:`MetricsRegistry.labelled`, so a collective's inner
``account_step`` calls are attributed to it without plumbing.

Collection is ambient and **off by default**, exactly like tracing: the
``metrics`` field of the :mod:`repro.ambient` record is ``None``
(instrumentation guards with ``if amb.metrics is not None:``), so the
disabled-mode cost is one attribute read and no simulated-time arithmetic
ever depends on it (pinned by ``tests/test_metrics_integration.py``).
Enable with :func:`collecting`::

    from repro import metrics

    with metrics.collecting() as mx:
        run_workload()
    print(mx.value("dma.bytes"))
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.ambient import installed

#: The counter taxonomy. Instrumentation sites use these names; the session
#: report and docs group by the dotted prefix. See ``docs/observability.md``.
METRIC_NAMES = (
    "dma.bytes",            # counter, labels dir=get|put|model: DDR3<->LDM traffic
    "dma.transfers",        # counter: number of DMA invocations
    "dma.busy_s",           # counter: seconds the DMA engine was occupied
    "dma.achieved_frac",    # histogram: per-transfer achieved/peak bandwidth
    "ldm.high_water_bytes",  # high-water mark: worst simultaneous LDM occupancy
    "cpe.busy_s",           # counter: CPE pipeline busy seconds
    "cpe.flops",            # counter: FLOPs retired
    "cpe.efficiency",       # histogram: per-phase pipeline/SIMD efficiency
    "rlc.bytes",            # counter, labels kind=p2p|bcast: register-bus traffic
    "rlc.busy_s",           # counter: register-bus busy seconds
    "mesh.bus_busy_s",      # counter, labels bus=rowR|colC: per-bus occupancy
    "mesh.bus_wait_s",      # counter, labels bus=...: serialization stalls
    "mesh.bus_utilization",  # high-water mark: max bus busy/finish fraction
    "comm.steps",           # counter, label collective=...: lockstep rounds
    "comm.bytes",           # counter, labels link=intra|cross: wire traffic
    "comm.reduce_bytes",    # counter: bytes locally reduced
    "comm.bucket_launches",  # counter: nonblocking bucket allreduces launched
    "comm.overlap_hidden_s",   # counter: comm seconds hidden behind backward
    "comm.overlap_exposed_s",  # counter: comm seconds left on the critical path
    "comm.p2p_sends",       # counter: point-to-point transfers
    "comm.p2p_bytes",       # counter, labels link=intra|cross: p2p wire traffic
    "layer.passes",         # counter, labels dir=fwd|bwd, layer_type=...
    "solver.iterations",    # counter: completed solver iterations
    "faults.injected",      # counter, label kind=dma_corrupt|rlc_fail|...: faults fired
    "faults.retries",       # counter: transient-fault retries performed
    "faults.retry_s",       # counter: simulated seconds spent retrying
    "faults.timeouts",      # counter: collective timeouts on crashed ranks
    "faults.timeout_s",     # counter: simulated seconds spent waiting out timeouts
    "faults.rank_rebuilds",  # counter: elastic communicator rebuilds
    "faults.slow_s",        # counter: extra seconds from stragglers/degradation
    "pipeline.bubble_frac",     # gauge: idle fraction of the walked pipeline schedule
    "pipeline.makespan_s",      # gauge: one pipelined iteration's simulated seconds
    "pipeline.stage_imbalance",  # gauge: slowest stage cost / mean - 1 (0 = balanced)
    "serve.requests",       # counter, label outcome=completed|shed: offered requests
    "serve.batches",        # counter: batches dispatched by the dynamic batcher
    "serve.batch_size",     # histogram: per-dispatch batch sizes
    "serve.queue_depth",    # high-water mark: worst admission-queue depth
    "serve.queue_wait_s",   # histogram: per-request wait for the engine to free
    "serve.batch_wait_s",   # histogram: per-request wait for its batch to form
    "serve.compute_s",      # counter: engine-busy seconds across batches
    "serve.latency_s",      # histogram: per-request end-to-end latency
    "serve.slo_miss",       # counter: completed requests that missed the SLO
    "trace.critpath.nodes",        # counter: spans scheduled in the dependency graph
    "trace.critpath.edges",        # counter: causal edges (explicit + inferred)
    "trace.critpath.end_to_end_s",  # gauge: longest-path makespan of the trace
    "trace.critpath.on_path_s",    # counter, label resource=...: critical-path time
)


def _freeze_labels(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically non-decreasing sum."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        amount = float(amount)
        if amount < 0 or math.isnan(amount):
            raise ValueError(f"counter increments must be >= 0, got {amount!r}")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-written level."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class HighWaterMark:
    """Maximum value ever observed."""

    kind = "high_water"

    def __init__(self) -> None:
        self.value: float = 0.0
        self.count: int = 0

    def update(self, value: float) -> None:
        self.count += 1
        value = float(value)
        if value > self.value:
            self.value = value

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value, "count": self.count}


class Histogram:
    """Full-sample histogram with exact percentile queries.

    Samples are kept verbatim (simulated workloads emit thousands, not
    billions, of observations); :meth:`percentile` matches
    ``numpy.percentile(..., method="linear")`` exactly, which the unit
    tests pin against NumPy.
    """

    kind = "histogram"

    def __init__(self) -> None:
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.samples else 0.0

    @property
    def min(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile (``q`` in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if not self.samples:
            raise ValueError("percentile of an empty histogram")
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = q / 100 * (len(data) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return data[lo]
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
        }
        if self.samples:
            out.update(
                min=self.min,
                max=self.max,
                p50=self.percentile(50),
                p95=self.percentile(95),
            )
        return out


Instrument = Counter | Gauge | HighWaterMark | Histogram


class MetricsRegistry:
    """Collects labelled instruments; see the module docstring.

    The mutators (:meth:`count`, :meth:`gauge`, :meth:`high_water`,
    :meth:`observe`) create the instrument on first use and enforce kind
    consistency afterwards. Ambient labels pushed with :meth:`labelled`
    merge into every observation made inside the block (explicit labels
    win on collision).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Instrument] = {}
        self._label_stack: list[dict[str, str]] = []

    # ------------------------------------------------------------------ #
    # label context
    # ------------------------------------------------------------------ #
    @contextmanager
    def labelled(self, **labels: str) -> Iterator[None]:
        """Merge ``labels`` into every observation inside the block."""
        self._label_stack.append({str(k): str(v) for k, v in labels.items()})
        try:
            yield
        finally:
            self._label_stack.pop()

    def _merged_labels(self, labels: Mapping[str, str]) -> dict[str, str]:
        merged: dict[str, str] = {}
        for frame in self._label_stack:
            merged.update(frame)
        merged.update({str(k): str(v) for k, v in labels.items()})
        return merged

    def _instrument(self, name: str, labels: Mapping[str, str], factory: type) -> Any:
        key = (name, _freeze_labels(self._merged_labels(labels)))
        inst = self._metrics.get(key)
        if inst is None:
            inst = factory()
            self._metrics[key] = inst
        elif not isinstance(inst, factory):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"cannot use it as {factory().kind}"
            )
        return inst

    # ------------------------------------------------------------------ #
    # mutators
    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment the counter ``(name, labels)`` by ``amount`` (>= 0)."""
        self._instrument(name, labels, Counter).inc(amount)

    def gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the gauge ``(name, labels)`` to ``value``."""
        self._instrument(name, labels, Gauge).set(value)

    def high_water(self, name: str, value: float, **labels: str) -> None:
        """Raise the high-water mark ``(name, labels)`` to at least ``value``."""
        self._instrument(name, labels, HighWaterMark).update(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Add one sample to the histogram ``(name, labels)``."""
        self._instrument(name, labels, Histogram).observe(value)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def get(self, name: str, **labels: str) -> Instrument | None:
        """The instrument at exactly ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _freeze_labels(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Scalar total of ``name`` across label sets matching ``labels``.

        Counters/gauges/high-water marks contribute their value, histograms
        their sample sum. A label set matches when every given label pair
        is present (so ``value("dma.bytes")`` sums all directions while
        ``value("dma.bytes", dir="get")`` selects one).
        """
        want = _freeze_labels(labels)
        total = 0.0
        for (mname, mlabels), inst in self._metrics.items():
            if mname != name:
                continue
            if not set(want) <= set(mlabels):
                continue
            total += inst.sum if isinstance(inst, Histogram) else inst.value
        return total

    def names(self) -> list[str]:
        """Sorted distinct metric names."""
        return sorted({name for name, _ in self._metrics})

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-able dump: ``{name: [{labels, kind, value, ...}, ...]}``."""
        out: dict[str, list[dict[str, Any]]] = {}
        for (name, labels), inst in sorted(self._metrics.items()):
            entry = {"labels": dict(labels)}
            entry.update(inst.as_dict())
            out.setdefault(name, []).append(entry)
        return out

    def __len__(self) -> int:
        return len(self._metrics)


@contextmanager
def collecting(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Enable metrics collection for the block; yields the registry."""
    mx = registry if registry is not None else MetricsRegistry()
    with installed(metrics=mx):
        yield mx
