"""The ambient instrument record: what observes the simulated machine now.

Four subsystems watch the simulator from hook sites spread through
``repro.hw``, the kernel plans, ``repro.simmpi`` and ``repro.frame``:
tracing (:class:`~repro.trace.tracer.Tracer`), metrics
(:class:`~repro.metrics.registry.MetricsRegistry`), fault injection
(:class:`~repro.faults.injector.FaultInjector`) and what-if cost scaling
(:class:`~repro.trace.scaling.CostScaling`). One frozen :class:`Ambient`
record holds all four; a field left ``None`` means that instrument is off,
which is the default for every field.

A hook site reads the record once and guards each instrument with
``is not None``, so a disabled instrument costs one attribute read and no
simulated-time arithmetic ever depends on it::

    from repro import ambient

    amb = ambient.current()
    if amb.tracer is not None:
        amb.tracer.emit("dma_get", "dma_transfer", track="dma", dur=dt)
    if amb.metrics is not None:
        amb.metrics.count("dma.bytes", nbytes, dir="get")

:func:`installed` is the one way to change the record. The public
installers (``trace.tracing``, ``trace.suspended``, ``metrics.collecting``,
``faults.injecting``, ``trace.scaling``) are short uses of it.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # the instrument modules import this one
    from repro.faults.injector import FaultInjector
    from repro.metrics.registry import MetricsRegistry
    from repro.trace.scaling import CostScaling
    from repro.trace.tracer import Tracer


@dataclasses.dataclass(frozen=True)
class Ambient:
    """The installed instruments; ``None`` means that instrument is off."""

    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    faults: FaultInjector | None = None
    scaling: CostScaling | None = None


_current = Ambient()


def current() -> Ambient:
    """The installed instrument record."""
    return _current


@contextmanager
def installed(**fields: object) -> Iterator[Ambient]:
    """Swap the given fields in for the block; yields the new record.

    Fields not named keep their current value, so installs nest and
    compose. The previous record comes back on exit, also when the block
    raises.
    """
    global _current
    previous = _current
    _current = dataclasses.replace(previous, **fields)
    try:
        yield _current
    finally:
        _current = previous
