"""Seeded fault injection and elastic recovery for the simulated machine.

The subsystem has four parts:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: a seeded, replayable
  schedule of typed faults (seed-string spec ``"<profile>:<hex>:<index>"``);
* :mod:`repro.faults.injector` — the ambient, zero-overhead-when-disabled
  delivery plane hooked into ``repro.hw`` and ``repro.simmpi``;
* :mod:`repro.faults.recovery` — shrink / renumber / rewind helpers used
  by the elastic trainer after a rank crash;
* :mod:`repro.faults.session` — ``run_chaos``: a full faulted training run
  plus its fault-free reference, backing ``python -m repro chaos``.

Only ``plan`` and ``injector`` are imported here: the hook sites inside
``repro.hw``/``repro.simmpi`` import this package, so pulling in
``recovery``/``session`` (which import those layers back) would cycle.
See ``docs/robustness.md``.
"""

from repro.faults.injector import (
    FaultInjector,
    charge_transient,
    injecting,
)
from repro.faults.plan import (
    BASE_SEED,
    PROFILES,
    SITE_KINDS,
    TRANSIENT_SITES,
    FaultPlan,
    conformance_seeds,
    parse_seed_string,
    seed_string,
    zero_plan,
)

__all__ = [
    "BASE_SEED",
    "PROFILES",
    "SITE_KINDS",
    "TRANSIENT_SITES",
    "FaultPlan",
    "FaultInjector",
    "charge_transient",
    "conformance_seeds",
    "injecting",
    "parse_seed_string",
    "seed_string",
    "zero_plan",
]
