"""The fault injector: ambient delivery of a plan's faults into the hooks.

Like tracing and metrics, injection is ambient and **off by default**: the
``faults`` field of the :mod:`repro.ambient` record is ``None``, so every
hook site costs one attribute read when disabled and never perturbs
simulated-time arithmetic (pinned by ``tests/test_faults_chaos.py``).
Enable with :func:`injecting`::

    from repro.faults import FaultPlan, injecting

    plan = FaultPlan.from_seed("chaos:0x5caffe:0", ranks=4, iterations=8)
    with injecting(plan) as fi:
        trainer.step(8)
    print(fi.injected, fi.retries)

Hook sites live in :mod:`repro.hw.dma` / :mod:`repro.hw.rlc` (transient
corruption + retry-with-backoff on the :class:`~repro.hw.clock.SimClock`),
:mod:`repro.hw.mesh_sim` (bus bandwidth degradation), and
:mod:`repro.simmpi.comm` / :mod:`repro.simmpi.p2p` (straggler slowdown,
flaky-link step retries, crash timeouts). One transient path serves them
all: :func:`transient_delay` decides, emits trace spans and feeds the
``faults.*`` counters; :func:`charge_transient` adds the clock charge and
:func:`charge_comm` the straggler accounting of a network exchange.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro import ambient
from repro.faults.plan import SITE_KINDS, FaultPlan


class FaultInjector:
    """Delivers one :class:`FaultPlan`'s faults, keeping replayable counts.

    Per-site invocation counters make transient decisions reproducible:
    the ``n``-th DMA transfer of a run faults iff the plan says invocation
    ``n`` faults, independent of what any other site did in between.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._site_calls: dict[str, int] = defaultdict(int)
        #: Faults delivered so far, by kind (dma_corrupt, rank_crash, ...).
        self.injected: Counter[str] = Counter()
        #: Total transient retries performed.
        self.retries: int = 0
        #: Communicator rebuilds performed by elastic recovery.
        self.rank_rebuilds: int = 0
        #: Iteration cursor (set by the trainer via :meth:`begin_iteration`).
        self.iteration: int = 0
        #: Logical-rank -> external-rank map for straggler lookup after a
        #: shrink (identity by default).
        self._rank_map: tuple[int, ...] | None = None

    # ------------------------------------------------------------------ #
    # transient faults
    # ------------------------------------------------------------------ #
    def transient(self, site: str, base_s: float) -> tuple[int, float]:
        """Decide the next invocation of ``site``: ``(retries, extra_seconds)``.

        Advances the site's invocation counter; ``extra_seconds`` accounts
        each retry at the operation's own duration plus exponential backoff.
        """
        n = self._site_calls[site]
        self._site_calls[site] = n + 1
        k = self.plan.transient_faults(site, n)
        if k == 0:
            return 0, 0.0
        self.injected[SITE_KINDS[site]] += k
        self.retries += k
        return k, self.plan.retry_overhead_s(base_s, k)

    # ------------------------------------------------------------------ #
    # degradations
    # ------------------------------------------------------------------ #
    def mesh_degrade(self) -> float:
        """Bandwidth-cut multiplier (>= 1) for a mesh-bus schedule."""
        factor = self.plan.mesh_factor
        if factor > 1.0:
            self.injected["mesh_degrade"] += 1
        return factor

    def comm_scale(self, rank_a: int, rank_b: int) -> float:
        """Straggler slowdown of one pairwise exchange (max of both ends)."""
        a, b = self._external(rank_a), self._external(rank_b)
        return max(self.plan.straggler_factor(a), self.plan.straggler_factor(b))

    # ------------------------------------------------------------------ #
    # crashes / elastic recovery
    # ------------------------------------------------------------------ #
    def begin_iteration(self, iteration: int) -> None:
        """Move the crash-schedule cursor to ``iteration``."""
        self.iteration = int(iteration)

    def failed_ranks(self) -> frozenset[int]:
        """External ids of all ranks dead at the current iteration."""
        return self.plan.crashed_by(self.iteration)

    def set_rank_map(self, external_ids: Sequence[int] | None) -> None:
        """Map logical ranks to external ids after an elastic shrink."""
        self._rank_map = None if external_ids is None else tuple(external_ids)

    def _external(self, logical_rank: int) -> int:
        if self._rank_map is None or not 0 <= logical_rank < len(self._rank_map):
            return logical_rank
        return self._rank_map[logical_rank]

    def note_slow(self) -> None:
        """Record one collective step stretched by a straggler."""
        self.injected["straggler"] += 1

    def note_crash(self, ranks: frozenset[int]) -> None:
        """Record delivered rank crashes (called by the timeout site)."""
        self.injected["rank_crash"] += len(ranks)

    def note_rebuild(self) -> None:
        """Record one elastic communicator rebuild."""
        self.rank_rebuilds += 1


@contextmanager
def injecting(plan_or_injector: FaultPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Enable fault injection for the block; yields the injector."""
    fi = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    with ambient.installed(faults=fi):
        yield fi


# --------------------------------------------------------------------------- #
# the shared transient hook
# --------------------------------------------------------------------------- #
def transient_delay(site: str, base_s: float, *, track: str, at_s: float) -> float:
    """Hook helper for every transient site: decide, observe, return the delay.

    Returns 0.0 when injection is disabled or the invocation succeeds first
    try. When the plan faults this invocation: emits a ``fault_inject``
    instant plus a ``fault_retry`` span on ``track`` at ``at_s``, feeds the
    ``faults.*`` counters, and returns the retry overhead in seconds.
    Event-driven hosts (the serving engine) add it to their own timeline;
    clocked sites use :func:`charge_transient`.
    """
    amb = ambient.current()
    if amb.faults is None:
        return 0.0
    k, extra = amb.faults.transient(site, base_s)
    if k == 0:
        return 0.0
    kind = SITE_KINDS[site]
    if amb.tracer is not None:
        amb.tracer.instant_event(
            kind, "fault_inject", track=track, start=at_s, args={"retries": k}
        )
        amb.tracer.emit(
            f"{kind} retry", "fault_retry", track=track,
            start=at_s, dur=extra, args={"retries": k, "base_s": base_s},
        )
    if amb.metrics is not None:
        amb.metrics.count("faults.injected", k, kind=kind)
        amb.metrics.count("faults.retries", k)
        amb.metrics.count("faults.retry_s", extra)
    return extra


def charge_transient(site: str, clock, base_s: float, *, track: str) -> float:
    """:func:`transient_delay` at ``clock.now``, charged to ``clock`` under the
    ``"fault"`` category. Returns the retry seconds charged (0.0: none)."""
    extra = transient_delay(site, base_s, track=track, at_s=clock.now)
    if extra > 0:
        clock.advance(extra, category="fault")
    return extra


def charge_comm(clock, base_s: float, slow_s: float) -> None:
    """The ``comm`` fault site of one network exchange of ``base_s`` seconds.

    Records ``slow_s`` straggler seconds already in the exchange's price,
    then charges any flaky-link retry: the exchange is repeated with
    identical data, so results stay bit-exact.
    """
    amb = ambient.current()
    if amb.faults is None:
        return
    if slow_s > 0:
        amb.faults.note_slow()
        if amb.metrics is not None:
            amb.metrics.count("faults.slow_s", slow_s)
    charge_transient("comm", clock, base_s, track="comm")
