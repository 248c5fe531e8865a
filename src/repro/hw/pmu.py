"""The per-core performance monitoring unit.

Holds the programmable counters, the userspace-read-enable bit (the CR4.PCE
analog that the LiMiT kernel patch sets), and the event-accrual entry point
used by the execution engine.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

from repro.common.config import PmuConfig
from repro.common.errors import CounterError
from repro.hw.counter import HardwareCounter
from repro.hw.events import Domain, EventRates, cycles_until_count, events_in


#: The phase memo of a stale programming: empty and read-only, so a lookup
#: misses (sending the caller to :meth:`Pmu.phase_memo`) and a write fails.
_STALE: Mapping[Any, Any] = MappingProxyType({})


class Pmu:
    """Performance monitoring unit of one core."""

    def __init__(self, config: PmuConfig) -> None:
        self.config = config
        self.counters = [
            HardwareCounter(config.effective_width) for _ in range(config.n_counters)
        ]
        #: Whether userspace rdpmc is permitted (CR4.PCE). Off on an
        #: unpatched kernel: a user-mode rdpmc then faults.
        self.user_rdpmc_enabled = False
        #: observability hook: called with the counter index when a counter
        #: wraps during accrual. Installed by the engine only when tracing.
        self.on_overflow: Callable[[int], None] | None = None
        #: number of currently enabled counters — the engine's cheap gate to
        #: skip all plan lookup/accrual work when nothing is programmed.
        self.n_enabled = 0
        #: accrual-plan caches for the *current* counter programming, one per
        #: domain, keyed id(rates) (the value keeps a reference to the rates
        #: object so an id can never be recycled while its entry is live).
        self._plans_user: dict[int, tuple[EventRates, tuple]] = {}
        self._plans_kernel: dict[int, tuple[EventRates, tuple]] = {}
        #: the current programming's phase memo: resolutions of the
        #: engine's interned phase descriptors (counter adds and overflow
        #: headroom), keyed by descriptor. Read it with a plain lookup: while
        #: the programming is stale it is the empty read-only ``_STALE``, so
        #: every lookup misses and the caller resolves via :meth:`phase_memo`.
        self._memo: dict = {}
        self.memo: Mapping[Any, Any] = self._memo
        #: per-programming-signature (user plans, kernel plans, phase memo)
        #: sets. Counter virtualization reprograms the same specs on every
        #: context switch; keying by the (event, domains) signature means an
        #: identical reprogramming swaps the same dicts back in, so plans and
        #: phase resolutions are computed once per signature per run.
        self._plan_sets: dict[tuple, tuple[dict, dict, dict]] = {
            (): (self._plans_user, self._plans_kernel, self._memo)
        }
        for ctr in self.counters:
            ctr.on_reprogram = self._invalidate_plans

    def _invalidate_plans(self) -> None:
        self.memo = _STALE
        n = 0
        for ctr in self.counters:
            if ctr.enabled:
                n += 1
        self.n_enabled = n

    def flush_plans(self) -> None:
        """Drop every cached accrual plan, phase memo and plan set.

        Needed when counter *geometry* changes out from under the signature
        key — the signature only covers (index, event, domains), so a
        mid-run width change (fault injection's shrink_counter) would
        otherwise swap stale-mask plans back in on the next reprogram.
        """
        self._plans_user = {}
        self._plans_kernel = {}
        self._plan_sets = {}
        self.memo = _STALE

    def phase_memo(self) -> dict:
        """The writable phase memo of the current counter programming
        (resolving the programming first if it changed since the last
        call)."""
        if self.memo is _STALE:
            sig = tuple(
                (index, ctr.event, ctr.count_user, ctr.count_kernel)
                for index, ctr in enumerate(self.counters)
                if ctr.enabled and ctr.event is not None
            )
            sets = self._plan_sets.get(sig)
            if sets is None:
                sets = self._plan_sets[sig] = ({}, {}, {})
            self._plans_user, self._plans_kernel, self._memo = sets
            self.memo = self._memo
        return self._memo

    def accrual_plan(
        self, rates: EventRates, domain: Domain
    ) -> tuple[tuple[int, HardwareCounter, int, int], ...]:
        """Flat accrual plan for a (rates, domain) phase: one
        ``(index, counter, ppm, mask)`` entry per enabled counter that counts
        in ``domain`` with a non-zero rate (CYCLES counters at 1e6 ppm).

        Computed once per distinct rates object per counter programming
        signature and cached, so the per-chunk accounting path iterates a
        short tuple instead of re-filtering every counter against every rate.
        """
        if self.memo is _STALE:
            self.phase_memo()
        cache = self._plans_user if domain is Domain.USER else self._plans_kernel
        hit = cache.get(id(rates))
        if hit is not None:
            return hit[1]
        rate_of = rates.ppm
        plan = tuple(
            (index, ctr, rate_of(ctr.event), ctr.mask)
            for index, ctr in enumerate(self.counters)
            if ctr.counts_in(domain) and rate_of(ctr.event) > 0
        )
        cache[id(rates)] = (rates, plan)
        return plan

    def __len__(self) -> int:
        return len(self.counters)

    def __iter__(self) -> Iterator[HardwareCounter]:
        return iter(self.counters)

    def counter(self, index: int) -> HardwareCounter:
        if not 0 <= index < len(self.counters):
            raise CounterError(
                f"counter index {index} out of range (PMU has {len(self.counters)})"
            )
        return self.counters[index]

    def rdpmc(self, index: int, from_user: bool) -> int:
        """Read a counter the way the rdpmc instruction does.

        Raises CounterError (standing in for #GP) if executed from user mode
        without the enable bit — this is exactly what the LiMiT kernel patch
        changes.
        """
        if from_user and not self.user_rdpmc_enabled:
            raise CounterError(
                "userspace rdpmc faulted: kernel has not enabled CR4.PCE "
                "(LiMiT kernel patch not applied?)"
            )
        return self.counter(index).read()

    # -- engine-facing accounting -----------------------------------------

    def accrue_phase(
        self,
        rates: EventRates,
        domain: Domain,
        phase_cycles_before: int,
        phase_cycles_after: int,
    ) -> list[int]:
        """Accrue events for a slice of a phase executing on this core.

        The slice runs from ``phase_cycles_before`` to ``phase_cycles_after``
        (phase-relative), with the given event rates, in the given domain.
        Returns the list of counter indices that overflowed during the slice.
        """
        overflowed: list[int] = []
        plan = self.accrual_plan(rates, domain)
        if not plan:
            return overflowed
        on_overflow = self.on_overflow
        for index, ctr, ppm, _mask in plan:
            n = events_in(phase_cycles_before, phase_cycles_after, ppm)
            if n and ctr.accrue(n):
                overflowed.append(index)
                if on_overflow is not None:
                    on_overflow(index)
        return overflowed

    def cycles_to_next_overflow(
        self,
        rates: EventRates,
        domain: Domain,
        phase_cycles_so_far: int,
    ) -> int | None:
        """Exact number of further cycles of the current phase after which
        the *first* enabled counter will overflow, or None if no enabled
        counter can overflow under these rates.

        Used by the engine to split compute phases so PMIs are delivered
        with bounded (configured) skid rather than at arbitrary phase ends.
        """
        best: int | None = None
        for _index, ctr, ppm, mask in self.accrual_plan(rates, domain):
            d = cycles_until_count(
                phase_cycles_so_far, ppm, mask + 1 - ctr.value
            )
            if d is not None and (best is None or d < best):
                best = d
        return best

    def overflow_crossings(
        self,
        rates: EventRates,
        domain: Domain,
        start: int,
        end: int,
    ) -> list[tuple[int, int]]:
        """All counter-overflow crossings in the phase-relative window
        ``(start, end]``, as ``(phase_cycle, counter_index)`` pairs sorted by
        crossing time (ties by index).

        Generalizes :meth:`cycles_to_next_overflow` from "first crossing"
        to "every crossing in a window", which is what the macro-stepping
        fast path needs to prove a batched jump contains none (or to locate
        them all if it did).
        """
        crossings: list[tuple[int, int]] = []
        for index, ctr, ppm, _mask in self.accrual_plan(rates, domain):
            needed = ctr.events_until_overflow()
            threshold = ctr.threshold
            while True:
                d = cycles_until_count(start, ppm, needed)
                if d is None:
                    break
                at = start + d
                if at > end:
                    break
                crossings.append((at, index))
                needed += threshold
        crossings.sort()
        return crossings

    def pending_overflow_indices(self) -> list[int]:
        """Counters with latched, unserviced overflows."""
        return [i for i, c in enumerate(self.counters) if c.overflow_pending]

    def reset(self) -> None:
        """Power-on reset: deprogram everything."""
        for ctr in self.counters:
            ctr.deprogram()
        self.user_rdpmc_enabled = False
