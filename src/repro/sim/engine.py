"""The execution engine: deterministic multicore simulation.

The engine advances a set of cores through simulated time, executing thread
programs (op generators), charging cycle costs, accruing PMU events with
exact integer arithmetic, and invoking kernel mechanisms (scheduling,
futexes, counter virtualization, PMIs) at the right instants.

Determinism & causality
-----------------------
Each step advances exactly one core — always the one with the smallest local
clock (ties broken by core id) — by one bounded piece of work whose
externally visible effects commit at the piece's end. Because the acting
core's clock is globally minimal, effects are committed in nondecreasing
global time order, so cross-core interactions (futex wakes, lock handoffs)
are causally consistent and runs are exactly reproducible.

Compute pieces are additionally split at timeslice boundaries and at the
exact cycle a PMU counter will overflow, so PMIs are delivered with the
configured skid rather than at arbitrary op boundaries.

Macro-stepping
--------------
When a thread is alone on its core inside a long preemptible compute phase,
the piece-by-piece loop degenerates to: run to the slice boundary, take a
timer tick, extend the slice, repeat. The macro-stepping fast path
(:meth:`Engine._try_macro_step`) recognises this and accrues many such
timeslices in one closed-form step — k whole quanta of user cycles plus k
batched timer ticks of kernel cycles — using the same exact integer event
arithmetic, and stopping the jump before the earliest cross-core
interaction or counter-overflow crossing so results are fingerprint
identical to the slow path. See docs/architecture.md ("Macro-stepping")
for the engage conditions and invariants.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import os
import time
from collections import defaultdict
from typing import Any, Callable, Generator

from repro.common.config import SimConfig
from repro.common.errors import (
    ConfigError,
    CounterError,
    SimulationError,
)
from repro.common.rng import RandomStream
from repro.faults import plan as fp
from repro.faults.injector import FaultInjector
from repro.obs import runtime as obs_runtime
from repro.obs import trace as tr
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBus
from repro.hw.events import (
    Domain,
    Event,
    EventRates,
    KERNEL_RATES,
    LIBRARY_RATES,
    N_EVENTS,
    SPIN_RATES,
    cycles_until_count,
    events_in,
)
from repro.hw.machine import Core, Machine
from repro.kernel.futex import FutexTable
from repro.kernel.locks import LockRegistry
from repro.kernel.perf import PerfFd, PerfSubsystem, SampleRecord
from repro.kernel.scheduler import Scheduler
from repro.kernel.vpmu import MuxState, SlotSpec, VirtualPmu
from repro.sim import ops
from repro.sim.compiled import (
    DEAD_AFTER,
    K_LACQ,
    K_LREL,
    K_RBEGIN,
    K_RDTSC,
    K_REND,
    K_SREAD,
    K_UREAD,
    K_WORK,
    LAZY_LOWER_CAP,
    MIN_BATCH,
    RESYNC_WINDOW,
    ProgramLowering,
    lower_program,
    lower_spawned,
    op_matches,
)
from repro.sim.program import ThreadContext, ThreadSpec
from repro.sim.results import (
    CoreResult,
    KernelCounters,
    RegionTruth,
    RunResult,
    ThreadResult,
)

#: Default cap on stored per-invocation region durations (see
#: SimConfig.region_log_budget).
REGION_LOG_BUDGET = 2_000_000


class ThreadState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


class _Tally:
    """A deferred ground-truth add: ``deltas`` ((Event.index, n) pairs) in
    the user or kernel domain, counted per thread until folded."""

    __slots__ = ("user", "deltas")

    def __init__(self, user: bool, deltas: tuple[tuple[int, int], ...]) -> None:
        self.user = user
        self.deltas = deltas


class _Phase(_Tally):
    """One phase descriptor: ``cycles`` cycles of ``rates`` in one domain.

    Every fixed-cost phase (CAS, rdtsc, syscall entry/exit, the spin
    quantum, futex and fixed syscall bodies, the PMC-read sub-phases, the
    kernel paths charged by :meth:`Engine._account_kernel`) is *interned*:
    one object per engine, built once. Each PMU programming resolves an
    interned descriptor once, into its memo (:meth:`Engine._resolve`), so a
    piece that runs the whole phase is one memo lookup plus integer adds.
    Its non-CYCLES ground-truth adds (``deltas``, the whole-window
    running-floor counts ``events_in(0, cycles, ppm)``) are deferred as a
    per-thread count of the descriptor (:meth:`SimThread.fold`).

    Compute windows are interned once they recur in a run. Other
    variable phases (``work`` syscall bodies, compute windows seen once)
    use transient descriptors (``interned`` False): one per thread and
    kind, rewritten by each op that runs one. They always take the generic
    per-chunk path, :meth:`Engine._account`.
    """

    __slots__ = ("cycles", "rates", "flat", "domain", "preemptible", "interned")

    def __init__(
        self,
        cycles: int,
        rates: EventRates,
        domain: Domain,
        preemptible: bool,
        interned: bool = True,
    ) -> None:
        self.user = domain is Domain.USER
        self.deltas = (
            tuple(
                (idx, (cycles * ppm) // 1_000_000)
                for _event, ppm, idx in rates.flat
                if (cycles * ppm) // 1_000_000
            )
            if interned
            else ()
        )
        self.cycles = cycles
        self.rates = rates
        #: (event, ppm, index) triples, so accrual never goes through the
        #: rates Mapping interface
        self.flat = rates.flat
        self.domain = domain
        self.preemptible = preemptible
        self.interned = interned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Phase {self.cycles}cy {self.domain.value}>"


def _summed(phases: tuple[_Phase, ...]) -> _Tally:
    """One user-domain tally adding up the deltas of ``phases``."""
    total: dict[int, int] = {}
    for ph in phases:
        for idx, n in ph.deltas:
            total[idx] = total.get(idx, 0) + n
    return _Tally(True, tuple(total.items()))


class _PhaseSeq:
    """Interned user phases run back to back in one piece, in two parts:
    for a composite PMC read, the sub-phases before the rdpmc value is
    taken (part A) and after it (part B); for a spin round, spin then CAS.
    Each part's ground truth is deferred as one tally."""

    __slots__ = ("part_a", "part_b", "cycles_a", "cycles", "tally_a", "tally_b")

    def __init__(
        self, part_a: tuple[_Phase, ...], part_b: tuple[_Phase, ...]
    ) -> None:
        self.part_a = part_a
        self.part_b = part_b
        self.cycles_a = sum(ph.cycles for ph in part_a)
        self.cycles = self.cycles_a + sum(ph.cycles for ph in part_b)
        self.tally_a = _summed(part_a)
        self.tally_b = _summed(part_b)


class _OpExec:
    """In-flight execution state of one op: the thread's reused exec
    record (a tiny phase state machine).

    ``adv`` is the handler run when the current phase ``ph`` completes;
    stage transitions replace it, so no stage names are compared. The
    remaining slots are per-op scratch that begin handlers reset.
    """

    __slots__ = (
        "op",
        "adv",
        "ph",
        "consumed",
        # locks: the resolved lock and the acquire's wait bookkeeping
        "lock",
        "t0",
        "spin_used",
        "slept",
        # syscall-class ops
        "sys_name",
        "handler",
        "action",
        "result",
        "exc",
        # composite PMC reads
        "acc",
        "hw",
        "restarts",
        "fpc",
    )

    def __init__(self) -> None:
        self.op: Any = None
        self.adv: Callable[..., None] = Engine._adv_result
        self.ph: _Phase = _ZERO_PHASE
        self.consumed = 0
        self.lock: Any = None
        self.t0 = 0
        self.spin_used = 0
        self.slept = False
        self.sys_name = ""
        self.handler: Any = None
        self.action: Any = None
        self.result: Any = None
        self.exc: BaseException | None = None
        self.acc = 0
        self.hw = 0
        self.restarts = 0
        self.fpc = False


#: "No bound" for simulated times (far beyond any max_cycles).
_FAR = 1 << 62

#: Distinct compute windows an engine tracks for interning.
_WINDOWS_CAP = 1 << 12

#: The zero-cycle phase: ops whose work is all in their advance handler.
_ZERO_PHASE = _Phase(0, EventRates(), Domain.USER, True)

#: A compute window not seen yet (see Engine._begin_compute).
_UNSEEN = _Phase(0, _ZERO_PHASE.rates, Domain.USER, True, False)

#: Enum members in definition order, for folding flat tallies back to dicts.
_EVENT_MEMBERS = tuple(Event)


def accrue_rate_events(
    flat: tuple,
    before: int,
    after: int,
    ev: list[int],
    rev: list[int] | None = None,
) -> None:
    """Shared exact-accrual helper: apply the running-floor event deltas of
    one ``(before, after]`` phase-relative window to a flat tally array
    ``ev`` (indexed by ``Event.index``; optionally also an open region's
    tally array ``rev``).

    This is the single place the ``(after*ppm)//1e6 - (before*ppm)//1e6``
    ground-truth arithmetic lives for windows charged chunk by chunk; both
    the per-chunk generic path (:meth:`Engine._account`) and the
    macro-stepping fast path call it, so they cannot drift apart.
    """
    if rev is None:
        if before == 0:  # a whole window: nothing to subtract
            for _event, ppm, idx in flat:
                n = (after * ppm) // 1_000_000
                if n:
                    ev[idx] += n
            return
        for _event, ppm, idx in flat:
            n = (after * ppm) // 1_000_000 - (before * ppm) // 1_000_000
            if n:
                ev[idx] += n
    else:
        for _event, ppm, idx in flat:
            n = (after * ppm) // 1_000_000 - (before * ppm) // 1_000_000
            if n:
                ev[idx] += n
                rev[idx] += n


def _tally_dict(arr: list[int]) -> dict[Event, int]:
    """Fold a flat tally array back into the result-facing Event dict."""
    return {e: arr[e.index] for e in _EVENT_MEMBERS if arr[e.index]}


class SimThread:
    """Engine-side state of one simulated thread."""

    __slots__ = (
        "tid",
        "name",
        "ctx",
        "gen",
        "state",
        "core_id",
        "available_at",
        "send_value",
        "throw_exc",
        "cur",
        "ex",
        "compute_ph",
        "work_ph",
        "pending",
        "vpmu",
        "slot_saved",
        "slot_truth_base",
        "slot_reset_truth",
        "mux",
        "in_pmc_read",
        "pmc_read_interrupted",
        "read_restarts",
        "last_rdpmc_truth",
        "last_kernel_read_truth",
        "region_stack",
        "region_entries",
        "regions",
        "region_ev",
        "owned_locks",
        "profiler",
        "ev_user",
        "ev_kernel",
        "user_cycles",
        "kernel_cycles",
        "n_context_switches",
        "n_preemptions",
        "n_migrations",
        "n_cross_socket_migrations",
        "n_syscalls",
        "started_at",
        "finished_at",
        "block_key",
        "ctable",
        "cpos",
        "cmisses",
        "cskip",
        "cfork",
    )

    def __init__(self, tid: int, name: str, ctx: ThreadContext,
                 gen: Generator, n_slots: int) -> None:
        self.tid = tid
        self.name = name
        self.ctx = ctx
        self.gen = gen
        self.state = ThreadState.READY
        self.core_id: int | None = None
        self.available_at = 0
        self.send_value: Any = None
        self.throw_exc: BaseException | None = None
        #: the op in flight (``ex`` while one runs, None between ops)
        self.cur: _OpExec | None = None
        #: this thread's exec record, reused by every op it runs
        self.ex = _OpExec()
        #: transient phases of its compute ops and ``work`` syscall bodies
        self.compute_ph = _Phase(0, _ZERO_PHASE.rates, Domain.USER, True, False)
        self.work_ph = _Phase(0, KERNEL_RATES, Domain.KERNEL, False, False)
        #: deferred non-CYCLES ground truth: whole interned phases run
        #: since the last fold, counted per descriptor (see :meth:`fold`)
        self.pending: defaultdict[_Tally, int] = defaultdict(int)
        self.vpmu = VirtualPmu(n_slots)
        self.slot_saved: list[int | None] = [None] * n_slots
        self.slot_truth_base: list[int] = [0] * n_slots
        self.slot_reset_truth: list[int] = [0] * n_slots
        self.mux: MuxState | None = None
        self.in_pmc_read = False
        self.pmc_read_interrupted = False
        self.read_restarts = 0
        self.last_rdpmc_truth: int | None = None
        self.last_kernel_read_truth: dict[int, int] = {}
        self.region_stack: list[str] = []
        self.region_entries: list[tuple[str, int, int]] = []
        self.regions: dict[str, RegionTruth] = {}
        #: per-region flat event tallies (folded into RegionTruth.events at
        #: collection time; arrays keep the accrual loops dict-free).
        self.region_ev: dict[str, list[int]] = {}
        self.owned_locks: set[str] = set()
        self.profiler = None
        self.ev_user: list[int] = [0] * N_EVENTS
        self.ev_kernel: list[int] = [0] * N_EVENTS
        self.user_cycles = 0
        self.kernel_cycles = 0
        self.n_context_switches = 0
        self.n_preemptions = 0
        self.n_migrations = 0
        self.n_cross_socket_migrations = 0
        self.n_syscalls = 0
        self.started_at = 0
        self.finished_at = 0
        self.block_key: tuple | None = None
        # -- compiled tier (repro.sim.compiled) -------------------------
        #: lowered segment table (None = interpret everything)
        self.ctable: Any = None
        self.cpos = 0          #: cursor into ctable's predicted op stream
        self.cmisses = 0       #: consecutive unmatched fetches
        self.cskip: Any = -1   #: slice end whose window already bailed
        #: pending (main, alt, alt_table) fork: the op just consumed was a
        #: two-valued fork point; resolved against send_value at next fetch
        self.cfork: Any = None

    @property
    def cpu_cycles(self) -> int:
        return self.user_cycles + self.kernel_cycles

    def fold(self) -> None:
        """Apply the deferred ground-truth adds of whole interned phases.

        The engine charges a whole interned phase's CYCLES at once but
        only counts the phase here; its other events reach ``ev_user``/
        ``ev_kernel`` when something reads them: :meth:`slot_truth` for a
        non-CYCLES slot, and result collection. (With a region open, user
        phases are charged eagerly, since the region's tally needs them.)
        """
        ev_user = self.ev_user
        ev_kernel = self.ev_kernel
        for ph, k in self.pending.items():
            ev = ev_user if ph.user else ev_kernel
            for idx, n in ph.deltas:
                ev[idx] += k * n
        self.pending.clear()

    def slot_truth(self, spec: SlotSpec) -> int:
        """Ground-truth event count matching a slot's domain filter."""
        idx = spec.event.index
        if idx and self.pending:  # CYCLES (index 0) is never deferred
            self.fold()
        total = 0
        if spec.count_user:
            total += self.ev_user[idx]
        if spec.count_kernel:
            total += self.ev_kernel[idx]
        return total

    def slot_truth_since_open(self, idx: int, spec: SlotSpec) -> int:
        """Ground truth relative to when the slot was programmed — what a
        counter that started at zero at open time should read now."""
        return self.slot_truth(spec) - self.slot_truth_base[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.tid} {self.name!r} {self.state.value}>"


#: A deferred syscall body, run at syscall-exit commit time with the
#: acting core and thread; returns ``(value, blocker)`` where a
#: non-None blocker parks the thread instead of completing the call.
_SysAction = Callable[[Core, SimThread], "tuple[Any, Any]"]


class Engine:
    """Runs one simulation to completion."""

    def __init__(self, config: SimConfig | None = None) -> None:
        self.config = config or SimConfig()
        self.machine = Machine(self.config.machine)
        self.scheduler = Scheduler(
            self.config.machine.n_cores,
            [c.socket_id for c in self.machine.cores],
        )
        self.futex = FutexTable()
        self.locks = LockRegistry()
        self.perf = PerfSubsystem()
        self.kernel_counters = KernelCounters()
        self.threads: dict[int, SimThread] = {}
        self.live_count = 0
        # Observability: an active collector may force tracing on (tracing
        # is zero-perturbation by contract, so results are unchanged).
        self._collector = obs_runtime.current()
        if (
            self._collector is not None
            and self._collector.capture_traces
            and not self.config.trace
        ):
            self.config = dataclasses.replace(self.config, trace=True)
        self._tracing = self.config.trace
        self.obs = TraceBus(enabled=self._tracing)
        self.trace = self.obs.events  # same list; legacy alias
        self.metrics = MetricsRegistry(enabled=self.config.metrics)
        self._n_steps = 0
        self._n_fused = 0  #: pieces chained inside _step (still sim events)
        self._acting_core: Core | None = None
        if self._tracing:
            self._wire_subsystem_tracers()
        self._next_tid = 1
        self._seq = 0
        self._sleep_heap: list[tuple[int, int, int]] = []
        self._join_waiters: dict[int, list[int]] = {}
        self._key_credits: dict[str, int] = {}
        self._region_log_budget = self.config.region_log_budget
        self._costs = self.config.machine.costs
        self._finished = False
        # -- fault injection (repro.faults) -----------------------------
        # None when no plan is configured, so every hook below reduces to a
        # single is-None branch on unfaulted runs.
        fault_plan = self.config.fault_plan
        self._faults = FaultInjector(fault_plan) if fault_plan else None
        # -- macro-stepping fast path state -----------------------------
        # config switch first, then the environment kill switch used by the
        # bench harness / property tests for A/B runs across process modes.
        self._macro = (
            self.config.macro_stepping
            and os.environ.get("REPRO_MACRO_STEPPING", "1") != "0"
        )
        self._macro_steps = 0
        self._quanta_batched = 0
        self._fast_reads = 0
        self._spin_batches = 0
        self._spin_rounds_batched = 0
        self._bailouts: dict[str, int] = {}
        # -- compiled execution tier (repro.sim.compiled) ----------------
        # Same switch pattern as macro-stepping, plus hard disables: the
        # tier batches op commits, which is incompatible with per-op trace
        # emission order and with fault plans that match interior phases.
        self._compiled_on = (
            self.config.compiled_tier
            and os.environ.get("REPRO_COMPILED_TIER", "1") != "0"
            and not self._tracing
            and self._faults is None
        )
        self._lowering: ProgramLowering | None = None
        self._lower_wall = 0.0
        self._lower_wall_by_thread: dict[str, float] = {}
        self._compiled_segments = 0
        self._compiled_ops = 0
        self._compiled_divergences = 0
        self._compiled_resyncs = 0
        self._compiled_forks = 0
        self._compiled_lazy = 0
        self._ops_fetched = 0
        # -- interned phase descriptors ---------------------------------
        c = self._costs

        def lib(cycles: int) -> _Phase:
            return _Phase(cycles, LIBRARY_RATES, Domain.USER, True)

        self._ph_cas = lib(c.cas)
        self._ph_rdtsc = lib(c.rdtsc)
        self._ph_rdpmc = lib(c.rdpmc)
        self._ph_rdpmc_destructive = lib(c.rdpmc_destructive)
        self._ph_read_begin = lib(c.pmc_read_begin)
        self._ph_read_end = lib(c.pmc_read_end)
        self._ph_load_accum = lib(c.pmc_load_accum)
        self._ph_store_result = lib(c.pmc_store_result)
        self._ph_call = lib(c.pmc_call_overhead)
        self._ph_hook = lib(c.instrument_hook)
        self._ph_spin = _Phase(c.spin_quantum, SPIN_RATES, Domain.USER, True)
        #: kernel-path phases (KERNEL_RATES, non-preemptible) by cycles;
        #: only fixed costs are interned (see :meth:`_kphase`)
        self._kphases: dict[int, _Phase] = {}
        self._ph_sys_entry = self._kphase(c.syscall_entry)
        self._ph_sys_exit = self._kphase(c.syscall_exit)
        self._ph_futex_wait = self._kphase(c.syscall_entry + c.futex_wait_kernel)
        self._ph_futex_wake = self._kphase(c.syscall_entry + c.futex_wake_kernel)
        self._ph_spawn = self._kphase(2600)
        self._ph_join = self._kphase(600)
        self._ph_sleep = self._kphase(900)
        self._ph_yield = self._kphase(400)
        # Each timer tick is its own phase starting at cycle 0, so k batched
        # ticks accrue exactly k times one tick's events (NOT
        # events_in(0, k*tick)): a macro step defers them as k counts.
        self._ph_tick = self._kphase(c.timer_tick)
        #: compute windows by (rate triples, cycles): None once seen, the interned
        #: phase once seen twice (see :meth:`_begin_compute`)
        self._windows: dict[tuple[tuple, int], _Phase | None] = {}
        # -- composite PMC-read fast path -------------------------------
        # The safe/unsafe read sequences split at the rdpmc: the
        # accumulator/hardware values and slot-truth bookkeeping must be
        # taken with exactly the pre-rdpmc cycles accrued, so the one-piece
        # fast path applies part A, reads, then applies part B. Each
        # sub-phase accrues from its own cycle 0.
        self._safe_read = _PhaseSeq(
            (self._ph_call, self._ph_read_begin, self._ph_load_accum,
             self._ph_rdpmc),
            (self._ph_read_end, self._ph_store_result),
        )
        self._unsafe_read = _PhaseSeq(
            (self._ph_call, self._ph_load_accum, self._ph_rdpmc),
            (self._ph_store_result,),
        )
        #: memo key of one contended-lock spin round (spin quantum + CAS)
        self._spin_round = _PhaseSeq((self._ph_spin, self._ph_cas), ())
        # -- main-loop actor selection ----------------------------------
        # Multi-core runs keep a lazily-invalidated heap of (now, core_id);
        # single-core runs bypass it entirely.
        self._use_core_heap = self.config.machine.n_cores > 1
        self._core_heap: list[tuple[int, int]] = []
        #: earliest time any *other* actor (core or sleeper) can commit an
        #: effect; valid while the current core chain runs.
        self._horizon: int | None = None
        #: set by any event that may create an actor below the horizon
        #: (core unpark, sleep-heap push) to end the current chain.
        self._chain_break = False
        if self.config.kernel.limit_patch:
            self.machine.enable_user_rdpmc()
        self._syscalls: dict[str, Callable] = {
            "work": self._sys_work,
            "getpid": self._sys_getpid,
            "pmc_open": self._sys_pmc_open,
            "pmc_close": self._sys_pmc_close,
            "perf_open": self._sys_perf_open,
            "perf_read": self._sys_perf_read,
            "perf_close": self._sys_perf_close,
            "papi_read": self._sys_papi_read,
            "wait_key": self._sys_wait_key,
            "wake_key": self._sys_wake_key,
            "mux_open": self._sys_mux_open,
            "mux_read": self._sys_mux_read,
            "mux_close": self._sys_mux_close,
        }

    # ------------------------------------------------------------------
    # observability wiring
    # ------------------------------------------------------------------

    def _wire_subsystem_tracers(self) -> None:
        """Hook the kernel/hw subsystems into the trace bus. Only installed
        when tracing is on, so disabled runs pay nothing here."""
        emit = self.obs.emit
        cores = self.machine.cores

        def on_steal(thief: int, victim: int, tid: int) -> None:
            emit(cores[thief].now, thief, tid, tr.SCHED_STEAL, victim)

        def on_wait(key: str, tid: int) -> None:
            core = self._acting_core
            emit(core.now, core.core_id, tid, tr.FUTEX_WAIT, key)

        def on_wake(key: str, woken: list[int]) -> None:
            core = self._acting_core
            waker = core.current_tid if core.current_tid is not None else 0
            emit(core.now, core.core_id, waker, tr.FUTEX_WAKE, (key, len(woken)))

        def on_sample(fd: PerfFd, record: SampleRecord) -> None:
            core_id = self.threads[record.tid].core_id
            emit(record.time, core_id if core_id is not None else 0,
                 record.tid, tr.SAMPLE, fd.fd)

        self.scheduler.on_steal = on_steal
        self.futex.on_wait = on_wait
        self.futex.on_wake = on_wake
        self.perf.on_sample = on_sample
        for core in cores:
            def on_overflow(index: int, core: Core = core) -> None:
                tid = core.current_tid if core.current_tid is not None else 0
                emit(core.now, core.core_id, tid, tr.CTR_OVERFLOW, index)

            core.pmu.on_overflow = on_overflow

    def _record_metrics(self, run_wall: float, collect_wall: float,
                        result: RunResult) -> None:
        """Fill the self-telemetry registry from totals the run kept anyway
        (one pass per run, nothing per simulated event)."""
        reg = self.metrics
        k = self.kernel_counters
        reg.counter("sim_events").add(self._n_steps)
        reg.counter("context_switches").add(k.n_context_switches)
        reg.counter("preemptions").add(
            sum(t.n_preemptions for t in self.threads.values())
        )
        reg.counter("pmis").add(k.n_pmis)
        reg.counter("counter_overflows").add(k.n_counter_overflows)
        reg.counter("timer_ticks").add(k.n_timer_ticks)
        reg.counter("syscalls").add(k.syscall_total())
        reg.counter("futex_waits").add(k.n_futex_waits)
        reg.counter("futex_wakes").add(k.n_futex_wakes)
        reg.counter("samples").add(k.n_samples)
        reg.counter("steals").add(k.n_steals)
        reg.counter("read_restarts").add(
            sum(t.read_restarts for t in self.threads.values())
        )
        reg.counter("threads").add(len(self.threads))
        reg.counter("trace_events").add(len(self.obs.events))
        reg.counter("macro_steps").add(self._macro_steps)
        reg.counter("quanta_batched").add(self._quanta_batched)
        reg.counter("fast_reads").add(self._fast_reads)
        reg.counter("spin_batches").add(self._spin_batches)
        reg.counter("spin_rounds_batched").add(self._spin_rounds_batched)
        reg.counter("fastpath_bailouts").add(sum(self._bailouts.values()))
        for reason in sorted(self._bailouts):
            reg.counter("fastpath_bailout." + reason).add(
                self._bailouts[reason]
            )
        reg.counter("ops_fetched").add(self._ops_fetched)
        if self._lowering is not None:
            reg.counter("compiled_tables").add(
                len(self._lowering.tables) + self._compiled_lazy
            )
            reg.counter("compiled_segments").add(self._compiled_segments)
            reg.counter("compiled_ops").add(self._compiled_ops)
            reg.counter("compiled_divergences").add(self._compiled_divergences)
            reg.counter("compiled_resyncs").add(self._compiled_resyncs)
            reg.counter("compiled_forks").add(self._compiled_forks)
            reg.counter("compiled_lazy_tables").add(self._compiled_lazy)
            reg.timer("wall.lowering").add(self._lower_wall)
            # Per-thread lowering walls: eager table builds attributed by
            # the lowering pass, plus any lazy clone-time lowers this run
            # paid mid-flight (the cost the compiled_lazy_tables counter
            # would otherwise hide inside wall.lowering's total).
            for tname in sorted(self._lower_wall_by_thread):
                reg.timer("wall.lowering." + tname).add(
                    self._lower_wall_by_thread[tname]
                )
        if self._faults is not None:
            f = self._faults
            # Service faults the workload never resolved become misses now,
            # before the ledger counters freeze into the run's metrics.
            f.flush_service_pending()
            reg.counter("faults.injected").add(f.total_injected)
            for kind in sorted(f.injected):
                reg.counter("faults.injected." + kind).add(f.injected[kind])
            reg.counter("faults.detected").add(f.detected)
            reg.counter("faults.missed").add(f.missed)
        reg.gauge("sim_cycles").set(result.wall_cycles)
        if run_wall > 0:
            reg.gauge("sim_events_per_sec").set(self._n_steps / run_wall)
            reg.gauge("sim_cycles_per_sec").set(result.wall_cycles / run_wall)
        reg.timer("wall.engine_run").add(run_wall)
        reg.timer("wall.collect").add(collect_wall)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(
        self,
        specs: list[ThreadSpec],
        lower: Callable[[], Any] | None = None,
    ) -> RunResult:
        """Execute the given threads to completion and return the results.

        ``lower`` optionally enables the compiled execution tier
        (:mod:`repro.sim.compiled`): a zero-argument callable returning a
        **fresh, equivalent** build of the same program (a spec list or an
        object with ``.build()``). It is invoked once to statically lower
        the program into segment tables; the run itself still executes
        ``specs``. It must construct new session/lock/queue objects —
        never return the live ``specs`` — because lowering drives the
        generators against stub contexts. Results are bit-identical with
        or without it (a wrong or stale build only lowers the batch hit
        rate, never correctness).
        """
        if self._finished:
            raise SimulationError("Engine instances are single-use")
        if not specs:
            raise ConfigError("need at least one thread spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate thread names: {names}")
        if lower is not None and self._compiled_on:
            t_low = time.perf_counter()
            self._lowering = lower_program(lower, self.config)
            self._lower_wall = time.perf_counter() - t_low
            walls = self._lowering.stats.get("wall_by_thread")
            if walls:
                self._lower_wall_by_thread.update(walls)
        for spec in specs:
            thread = self._create_thread(spec.factory, spec.name, at=0)
            self._make_ready(thread, at=0)
        t0 = time.perf_counter()
        self._main_loop()
        run_wall = time.perf_counter() - t0
        self._finished = True
        t1 = time.perf_counter()
        result = self._collect()
        collect_wall = time.perf_counter() - t1
        if self.metrics.enabled:
            self._record_metrics(run_wall, collect_wall, result)
            result.metrics = self.metrics.snapshot()
        if self._collector is not None:
            self._collector.record_run(
                result,
                wall_seconds=run_wall + collect_wall,
                sim_events=self._n_steps,
            )
        return result

    def thread(self, tid: int) -> SimThread:
        try:
            return self.threads[tid]
        except KeyError:
            raise SimulationError(f"no thread with tid {tid}") from None

    def thread_now(self, tid: int) -> int:
        """Best-known current time for a thread (ground-truth peek)."""
        thread = self.thread(tid)
        if thread.core_id is not None:
            return self.machine.cores[thread.core_id].now
        return thread.available_at

    def service_fault(self, tid: int, kind: str, tier: str):
        """Workload-level fault hook: does a service fault of ``kind``
        targeting ``tier`` fire for thread ``tid`` here?

        Service-chain workloads (repro.workloads.service) call this at
        their hook points — request service, downstream call, worker loop
        top — mirroring how the engine's own hook points consult the
        injector. The decision is deterministic (plan + simulated state
        only) and the firing opens a ledger entry the workload must close
        via :meth:`service_fault_resolved`. Returns the firing spec or
        ``None``.
        """
        faults = self._faults
        if faults is None:
            return None
        thread = self.thread(tid)
        if thread.core_id is None:
            return None
        core = self.machine.cores[thread.core_id]
        spec = faults.fire(kind, core, thread, point=tier)
        if spec is not None:
            self._fault_event(core, thread, kind, (tier, spec.arg))
        return spec

    def service_fault_resolved(
        self, tid: int, kind: str, absorbed: bool = True
    ) -> None:
        """Close one open service-fault ledger entry (detect vs miss)."""
        faults = self._faults
        if faults is None:
            return
        faults.resolve_service_fault(kind, absorbed)
        if absorbed and self._tracing:
            thread = self.thread(tid)
            if thread.core_id is not None:
                core = self.machine.cores[thread.core_id]
                self.obs.emit(
                    core.now, core.core_id, tid, tr.FAULT_DETECT, kind
                )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _main_loop(self) -> None:
        cores = self.machine.cores
        threads = self.threads
        sleep_heap = self._sleep_heap
        core_heap = self._core_heap
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        max_cycles = self.config.max_cycles
        step = self._step
        single = cores[0] if len(cores) == 1 else None
        n_steps = 0
        #: (now, core_id) of the core whose chain just ended, still
        #: runnable: it re-enters the heap in the same operation that pops
        #: the next candidate
        ran: tuple[int, int] | None = None
        entry: tuple[int, int] | None
        while self.live_count > 0:
            # -- pick the acting core: smallest (now, core_id) ------------
            # Due sleepers (wake time <= the would-be actor's clock) are
            # made ready first, exactly as the seed engine's rescan did.
            if single is not None:
                core = None if single.parked else single
                while sleep_heap and (
                    core is None or sleep_heap[0][0] <= core.now
                ):
                    wake_at, _, tid = heappop(sleep_heap)
                    self._make_ready(threads[tid], at=wake_at)
                    core = None if single.parked else single
                horizon = sleep_heap[0][0] if sleep_heap else None
            else:
                # Each runnable core has exactly one heap entry, (its clock,
                # its id): pushed when it unparks (_make_ready) or when its
                # chain ends (``ran``, folded into the next pop). A core's
                # clock only moves while it is the actor, out of the heap,
                # and only the actor can park, so no entry is ever stale.
                while True:
                    if ran is not None:
                        entry = heappushpop(core_heap, ran)
                        ran = None
                    elif core_heap:
                        entry = heappop(core_heap)
                    else:
                        entry = None
                    if sleep_heap and (
                        entry is None or sleep_heap[0][0] <= entry[0]
                    ):
                        ran = entry
                        wake_at, _, tid = heappop(sleep_heap)
                        self._make_ready(threads[tid], at=wake_at)
                        continue
                    break
                core = cores[entry[1]] if entry is not None else None
                horizon = core_heap[0][0] if core_heap else None
                if sleep_heap and (
                    horizon is None or sleep_heap[0][0] < horizon
                ):
                    horizon = sleep_heap[0][0]
            if core is None:
                blocked = [
                    f"{t.name}({t.block_key})"
                    for t in threads.values()
                    if t.state is ThreadState.BLOCKED
                ]
                raise SimulationError(
                    f"deadlock: no runnable threads; blocked: {blocked}"
                )
            # -- run the chosen core until another actor could act --------
            # While core.now stays below every other actor's time the core
            # remains the global minimum, so re-running selection would pick
            # it again; chaining skips that. Any event that could create an
            # earlier actor (unpark, sleep-heap push) sets _chain_break.
            self._horizon = horizon
            self._chain_break = False
            while True:
                if core.now > max_cycles:
                    raise SimulationError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                n_steps += 1
                step(core)
                if core.parked or self._chain_break or self.live_count == 0:
                    break
                if horizon is not None and core.now >= horizon:
                    break
            if single is None and not core.parked:
                ran = (core.now, core.core_id)
        # Chained pieces replace what were separate _step calls one-for-one,
        # so this total is bit-identical to the pre-fusion step count.
        self._n_steps = n_steps + self._n_fused

    def _step(self, core: Core) -> None:
        """Run one engine step of ``core``: service a due PMI or timer tick,
        or execute one piece of the current thread's op — fetch-and-begin,
        one phase chunk, or the op's advance. Fetch, dispatch and chaining
        are inlined here rather than split into per-piece helpers because
        they run once per simulated micro-op, where call overhead dominates
        whole-sweep wall time.
        """
        tracing = self._tracing
        if tracing:
            self._acting_core = core
        tid = core.current_tid
        if tid is None:
            self._dispatch(core)
            return
        thread = self.threads[tid]
        now = core.now
        if core.pmi_due_at is not None and now >= core.pmi_due_at:
            self._service_pmi(core, thread)
            return
        if core.slice_ends_at is not None and now >= core.slice_ends_at:
            self._timer_tick(core, thread)
            return
        # A phase runs whole only if it ends by ``end`` (the end of the
        # timeslice or a due PMI); the fused chain below stops at ``stop``
        # (``end``, the chain horizon, or past max_cycles). While this
        # thread holds the core these bounds only move when a PMI is armed,
        # which breaks the chain, so they are combined once per call.
        end = _FAR
        if core.slice_ends_at is not None:
            end = core.slice_ends_at
        if core.pmi_due_at is not None and core.pmi_due_at < end:
            end = core.pmi_due_at
        stop = self.config.max_cycles + 1
        if end < stop:
            stop = end
        horizon = self._horizon
        if horizon is not None and horizon < stop:
            stop = horizon
        ex = thread.ex
        while True:
            if thread.cur is None:
                fetched = (
                    self._compiled_fetch(core, thread)
                    if thread.ctable is not None
                    else None
                )
                if fetched is False:
                    return
                if fetched:
                    if thread.cur is None:
                        return  # a batch committed; next piece next step
                else:
                    try:
                        if thread.throw_exc is None:
                            op = thread.gen.send(thread.send_value)
                        else:
                            exc = thread.throw_exc
                            thread.throw_exc = None
                            op = thread.gen.throw(exc)
                    except StopIteration:
                        self._finish_thread(core, thread)
                        return
                    self._ops_fetched += 1
                    thread.send_value = None
                    ex.op = op
                    try:
                        begin = _BEGIN[type(op)]
                    except KeyError:
                        begin = _dispatch_resolve(
                            _BEGIN, op,
                            f"thread {thread.name!r} yielded non-op {op!r}",
                        )
                    begin(self, core, thread, ex)
                    thread.cur = ex
            ph = ex.ph
            consumed = ex.consumed
            cycles = ph.cycles
            if consumed < cycles:
                if (
                    consumed == 0
                    and ph.interned
                    and (not ph.preemptible or end - now >= cycles)
                    and self._run_whole(core, thread, ph)
                ):
                    # The whole phase ran as one piece: it fits the
                    # timeslice and any due PMI, and wraps no counter.
                    ex.consumed = cycles
                else:
                    remaining = cycles - consumed
                    # Macro-step candidate: a preemptible phase that
                    # outlives the current timeslice (i.e. the slow path
                    # would hit at least one timer tick before it ends).
                    if (
                        ph.preemptible
                        and self._macro
                        and remaining > core.slice_ends_at - now
                        and self._try_macro_step(core, thread, ex)
                    ):
                        return
                    pmu = core.pmu
                    plan = (
                        pmu.accrual_plan(ph.rates, ph.domain)
                        if pmu.n_enabled
                        else ()
                    )
                    if ph.preemptible:
                        # limit only ever shrinks from `remaining`, so the
                        # final chunk is max(1, limit) — identical to
                        # max(1, min(remaining, limit)).
                        limit = remaining
                        bound = core.slice_ends_at
                        if bound is not None and bound - now < limit:
                            limit = bound - now
                        bound = core.pmi_due_at
                        if bound is not None and bound - now < limit:
                            limit = bound - now
                        # split at the first counter-overflow crossing (the
                        # inline form of Pmu.cycles_to_next_overflow), looked
                        # for only when the window can reach it
                        for _index, ctr, ppm, mask in plan:
                            need = mask + 1 - ctr.value
                            if (
                                ((consumed + limit) * ppm) // 1_000_000
                                - (consumed * ppm) // 1_000_000
                                >= need
                            ):
                                d = cycles_until_count(consumed, ppm, need)
                                if d is not None and d < limit:
                                    limit = d
                        chunk = limit if limit > 0 else 1
                    else:
                        chunk = remaining
                    after = consumed + chunk
                    self._account(core, thread, ph, plan, consumed, after)
                    ex.consumed = after
                    if after < cycles:
                        return
            ex.adv(self, core, thread, ex)
            # Chain straight into the thread's next piece — the following
            # stage of a multi-phase op, or the fetch of its next op — when
            # the main loop would deterministically re-pick this core
            # anyway: the checks below mirror its chain conditions and this
            # function's own preamble exactly, so the fetch/_account/
            # advance sequence is identical to stepping one piece per call
            # and only the per-step dispatch overhead is elided. Each fused
            # piece is tallied so sim_events stays the dispatch-independent
            # piece count it was before fusion existed. (While this thread
            # still holds the core, the core is neither parked nor is the
            # run over, so those main-loop conditions need no check here.)
            if tracing or core.current_tid != tid or self._chain_break:
                return
            now = core.now
            if now >= stop:
                return
            self._n_fused += 1

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------

    def _create_thread(
        self,
        factory: Callable[[ThreadContext], Any],
        name: str,
        at: int,
    ) -> SimThread:
        tid = self._next_tid
        self._next_tid += 1
        rng = RandomStream(self.config.seed, "thread", name, tid)
        ctx = ThreadContext(name, tid, rng, self)
        gen = factory(ctx)
        if not hasattr(gen, "send"):
            raise ConfigError(
                f"program factory for thread {name!r} must return a "
                f"generator, got {type(gen).__name__}"
            )
        thread = SimThread(tid, name, ctx, gen, self.config.machine.pmu.n_counters)
        thread.started_at = at
        thread.available_at = at
        lowering = self._lowering
        if lowering is not None:
            # Attach by (name, tid): the walk assigned tids in its own
            # creation order, so a mid-run spawn whose tid disagrees gets a
            # *lazily lowered* table with the real tid instead — the eager
            # one would mispredict every seeded RandomStream draw (never a
            # wrong table either way: replay verifies each op).
            tbl = lowering.tables.get(name)
            if tbl is not None and tbl.tid == tid:
                thread.ctable = tbl
            elif (
                name in lowering.spawn_factories
                and self._compiled_lazy < LAZY_LOWER_CAP
            ):
                t_low = time.perf_counter()
                tbl = lower_spawned(lowering, name, tid, self.config)
                dt = time.perf_counter() - t_low
                self._lower_wall += dt
                self._lower_wall_by_thread[name] = (
                    self._lower_wall_by_thread.get(name, 0.0) + dt
                )
                if tbl is not None:
                    thread.ctable = tbl
                    self._compiled_lazy += 1
        self.threads[tid] = thread
        self.live_count += 1
        return thread

    def _make_ready(self, thread: SimThread, at: int) -> None:
        thread.state = ThreadState.READY
        thread.available_at = at
        thread.block_key = None
        runqueues = self.scheduler.runqueues
        idle = [
            c.core_id
            for c in self.machine.cores
            if (c.parked or c.current_tid is None) and not runqueues[c.core_id]
        ]
        core_id = self.scheduler.place(thread.core_id, idle)
        self.scheduler.enqueue(thread.tid, core_id)
        core = self.machine.cores[core_id]
        if core.parked:
            core.parked = False
            if at > core.now:
                core.now = at
            if self._use_core_heap:
                heapq.heappush(self._core_heap, (core.now, core_id))
            # a new actor may now exist below the current chain's horizon
            self._chain_break = True
        if self._tracing:
            self.obs.emit(at, core_id, thread.tid, tr.READY, thread.name)

    def _finish_thread(self, core: Core, thread: SimThread) -> None:
        if thread.owned_locks:
            raise SimulationError(
                f"thread {thread.name!r} exited holding locks "
                f"{sorted(thread.owned_locks)}"
            )
        if thread.region_stack:
            raise SimulationError(
                f"thread {thread.name!r} exited with open regions "
                f"{thread.region_stack}"
            )
        self._switch_out(core, thread, requeue=False)
        thread.state = ThreadState.FINISHED
        thread.finished_at = core.now
        self.live_count -= 1
        for waiter in self._join_waiters.pop(thread.tid, []):
            self._make_ready(self.threads[waiter], at=core.now)
        if self._tracing:
            self.obs.emit(core.now, core.core_id, thread.tid, tr.EXIT, thread.name)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _dispatch(self, core: Core) -> None:
        tid = self.scheduler.pick_next(core.core_id)
        if tid is None:
            core.parked = True
            return
        self._switch_in(core, self.threads[tid])

    def _switch_in(self, core: Core, thread: SimThread) -> None:
        core.parked = False
        if thread.available_at > core.now:
            core.now = thread.available_at
        crossed_socket = False
        if thread.core_id is not None and thread.core_id != core.core_id:
            thread.n_migrations += 1
            old_socket = self.machine.cores[thread.core_id].socket_id
            crossed_socket = old_socket != core.socket_id
            if crossed_socket:
                thread.n_cross_socket_migrations += 1
        thread.core_id = core.core_id
        thread.state = ThreadState.RUNNING
        core.current_tid = thread.tid
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.SWITCH_IN, thread.name
            )
        # Restore the thread's counters FIRST, then charge the switch
        # path: the incoming thread's OS-domain counters must observe the
        # switch-in work, or virtualized kernel-cycle counts would drift
        # from truth by one switch path per reschedule.
        self._program_counters(core, thread)
        cost = self._costs.context_switch
        if crossed_socket:
            cost += self._costs.cross_socket_migration
        n_active = thread.vpmu.n_active()
        if n_active and not self.config.kernel.hw_thread_virtualization:
            cost += self._costs.ctx_restore_per_counter * n_active
        self._account_kernel(core, thread, cost)
        core.slice_ends_at = core.now + self.config.kernel.timeslice_cycles

    def _switch_out(
        self, core: Core, thread: SimThread, requeue: bool,
        preempted: bool = False, front: bool = False,
    ) -> None:
        faults = self._faults
        if faults is not None:
            spec = faults.fire(fp.DELAY_SWAP, core, thread)
            if spec is not None:
                # The save path stalls while the outgoing thread's counters
                # are still live: the extra kernel cycles land in both the
                # counters and the ground truth, so exactness must survive.
                delay = spec.arg if spec.arg else 600
                self._account_kernel(core, thread, delay)
                self._fault_event(core, thread, fp.DELAY_SWAP, delay)
        n_active = thread.vpmu.n_active()
        if n_active and not self.config.kernel.hw_thread_virtualization:
            self._account_kernel(
                core, thread, self._costs.ctx_save_per_counter * n_active
            )
        self._fold_counters(core, thread)
        if faults is not None:
            spec = faults.fire(fp.DUP_SWAP, core, thread)
            if spec is not None:
                # The whole save path runs a second time: duplicate the
                # per-counter cost and re-fold. Count-mode folds of the now
                # deprogrammed (zero-valued, no-latch) counters are no-ops —
                # the idempotence the virtualization design relies on.
                if n_active and not self.config.kernel.hw_thread_virtualization:
                    self._account_kernel(
                        core, thread,
                        self._costs.ctx_save_per_counter * n_active,
                    )
                self._fold_counters(core, thread)
                self._fault_event(core, thread, fp.DUP_SWAP, n_active)
        if thread.in_pmc_read:
            thread.pmc_read_interrupted = True
        thread.n_context_switches += 1
        if preempted:
            thread.n_preemptions += 1
        self.kernel_counters.n_context_switches += 1
        core.current_tid = None
        core.slice_ends_at = None
        core.pmi_due_at = None
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.SWITCH_OUT, thread.name
            )
        if requeue:
            thread.state = ThreadState.READY
            thread.available_at = core.now
            if front:
                self.scheduler.requeue_front(thread.tid, core.core_id)
            else:
                self.scheduler.enqueue(thread.tid, core.core_id)
            if self._tracing:
                self.obs.emit(
                    core.now, core.core_id, thread.tid, tr.READY, thread.name
                )

    def _timer_tick(self, core: Core, thread: SimThread) -> None:
        if self._tracing:
            self.obs.emit(core.now, core.core_id, thread.tid, tr.TIMER_TICK)
        self.kernel_counters.n_timer_ticks += 1
        self._account_kernel(core, thread, self._costs.timer_tick)
        if self._faults is not None:
            spec = self._faults.fire(fp.SHRINK_COUNTER, core, thread)
            if spec is not None:
                self._shrink_counters(core, thread, spec.arg)
        if thread.mux is not None and len(thread.mux.specs) > 1:
            self._account_kernel(core, thread, 2 * self._costs.wrmsr)
            self._mux_rotate(core, thread)
        if self.scheduler.runqueues[core.core_id]:
            self._switch_out(core, thread, requeue=True, preempted=True)
        else:
            core.slice_ends_at = core.now + self.config.kernel.timeslice_cycles

    def _block(self, core: Core, thread: SimThread, key: tuple) -> None:
        thread.state = ThreadState.BLOCKED
        thread.block_key = key
        self._switch_out(core, thread, requeue=False)

    # ------------------------------------------------------------------
    # counter virtualization (the LiMiT kernel patch)
    # ------------------------------------------------------------------

    def _program_counters(self, core: Core, thread: SimThread) -> None:
        pmu = core.pmu
        counters = pmu.counters  # one counter per vpmu slot
        for idx, spec in enumerate(thread.vpmu.slots):
            if spec is None:
                continue
            ctr = counters[idx]
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            if spec.mode == "count":
                ctr.value = 0
            else:
                saved = thread.slot_saved[idx]
                if saved is None:
                    saved = max(0, ctr.threshold - spec.period)
                ctr.write(saved)
        # resolve the new programming now: the switch path's own kernel
        # phase is the next lookup in the phase memo
        pmu.phase_memo()

    def _fold_counters(self, core: Core, thread: SimThread) -> None:
        counters = core.pmu.counters  # one counter per vpmu slot
        vpmu = thread.vpmu
        for idx, spec in enumerate(vpmu.slots):
            if spec is None:
                continue
            ctr = counters[idx]
            if ctr.overflow_pending:
                self._apply_overflow(core, thread, idx)
            if spec.mode == "count":
                vpmu.fold(idx, ctr.value)
            else:
                thread.slot_saved[idx] = ctr.value
            ctr.deprogram()

    def _apply_overflow(self, core: Core, thread: SimThread, idx: int) -> None:
        ctr = core.pmu.counter(idx)
        wraps = ctr.clear_overflow()
        if not wraps:
            return
        self.kernel_counters.n_counter_overflows += wraps
        if self._faults is not None:
            # Applying a latched overflow recovers any dropped PMIs on this
            # core: the wrap reached the accumulator after all (detected).
            n = self._faults.note_overflow_recovered(core.core_id)
            if n and self._tracing:
                self.obs.emit(
                    core.now, core.core_id, thread.tid,
                    tr.FAULT_DETECT, fp.DROP_PMI,
                )
        spec = thread.vpmu.slots[idx]
        if spec is None:  # orphaned counter; nothing to attribute
            return
        if spec.mode == "count":
            thread.vpmu.vaccum[idx] += wraps * ctr.threshold
        else:
            fd = self.perf.fd_for_slot(thread.tid, idx)
            region = thread.region_stack[-1] if thread.region_stack else None
            if fd is not None and fd.enabled:
                record = SampleRecord(
                    time=core.now,
                    tid=thread.tid,
                    region=region,
                    event=spec.event,
                    fd=fd.fd,
                )
                self.perf.record_sample(fd, record)
                self.kernel_counters.n_samples += 1
            thread.vpmu.sample_counts[idx] += 1
            ctr.write(max(0, ctr.threshold - spec.period))

    def _service_pmi(self, core: Core, thread: SimThread) -> None:
        core.pmi_due_at = None
        pending = core.pmu.pending_overflow_indices()
        if not pending:
            return
        faults = self._faults
        if faults is not None:
            spec = faults.fire(fp.DROP_PMI, core, thread)
            if spec is not None:
                # The interrupt is lost before the handler runs: no cost, no
                # overflow application, no interruption flag. The hardware
                # latch survives, so the overflow is recovered at redelivery
                # (arg cycles) or at the next virtualization fold — and the
                # safe read's pending-overflow check still catches it.
                if spec.arg > 0:
                    core.pmi_due_at = core.now + spec.arg
                faults.note_dropped_pmi(core.core_id)
                self._fault_event(core, thread, fp.DROP_PMI, spec.arg)
                return
        n_samples = sum(
            1
            for idx in pending
            if thread.vpmu.slots[idx] is not None
            and thread.vpmu.slots[idx].mode == "sample"
        )
        cost = self._costs.pmi_handler + self._costs.pmi_sample_record * n_samples
        self.kernel_counters.n_pmis += 1
        self._account_kernel(core, thread, cost)
        # The handler itself may have pushed more counters over the edge
        # (kernel-domain counting); service everything pending now.
        for idx in core.pmu.pending_overflow_indices():
            self._apply_overflow(core, thread, idx)
        if thread.in_pmc_read:
            thread.pmc_read_interrupted = True
        if self._tracing:
            self.obs.emit(core.now, core.core_id, thread.tid, tr.PMI, tuple(pending))
        if faults is not None:
            spec = faults.fire(fp.REPEAT_PMI, core, thread)
            if spec is not None:
                # A spurious second interrupt right behind the real one: the
                # handler runs again (full dispatch cost, nothing pending to
                # apply) and mid-read it spuriously flags an interruption,
                # forcing a harmless restart.
                self.kernel_counters.n_pmis += 1
                self._account_kernel(core, thread, self._costs.pmi_handler)
                if thread.in_pmc_read:
                    thread.pmc_read_interrupted = True
                self._fault_event(core, thread, fp.REPEAT_PMI, tuple(pending))

    # ------------------------------------------------------------------
    # fault injection hooks (repro.faults)
    # ------------------------------------------------------------------

    def _fault_event(self, core: Core, thread: SimThread | None,
                     kind: str, detail: Any = None) -> None:
        """Trace one fired injection. Only the *recording* is gated on
        tracing — the decision already happened, so traced and untraced runs
        inject identically (the zero-perturbation contract)."""
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id,
                thread.tid if thread is not None else 0,
                tr.FAULT_INJECT, (kind, detail),
            )

    def _shrink_counters(self, core: Core, thread: SimThread, width: int) -> None:
        """Narrow every hardware counter on every core to ``width`` bits.

        The truncated high bits of each live value latch as overflow wraps,
        so counting slots recover them through the normal overflow path
        (``vaccum += wraps * new_threshold`` with the *new* threshold equals
        exactly the bits shifted out) and nothing is lost. Cached accrual
        plans and phase memos embed the old mask, so every narrowed PMU's
        caches are flushed; sampling preloads saved under the old width
        are clamped.
        """
        mask = (1 << width) - 1
        for c in self.machine.cores:
            changed = False
            for ctr in c.pmu.counters:
                if ctr.width <= width:
                    continue
                ctr.width = width
                excess = ctr.value >> width
                if excess:
                    ctr.value &= mask
                    ctr.overflow_pending += excess
                    ctr.overflow_total += excess
                changed = True
            if not changed:
                continue
            c.pmu.flush_plans()
            if (
                c.current_tid is not None
                and c.pmu.pending_overflow_indices()
            ):
                running = self.threads[c.current_tid]
                self._arm_pmi(c, running)
        for t in self.threads.values():
            t.slot_saved = [
                (s & mask if s is not None else None) for s in t.slot_saved
            ]
        self._fault_event(core, thread, fp.SHRINK_COUNTER, width)

    def _arm_pmi(self, core: Core, thread: SimThread) -> None:
        """Schedule the PMI for a just-latched overflow after the configured
        skid; fault injection may amplify the skid or align the delivery to
        the end of the current timeslice."""
        skid = self._costs.pmi_skid
        faults = self._faults
        if faults is not None:
            spec = faults.fire(fp.AMPLIFY_SKID, core, thread)
            if spec is not None:
                if spec.arg == fp.ALIGN_SLICE:
                    if (
                        core.slice_ends_at is not None
                        and core.slice_ends_at > core.now
                    ):
                        skid = core.slice_ends_at - core.now
                else:
                    skid *= spec.arg
                self._fault_event(core, thread, fp.AMPLIFY_SKID, skid)
        due = core.now + skid
        if core.pmi_due_at is None or due < core.pmi_due_at:
            core.pmi_due_at = due
            # an earlier due PMI ends the current chain (Engine._step
            # folds the due time into its chain bound once per call)
            self._chain_break = True

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _kphase(self, cycles: int) -> _Phase:
        """The interned kernel-path phase of ``cycles`` cycles (KERNEL_RATES,
        non-preemptible). Only fixed costs come here — cost constants and
        their small combinations — so the table stays small."""
        ph = self._kphases.get(cycles)
        if ph is None:
            ph = self._kphases[cycles] = _Phase(
                cycles, KERNEL_RATES, Domain.KERNEL, False
            )
        return ph

    def _resolve(self, pmu: Any, ph: _Phase) -> tuple:
        """Resolve interned ``ph`` against ``pmu``'s current programming
        into its memo: one ``(counter, limit, n)`` add per counter the whole
        phase moves, ``n = events_in(0, cycles, ppm)``, where ``limit`` is
        the largest counter value the add cannot wrap (overflow headroom).
        """
        memo = pmu.phase_memo()
        adds: tuple | None = memo.get(ph)
        if adds is not None:  # resolved before; the caller saw a stale memo
            return adds
        adds = ()
        if pmu.n_enabled:
            cycles = ph.cycles
            adds = tuple(
                (ctr, mask - n, n)
                for _index, ctr, ppm, mask in pmu.accrual_plan(
                    ph.rates, ph.domain
                )
                if (n := (cycles * ppm) // 1_000_000)
            )
        memo[ph] = adds
        return adds

    def _resolve_seq(self, pmu: Any, seq: _PhaseSeq) -> tuple:
        """Resolve a phase sequence like :meth:`_resolve`: per-part counter
        adds ``(counter, n)`` (each sub-phase accrues from its own cycle 0,
        so a part's add is a sum of ``events_in(0, cycles)``) plus
        ``(counter, mask, n)`` totals over both parts for the wrap checks."""
        memo = pmu.phase_memo()
        rec: tuple | None = memo.get(seq)
        if rec is not None:  # resolved before; the caller saw a stale memo
            return rec
        parts: list[dict[int, list]] = [{}, {}]
        totals: dict[int, list] = {}
        if pmu.n_enabled:
            for adds, part in zip(parts, (seq.part_a, seq.part_b)):
                for ph in part:
                    for index, ctr, ppm, mask in pmu.accrual_plan(
                        ph.rates, ph.domain
                    ):
                        n = (ph.cycles * ppm) // 1_000_000
                        if n:
                            adds.setdefault(index, [ctr, 0])[1] += n
                            totals.setdefault(index, [ctr, mask, 0])[2] += n
        rec = (
            tuple((c, n) for c, n in parts[0].values()),
            tuple((c, n) for c, n in parts[1].values()),
            tuple((c, m, n) for c, m, n in totals.values()),
        )
        memo[seq] = rec
        return rec

    def _run_whole(self, core: Core, thread: SimThread, ph: _Phase) -> bool:
        """Run all of interned phase ``ph`` as one piece, unless a counter
        would wrap inside it; return False (with nothing changed) then, so
        the caller takes the generic path that splits at the wrap.

        Cycles are charged at once; the phase's other ground-truth events
        are deferred as a count of ``ph`` (:meth:`SimThread.fold`), except
        that a user phase inside an open region is charged eagerly, since
        the region's tally needs its events too.
        """
        try:
            adds = core.pmu.memo[ph]
        except KeyError:
            adds = self._resolve(core.pmu, ph)
        for ctr, limit, n in adds:
            value = ctr.value
            if value > limit:
                for done, _limit, m in adds:  # undo the adds made so far
                    if done is ctr:
                        return False
                    done.value -= m
            ctr.value = value + n
        cycles = ph.cycles
        core.now += cycles
        core.busy_cycles += cycles
        if ph.user:
            core.user_cycles += cycles
            thread.user_cycles += cycles
            thread.ev_user[0] += cycles  # Event.CYCLES.index == 0
            if thread.region_stack:
                ev = thread.ev_user
                rev = thread.region_ev[thread.region_stack[-1]]
                rev[0] += cycles
                for idx, n in ph.deltas:
                    ev[idx] += n
                    rev[idx] += n
                return True
        else:
            core.kernel_cycles += cycles
            thread.kernel_cycles += cycles
            thread.ev_kernel[0] += cycles
            if thread.region_stack:
                thread.regions[thread.region_stack[-1]].kernel_cycles += cycles
        thread.pending[ph] += 1
        return True

    def _account(
        self,
        core: Core,
        thread: SimThread,
        ph: _Phase,
        plan: tuple,
        before: int,
        after: int,
    ) -> None:
        """Charge the ``(before, after]`` window of phase ``ph`` to the
        machine, thread, ground truth, active region and PMU counters — the
        generic path, for partial windows, transient phases and windows
        that wrap a counter.

        ``plan`` is the PMU accrual plan for the phase's (rates, domain),
        resolved by the caller — ``()`` when no counter is programmed.
        """
        chunk = after - before
        core.now += chunk
        core.busy_cycles += chunk
        if ph.user:
            core.user_cycles += chunk
            thread.user_cycles += chunk
            ev = thread.ev_user
        else:
            core.kernel_cycles += chunk
            thread.kernel_cycles += chunk
            ev = thread.ev_kernel
        ev[0] += chunk  # Event.CYCLES.index == 0
        rev = None
        if thread.region_stack:
            name = thread.region_stack[-1]
            if ph.user:
                rev = thread.region_ev[name]
                rev[0] += chunk
            else:
                thread.regions[name].kernel_cycles += chunk
        if ph.flat:
            accrue_rate_events(ph.flat, before, after, ev, rev)
        if plan:
            overflowed = False
            on_overflow = core.pmu.on_overflow
            for index, ctr, ppm, mask in plan:
                n = (after * ppm) // 1_000_000 - (before * ppm) // 1_000_000
                if n:
                    v = ctr.value + n
                    if v <= mask:
                        ctr.value = v
                    elif ctr.accrue(n):
                        overflowed = True
                        if on_overflow is not None:
                            on_overflow(index)
            if overflowed:
                self._arm_pmi(core, thread)

    def _account_kernel(self, core: Core, thread: SimThread, cycles: int) -> None:
        """One-shot non-preemptible kernel phase."""
        if cycles:
            ph = self._kphase(cycles)
            if not self._run_whole(core, thread, ph):
                pmu = core.pmu
                plan = (
                    pmu.accrual_plan(KERNEL_RATES, Domain.KERNEL)
                    if pmu.n_enabled
                    else ()
                )
                self._account(core, thread, ph, plan, 0, cycles)

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------

    def _begin(self, core: Core, thread: SimThread, op: ops.Op) -> None:
        """Begin an already-fetched ``op`` in the thread's exec record (the
        compiled tier's entry; :meth:`_step` inlines the same dispatch)."""
        begin = _BEGIN.get(type(op))
        if begin is None:
            begin = _dispatch_resolve(
                _BEGIN, op, f"thread {thread.name!r} yielded non-op {op!r}"
            )
        ex = thread.ex
        ex.op = op
        begin(self, core, thread, ex)
        thread.cur = ex

    def _bail(self, reason: str) -> bool:
        """Count a fast-path bailout; always False (for `return` chaining)."""
        self._bailouts[reason] = self._bailouts.get(reason, 0) + 1
        return False

    # ------------------------------------------------------------------
    # compiled execution tier (repro.sim.compiled)
    # ------------------------------------------------------------------

    def _compiled_fetch(self, core: Core, thread: SimThread) -> bool | None:
        """Fetch the thread's next op with its segment table consulted.

        Returns True once the op has begun (or a batch committed), False
        when the thread finished, and None when the table was dropped
        before fetching — :meth:`_step` then fetches the op interpreted.
        When the fetched op matches its prediction at the head
        of a batchable segment and nothing can interleave, a whole span of
        ops is committed in bulk (``thread.cur`` stays None and the caller
        returns); otherwise the op is interpreted normally with the table
        cursor tracking — and, on divergence, resynchronising against —
        the real stream.
        """
        tbl = thread.ctable
        if thread.throw_exc is not None:
            # A thrown-in exception rewinds the generator through except/
            # finally blocks; predictions after this point are worthless.
            thread.ctable = None
            thread.cfork = None
            return None
        fk = thread.cfork
        if fk is not None:
            # The op just consumed was a two-valued fork point: resolve the
            # prediction stream against the value actually being sent back
            # in, BEFORE the end-of-table check (a fork at the last index
            # whose alternate fired must switch tables, not drop).
            thread.cfork = None
            sv = thread.send_value
            if sv == fk[0]:
                pass  # main continuation: the current table already has it
            elif sv == fk[1]:
                thread.ctable = tbl = fk[2]
                thread.cpos = 0
                thread.cmisses = 0
                self._compiled_forks += 1
            else:
                self._bail("compiled_fork_miss")
                thread.ctable = None
                return None
        i = thread.cpos
        if i >= tbl.n:
            thread.ctable = None
            return None
        try:
            op = thread.gen.send(thread.send_value)
        except StopIteration:
            self._finish_thread(core, thread)
            return False
        e = tbl.bhead[i]
        if e == 0:
            # Not a batch head: prediction accuracy is irrelevant here (a
            # batch re-verifies every op it replays), so skip the compare
            # and track position blindly; a head-position mismatch later
            # resynchronises against any accumulated drift.
            thread.cpos = i + 1
            if tbl.forks is not None and i in tbl.forks:
                thread.cfork = tbl.forks[i]
            self._ops_fetched += 1
            thread.send_value = None
            self._begin(core, thread, op)
            return True
        if op_matches(op, tbl.ops[i], tbl.kinds[i]):
            thread.cmisses = 0
            if thread.profiler is None and thread.cskip != core.slice_ends_at:
                # (cskip: once a window bail happens, every later head in
                # the same timeslice faces a strictly smaller window, so
                # retrying before the next tick only repeats the failure.)
                if core.pmi_due_at is not None:
                    self._bail("compiled_pmi")
                else:
                    done = self._compiled_batch(core, thread, tbl, i, e, op)
                    if done is not None:
                        return done
            thread.cpos = i + 1
        else:
            self._compiled_divergences += 1
            j = i + 1
            limit = j + RESYNC_WINDOW
            if limit > tbl.n:
                limit = tbl.n
            resync = -1
            while j < limit:
                if op_matches(op, tbl.ops[j], tbl.kinds[j]):
                    resync = j
                    break
                j += 1
            if resync >= 0:
                # The real stream skipped predicted ops: jump past them.
                self._compiled_resyncs += 1
                thread.cpos = resync + 1
                thread.cmisses = 0
                if tbl.forks is not None and resync in tbl.forks:
                    thread.cfork = tbl.forks[resync]
            else:
                # Unknown op (likely an insertion): hold position and let
                # the next fetch retry this prediction.
                thread.cmisses += 1
                if thread.cmisses >= DEAD_AFTER:
                    thread.ctable = None
        self._ops_fetched += 1
        thread.send_value = None
        self._begin(core, thread, op)
        return True

    def _compiled_batch(
        self, core: Core, thread: SimThread, tbl: Any, i: int, e: int,
        op0: ops.Op,
    ) -> bool | None:
        """Try to batch-execute predicted ops ``[i, e)`` (op ``i`` already
        fetched — ``op0`` — and verified). Returns True/False with
        :meth:`_compiled_fetch` semantics on success, or None when the
        exactness caps leave fewer than MIN_BATCH ops — the caller then
        interprets the already-fetched op.

        Exactness caps: every batched op must end strictly inside the
        current timeslice (so no timer tick, preemption or wakeup-driven
        reschedule could interleave anywhere inside the span), and no
        hardware counter may reach its overflow threshold (wraps arm PMIs,
        which need interpreted phase splitting). Batchable ops are
        thread-local, so the span may cross the main loop's actor horizon
        — other actors at earlier simulated times cannot observe or affect
        it — with two exceptions: a RegionEnd at or past the horizon would
        consume the *shared* region-log budget ahead of other threads'
        earlier region exits, and a lock acquire/release at or past it
        would mutate *shared* lock state another actor at an earlier
        simulated time could still contend for — the span stops before
        the first such op. PMC reads need no horizon cap (per-core PMU
        state; no cross-actor visibility).

        Lock pairs replay only while provably uncontended (lock free on
        acquire, owned with no sleepers on release); a contended lock
        hands the fetched op to the interpreter mid-batch
        (``compiled_contended``), whose spin/futex stage machine then runs
        verbatim. Whole PMC reads replay through the same
        :meth:`_try_fast_read` commit the interpreter's composite fast
        path uses — the batch caps above guarantee its slice/wrap/PMI
        prechecks cannot fire, so only live prechecks (rdpmc disabled,
        slot reconfigured, latched overflow) can bail
        (``compiled_read``).
        """
        now0 = core.now
        cyc = tbl.cyc
        base_c = cyc[i]
        limit = self.config.max_cycles + 1 - now0
        bound = core.slice_ends_at
        if bound is not None and bound - now0 < limit:
            limit = bound - now0
        budget = limit - 1
        if budget <= 0:
            thread.cskip = core.slice_ends_at
            self._bail("compiled_window")
            return None
        if cyc[e] - base_c > budget:
            lo, hi = i, e
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if cyc[mid] - base_c <= budget:
                    lo = mid
                else:
                    hi = mid
            e = lo
            if e - i < MIN_BATCH:
                thread.cskip = core.slice_ends_at
                self._bail("compiled_window")
                return None
        horizon = self._horizon
        if horizon is not None and now0 + (cyc[e] - base_c) >= horizon:
            hb = horizon - now0
            kinds_tab = tbl.kinds
            for j in range(i, e):
                k = kinds_tab[j]
                if k == K_REND:
                    if cyc[j] - base_c >= hb:
                        e = j
                        break
                elif k == K_LACQ or k == K_LREL:
                    # Lock state mutates at the POST-cas time.
                    if cyc[j + 1] - base_c >= hb:
                        e = j
                        break
            if e - i < MIN_BATCH:
                self._bail("compiled_window")
                return None
        pmu = core.pmu
        if pmu.n_enabled:
            cu = tbl.cu
            ck = tbl.ck
            eu = tbl.eu
            ek = tbl.ek
            for ctr in pmu.counters:
                if not ctr.enabled or ctr.event is None:
                    continue
                idx = ctr.event.index
                au = (cu if idx == 0 else eu.get(idx)) if ctr.count_user else None
                ak = (ck if idx == 0 else ek.get(idx)) if ctr.count_kernel else None
                if au is None and ak is None:
                    continue
                headroom = ctr.mask - ctr.value
                d = 0
                if au is not None:
                    d += au[e] - au[i]
                if ak is not None:
                    d += ak[e] - ak[i]
                if d > headroom:
                    lo, hi = i, e
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        d = 0
                        if au is not None:
                            d += au[mid] - au[i]
                        if ak is not None:
                            d += ak[mid] - ak[i]
                        if d <= headroom:
                            lo = mid
                        else:
                            hi = mid
                    e = lo
            if e - i < MIN_BATCH:
                self._bail("compiled_overflow")
                return None
        # -- verified replay ------------------------------------------------
        # Per op: core.now is kept exact (generator code may call
        # ctx.now() between yields), send values are the interpreted ones
        # (None, or post-op time for Rdtsc), and region/syscall bookkeeping
        # side effects replay verbatim. All cycle/event/counter accrual is
        # committed in bulk from the prefix tables at the end.
        kinds = tbl.kinds
        ops_tab = tbl.ops
        cu = tbl.cu
        ck = tbl.ck
        send = thread.gen.send
        ktable = self.kernel_counters.n_syscalls
        u0 = thread.user_cycles
        k0 = thread.kernel_cycles
        flush = i
        i0 = i  # original batch start: segment/op counters span rebases
        j = i
        op = op0
        val: Any = None
        while True:
            kind = kinds[j]
            if kind == K_WORK:
                thread.n_syscalls += 1
                ktable["work"] = ktable.get("work", 0) + 1
                val = None
            elif kind == K_RDTSC:
                val = now0 + (cyc[j + 1] - base_c)
            elif kind == K_LACQ:
                lock = self.locks.get(op.lock)
                if lock.held:
                    return self._batch_interrupt(
                        core, thread, tbl, i0, i, j, flush, now0, u0, k0,
                        op, "compiled_contended",
                    )
                lock.take(
                    thread.tid,
                    now0 + (cyc[j + 1] - base_c),
                    waited=cyc[j + 1] - cyc[j],
                    contended=False,
                    slept=False,
                )
                thread.owned_locks.add(op.lock)
                val = None
            elif kind == K_LREL:
                lock = self.locks.get(op.lock)
                if lock.owner != thread.tid or lock.n_sleepers > 0:
                    # Owner mismatch: the interpreter raises the same
                    # LockProtocolError the batch would have to. Sleepers:
                    # the release must run futex-wake phases.
                    return self._batch_interrupt(
                        core, thread, tbl, i0, i, j, flush, now0, u0, k0,
                        op, "compiled_contended",
                    )
                lock.release(thread.tid, now0 + (cyc[j + 1] - base_c))
                thread.owned_locks.discard(op.lock)
                val = None
            elif kind == K_SREAD or kind == K_UREAD:
                # Commit [i, j) first so _try_fast_read sees exact state,
                # then replay the whole read through the interpreter's own
                # one-piece commit and rebase the span after it.
                self._commit_batch(core, thread, tbl, i, j, flush, now0, u0, k0)
                ex = thread.ex  # free: no op is in flight between batch ops
                ex.op = op
                seq = self._safe_read if kind == K_SREAD else self._unsafe_read
                if not self._try_fast_read(core, thread, ex, seq):
                    return self._batch_interrupt(
                        core, thread, tbl, i0, j, j, j,
                        core.now, thread.user_cycles, thread.kernel_cycles,
                        op, "compiled_read",
                    )
                val = ex.result
                i = j + 1
                base_c = cyc[i]
                now0 = core.now
                u0 = thread.user_cycles
                k0 = thread.kernel_cycles
                flush = i
            elif kind == K_RBEGIN:
                self._batch_region_flush(thread, tbl, flush, j)
                flush = j
                name = ops_tab[j].name
                if name not in thread.regions:
                    thread.regions[name] = RegionTruth(name=name)
                    thread.region_ev[name] = [0] * N_EVENTS
                thread.region_stack.append(name)
                thread.region_entries.append(
                    (name, thread.user_cycles + thread.kernel_cycles, core.now)
                )
                val = None
            elif kind == K_REND:
                self._batch_region_flush(thread, tbl, flush, j)
                flush = j
                if not thread.region_stack:
                    raise SimulationError(
                        f"thread {thread.name!r}: RegionEnd with no open region"
                    )
                name = thread.region_stack.pop()
                _entry_name, cpu_snap, t0 = thread.region_entries.pop()
                rt = thread.regions[name]
                rt.invocations += 1
                if self._region_log_budget > 0:
                    rt.exec_cycles.append(
                        thread.user_cycles + thread.kernel_cycles - cpu_snap
                    )
                    rt.wall_cycles.append(core.now - t0)
                    self._region_log_budget -= 1
                val = None
            else:  # K_COMPUTE
                val = None
            j += 1
            if j == e:
                break
            # Resume point: the generator may observe core/thread clocks
            # between yields, so keep them as exact as per-chunk accounting
            # would (everything else commits in bulk at the end).
            core.now = now0 + (cyc[j] - base_c)
            thread.user_cycles = u0 + (cu[j] - cu[i])
            thread.kernel_cycles = k0 + (ck[j] - ck[i])
            try:
                op = send(val)
            except StopIteration:
                self._commit_batch(core, thread, tbl, i, j, flush, now0, u0, k0)
                self._compiled_segments += 1
                self._compiled_ops += j - i0
                self._ops_fetched += j - i0
                thread.cpos = j
                thread.ctable = None
                self._finish_thread(core, thread)
                return False
            if not op_matches(op, ops_tab[j], kinds[j]):
                # Mid-batch divergence: commit what ran, interpret the
                # fetched op from the committed state.
                self._commit_batch(core, thread, tbl, i, j, flush, now0, u0, k0)
                self._compiled_segments += 1
                self._compiled_ops += j - i0
                self._ops_fetched += j - i0 + 1
                self._compiled_divergences += 1
                thread.cmisses += 1
                if thread.cmisses >= DEAD_AFTER:
                    thread.ctable = None
                thread.cpos = j
                thread.send_value = None
                self._begin(core, thread, op)
                return True
        self._commit_batch(core, thread, tbl, i, e, flush, now0, u0, k0)
        self._compiled_segments += 1
        self._compiled_ops += e - i0
        self._ops_fetched += e - i0
        thread.cpos = e
        thread.send_value = val   # pending result for the next fetch
        thread.cur = None
        return True

    def _batch_interrupt(
        self, core: Core, thread: SimThread, tbl: Any, i0: int, i: int,
        j: int, flush: int, now0: int, u0: int, k0: int, op: ops.Op,
        reason: str,
    ) -> bool:
        """Commit batched ops ``[i, j)``, then hand the already-fetched op
        ``j`` — which matches its prediction but cannot be replayed
        in-batch (a contended lock, a read failing its live prechecks) —
        to the interpreter, counting ``reason``. The cursor advances past
        op ``j`` (it matched; only its execution is interpreted), unlike
        the divergence path which holds at ``j``."""
        self._commit_batch(core, thread, tbl, i, j, flush, now0, u0, k0)
        if j > i0:
            self._compiled_segments += 1
            self._compiled_ops += j - i0
        self._ops_fetched += j - i0 + 1
        self._bail(reason)
        thread.cpos = j + 1
        thread.send_value = None
        self._begin(core, thread, op)
        return True

    def _batch_region_flush(
        self, thread: SimThread, tbl: Any, a: int, b: int
    ) -> None:
        """Flush batched ops ``[a, b)``'s accrual into the open region, the
        way per-chunk accounting would have: user event deltas (and user
        cycles) into the top region's tally, kernel cycles into its
        kernel_cycles — kernel *events* never enter region tallies."""
        if a == b:
            return
        stack = thread.region_stack
        if not stack:
            return
        top = stack[-1]
        du = tbl.cu[b] - tbl.cu[a]
        rev = thread.region_ev[top]
        if du:
            rev[0] += du
        for idx, arr in tbl.eu.items():
            d = arr[b] - arr[a]
            if d:
                rev[idx] += d
        dk = tbl.ck[b] - tbl.ck[a]
        if dk:
            thread.regions[top].kernel_cycles += dk

    def _commit_batch(
        self,
        core: Core,
        thread: SimThread,
        tbl: Any,
        i: int,
        e: int,
        flush: int,
        now0: int,
        u0: int,
        k0: int,
    ) -> None:
        """Bulk-commit the accrual of batched ops ``[i, e)`` from the
        prefix tables: core clocks, thread/ground-truth tallies, the open
        region, and programmed PMU counters (pre-capped: no wraps)."""
        self._batch_region_flush(thread, tbl, flush, e)
        cyc = tbl.cyc
        total = cyc[e] - cyc[i]
        core.now = now0 + total
        core.busy_cycles += total
        cu = tbl.cu
        ck = tbl.ck
        du = cu[e] - cu[i]
        dk = ck[e] - ck[i]
        if du:
            core.user_cycles += du
            thread.ev_user[0] += du
        if dk:
            core.kernel_cycles += dk
            thread.ev_kernel[0] += dk
        thread.user_cycles = u0 + du
        thread.kernel_cycles = k0 + dk
        ev_user = thread.ev_user
        for idx, arr in tbl.eu.items():
            d = arr[e] - arr[i]
            if d:
                ev_user[idx] += d
        ev_kernel = thread.ev_kernel
        for idx, arr in tbl.ek.items():
            d = arr[e] - arr[i]
            if d:
                ev_kernel[idx] += d
        pmu = core.pmu
        if pmu.n_enabled:
            eu = tbl.eu
            ek = tbl.ek
            for ctr in pmu.counters:
                if not ctr.enabled or ctr.event is None:
                    continue
                idx = ctr.event.index
                d = 0
                if ctr.count_user:
                    arr = cu if idx == 0 else eu.get(idx)
                    if arr is not None:
                        d += arr[e] - arr[i]
                if ctr.count_kernel:
                    arr = ck if idx == 0 else ek.get(idx)
                    if arr is not None:
                        d += arr[e] - arr[i]
                if d:
                    ctr.value += d

    def _try_macro_step(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> bool:
        """Fast-forward k whole timeslices of a solo compute phase in one
        closed-form step: k quanta of user cycles plus k batched timer
        ticks of kernel cycles, with all event/counter accrual done by the
        same exact integer arithmetic the slow path uses.

        Engages only when nothing can interleave: no runnable sibling on
        this core, no pending PMI, no rotating multiplex group, and the
        whole jump (a) starts every sub-step strictly before any other
        actor's time and (b) wraps no hardware counter (so no PMI can
        become due mid-window). Returns False (and counts the reason) when
        any condition fails, leaving the slow path to run unchanged.
        """
        faults = self._faults
        if faults is not None:
            if faults.tick_armed:
                # macro steps batch timer ticks without running _timer_tick,
                # where tick-triggered faults (shrink_counter) fire
                return self._bail("fault_tick_armed")
            if faults.fire(fp.FORCE_BAILOUT, core, thread, point="macro"):
                self._fault_event(core, thread, fp.FORCE_BAILOUT, "macro")
                return self._bail("fault_forced")
        if core.pmi_due_at is not None:
            return self._bail("pmi_due")
        if self.scheduler.runqueues[core.core_id]:
            return self._bail("runqueue")
        mux = thread.mux
        if mux is not None and len(mux.specs) > 1:
            return self._bail("mux")
        ph = ex.ph
        if not ph.user:  # pragma: no cover - defensive
            return self._bail("domain")
        now = core.now
        quantum = self.config.kernel.timeslice_cycles
        tick = self._costs.timer_tick
        stride = quantum + tick
        head = core.slice_ends_at - now
        consumed = ex.consumed
        remaining = ph.cycles - consumed
        # Largest k from the phase itself: the k-th quantum must still be
        # cut short by its tick, i.e. head + (k-1)*quantum < remaining
        # (at the boundary the slow path finishes the phase instead).
        k = (remaining - head - 1) // quantum + 1
        # Every batched sub-step must *start* strictly before the earliest
        # other actor (the k-th tick starts at t_end - tick); at a tie the
        # outer loop must arbitrate by core id / process wakeups first.
        horizon = self._horizon
        if horizon is not None:
            if now + head >= horizon:
                return self._bail("horizon")
            k_h = (horizon - now - head - 1) // stride + 1
            if k_h < k:
                k = k_h
        if k < 1:
            return self._bail("horizon")
        # Shrink k until no counter can wrap inside the window. Counter
        # fill is monotonic in k, so binary-search the largest safe k; if
        # even one slice would wrap, the slow path delivers that PMI.
        pmu = core.pmu
        if pmu.n_enabled:
            user_plan = pmu.accrual_plan(ph.rates, Domain.USER)
            kernel_plan = pmu.accrual_plan(KERNEL_RATES, Domain.KERNEL)
        else:
            user_plan = kernel_plan = ()
        if user_plan or kernel_plan:
            # per counter: [user ppm, events per tick, headroom]
            by_index: dict[int, list] = {}
            for index, ctr, ppm, mask in user_plan:
                by_index[index] = [ppm, 0, mask - ctr.value]
            for index, ctr, ppm, mask in kernel_plan:
                per_tick = events_in(0, tick, ppm)
                entry = by_index.get(index)
                if entry is None:
                    by_index[index] = [0, per_tick, mask - ctr.value]
                else:
                    entry[1] = per_tick
            caps = [
                (ppm_u, per_tick, (consumed * ppm_u) // 1_000_000, room)
                for ppm_u, per_tick, room in by_index.values()
            ]

            def fits(kk: int) -> bool:
                u_end = consumed + head + (kk - 1) * quantum
                for ppm_u, per_tick, base_n, room in caps:
                    n = kk * per_tick + (u_end * ppm_u) // 1_000_000 - base_n
                    if n > room:
                        return False
                return True

            # Counter fill grows with k: keep k if it fits, else bail if
            # even one slice wraps, else search the largest k that fits.
            if not fits(k):
                if not fits(1):
                    return self._bail("overflow")
                lo, hi = 1, k - 1
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if fits(mid):
                        lo = mid
                    else:
                        hi = mid - 1
                k = lo
        # ---- commit: the jump is safe; apply k slices in closed form ----
        user_cycles = head + (k - 1) * quantum
        kernel_cycles = k * tick
        t_end = now + user_cycles + kernel_cycles
        if self._tracing:
            # the slow path emits TIMER_TICK at each slice boundary, before
            # charging the tick; reproduce the identical event stream
            emit = self.obs.emit
            cid = core.core_id
            tid = thread.tid
            t = now + head
            for _ in range(k):
                emit(t, cid, tid, tr.TIMER_TICK)
                t += stride
        core.now = t_end
        core.busy_cycles += user_cycles + kernel_cycles
        core.user_cycles += user_cycles
        core.kernel_cycles += kernel_cycles
        thread.user_cycles += user_cycles
        thread.kernel_cycles += kernel_cycles
        ev_user = thread.ev_user
        ev_user[0] += user_cycles  # Event.CYCLES.index == 0
        ev_kernel = thread.ev_kernel
        ev_kernel[0] += kernel_cycles
        rev = None
        if thread.region_stack:
            name = thread.region_stack[-1]
            rev = thread.region_ev[name]
            rev[0] += user_cycles
            thread.regions[name].kernel_cycles += kernel_cycles
        u_end = consumed + user_cycles
        accrue_rate_events(ph.flat, consumed, u_end, ev_user, rev)
        thread.pending[self._ph_tick] += k
        # PMU counters: no wrap is possible by construction, so plain adds
        for _index, ctr, ppm, _mask in user_plan:
            ctr.value += (u_end * ppm) // 1_000_000 - (consumed * ppm) // 1_000_000
        for _index, ctr, ppm, _mask in kernel_plan:
            ctr.value += k * events_in(0, tick, ppm)
        ex.consumed = u_end
        self.kernel_counters.n_timer_ticks += k
        core.slice_ends_at = t_end + quantum
        self._macro_steps += 1
        self._quanta_batched += k
        return True

    def _complete(self, thread: SimThread, value: Any) -> None:
        thread.send_value = value
        thread.cur = None

    def _throw(self, thread: SimThread, exc: BaseException) -> None:
        thread.throw_exc = exc
        thread.cur = None

    # -- op begin ----------------------------------------------------------
    # Ops dispatch once, on type(op), through the _BEGIN table built after
    # the class body (subclasses resolve through the MRO on first sight and
    # are memoized). A begin handler sets the first phase and the advance
    # handler run when it completes; each advance handler sets the next
    # stage's phase and handler, so stage machines compare no stage names.

    def _begin_compute(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """A compute window recurring in this run (the same rates and
        length, seen before) runs as an interned phase; others as the
        thread's transient phase. The table stops growing at _WINDOWS_CAP
        distinct windows, so runs of random lengths stay bounded."""
        op = ex.op
        rates = op.rates
        key = (rates.flat, op.cycles)
        windows = self._windows
        ph = windows.get(key, _UNSEEN)
        if ph is None:
            ph = windows[key] = _Phase(op.cycles, rates, Domain.USER, True)
        elif ph is _UNSEEN:
            if len(windows) < _WINDOWS_CAP:
                windows[key] = None
            ph = thread.compute_ph
            ph.cycles = op.cycles
            ph.rates = rates
            ph.flat = rates.flat
        ex.ph = ph
        ex.consumed = 0
        ex.adv = Engine._adv_done

    def _begin_rdtsc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_rdtsc
        ex.consumed = 0
        ex.adv = Engine._adv_rdtsc

    def _begin_rdpmc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_rdpmc
        ex.consumed = 0
        ex.adv = Engine._adv_rdpmc

    def _begin_rdpmc_destructive(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        ex.ph = self._ph_rdpmc_destructive
        ex.consumed = 0
        ex.adv = Engine._adv_rdpmc_destructive

    def _begin_pmc_read_begin(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        ex.ph = self._ph_read_begin
        ex.consumed = 0
        ex.adv = Engine._adv_pmc_read_begin

    def _begin_pmc_read_end(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_read_end
        ex.consumed = 0
        ex.adv = Engine._adv_pmc_read_end

    def _begin_load_vaccum(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_load_accum
        ex.consumed = 0
        ex.adv = Engine._adv_load_vaccum

    def _begin_pmc_safe_read(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        if self._try_fast_read(core, thread, ex, self._safe_read):
            return
        ex.ph = self._ph_call
        ex.consumed = 0
        ex.adv = Engine._safe_call

    def _begin_pmc_unsafe_read(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        if self._try_fast_read(core, thread, ex, self._unsafe_read):
            return
        ex.ph = self._ph_call
        ex.consumed = 0
        ex.adv = Engine._unsafe_call

    def _begin_region_begin(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        ex.ph = self._ph_hook if thread.profiler is not None else _ZERO_PHASE
        ex.consumed = 0
        ex.adv = Engine._adv_region_begin

    def _begin_region_end(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_hook if thread.profiler is not None else _ZERO_PHASE
        ex.consumed = 0
        ex.adv = Engine._adv_region_end

    def _begin_lock_acquire(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        ex.t0 = core.now
        ex.ph = self._ph_cas
        ex.consumed = 0
        ex.adv = Engine._acq_first_cas

    def _begin_lock_release(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        ex.ph = self._ph_cas
        ex.consumed = 0
        ex.adv = Engine._rel_cas

    def _begin_syscall_op(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        name = ex.op.name
        handler = self._syscalls.get(name)
        if handler is None:
            raise SimulationError(f"unknown syscall {name!r}")
        ex.handler = handler
        thread.n_syscalls += 1
        table = self.kernel_counters.n_syscalls
        table[name] = table.get(name, 0) + 1
        self._begin_syscall(core, thread, ex, name, Engine._sys_entered)

    def _begin_spawn(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.n_syscalls += 1
        table = self.kernel_counters.n_syscalls
        table["clone"] = table.get("clone", 0) + 1
        self._begin_syscall(core, thread, ex, "clone", Engine._spawn_entered)

    def _begin_join(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.n_syscalls += 1
        self._begin_syscall(core, thread, ex, "join", Engine._join_entered)

    def _begin_sleep(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.n_syscalls += 1
        self._begin_syscall(core, thread, ex, "sleep", Engine._sleep_entered)

    def _begin_yield(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.n_syscalls += 1
        self._begin_syscall(core, thread, ex, "yield", Engine._yield_entered)

    def _begin_syscall(
        self,
        core: Core,
        thread: SimThread,
        ex: _OpExec,
        name: str,
        entered: Callable[..., None],
    ) -> None:
        """Common entry path of every syscall-class op: trace + entry phase;
        ``entered`` runs once the entry phase completes."""
        ex.sys_name = name
        ex.result = None
        ex.exc = None
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.SYSCALL_ENTER, name
            )
        ex.ph = self._ph_sys_entry
        ex.consumed = 0
        ex.adv = entered

    def _exit_syscall(self, ex: _OpExec) -> None:
        """Set up the kernel->user return phase of a syscall-class op."""
        ex.ph = self._ph_sys_exit
        ex.consumed = 0
        ex.adv = Engine._sys_exited

    def _sys_exited(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """Return to user: deliver the syscall's result or its "errno"."""
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.SYSCALL_EXIT, ex.sys_name
            )
        if ex.exc is not None:
            thread.throw_exc = ex.exc
        else:
            thread.send_value = ex.result
        thread.cur = None

    # -- op advance ----------------------------------------------------------

    def _adv_done(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.send_value = None
        thread.cur = None

    def _adv_result(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """The op is done and its value is ``ex.result``."""
        thread.send_value = ex.result
        thread.cur = None

    def _adv_rdtsc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.send_value = core.now
        thread.cur = None

    def _adv_pmc_read_begin(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.in_pmc_read = True
        thread.pmc_read_interrupted = False
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.PMC_READ_BEGIN
            )
        self._complete(thread, None)

    def _adv_pmc_read_end(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ok = (
            not thread.pmc_read_interrupted
            and not core.pmu.pending_overflow_indices()
        )
        thread.in_pmc_read = False
        thread.pmc_read_interrupted = False
        if not ok:
            thread.read_restarts += 1
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.PMC_READ_END, ok
            )
        self._complete(thread, ok)

    def _adv_load_vaccum(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        try:
            value = thread.vpmu.read_accumulator(ex.op.index)
        except CounterError as exc:
            self._throw(thread, exc)
        else:
            self._complete(thread, value)

    def _rdpmc_user(self, core: Core, thread: SimThread, index: int) -> int:
        """A user-mode rdpmc of ``index``, recording the slot's ground truth
        at that instant; raises CounterError like the instruction faults."""
        value = core.pmu.rdpmc(index, from_user=True)
        if 0 <= index < len(thread.vpmu.slots):
            spec = thread.vpmu.slots[index]
            if spec is not None:
                thread.last_rdpmc_truth = thread.slot_truth_since_open(
                    index, spec
                )
        return value

    def _adv_rdpmc(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        try:
            value = self._rdpmc_user(core, thread, ex.op.index)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        self._complete(thread, value)

    # -- composite PMC reads ------------------------------------------------
    # PmcSafeRead / PmcUnsafeRead run the whole LiMiT read protocol as one
    # op. Two execution paths, chosen per attempt by _try_fast_read:
    #
    # * fast path — when nothing can interrupt the window (no slice
    #   boundary, no due PMI, no counter wrap, not tracing), the entire
    #   sequence commits in one piece with memoized accrual sums;
    # * stage machine — otherwise, the op steps through phases with exactly
    #   the piece boundaries of the historical op-by-op form (Compute /
    #   PmcReadBegin / LoadVAccum / Rdpmc / PmcReadEnd / Compute), so
    #   interrupted reads restart, fault and undercount identically.

    def _try_fast_read(
        self, core: Core, thread: SimThread, ex: _OpExec, seq: _PhaseSeq
    ) -> bool:
        """Commit a whole PMC read in one piece if provably uninterruptible.

        All prechecks are side-effect free; any possible interleaving
        (slice boundary or due PMI inside the window, userspace-read fault,
        bad slot, latched or imminent counter overflow, tracing) bails to
        the stage machine, which reproduces the historical behaviour
        exactly. On success the committed state — tallies, counters,
        slot-truth bookkeeping, core clocks — is identical to running the
        uninterrupted stage sequence piece by piece.
        """
        # Fault hooks come BEFORE the tracing bail: whenever read-targeting
        # faults are armed, traced and untraced runs must take the same
        # stage-machine path, or injection decisions would diverge.
        faults = self._faults
        if faults is not None and faults.reads_armed:
            if faults.fire(fp.FORCE_BAILOUT, core, thread, point="fast_read"):
                self._fault_event(core, thread, fp.FORCE_BAILOUT, "fast_read")
            return self._bail("read_fault_armed")
        if self._tracing:
            return self._bail("read_tracing")
        if core.pmi_due_at is not None:
            return self._bail("read_pmi_due")
        pmu = core.pmu
        if not pmu.user_rdpmc_enabled:
            return self._bail("read_fault")
        index = ex.op.index
        vpmu = thread.vpmu
        slots = vpmu.slots
        counters = pmu.counters
        if not 0 <= index < len(slots) or index >= len(counters):
            return self._bail("read_bad_slot")
        spec = slots[index]
        if spec is None or not spec.user_readable:
            return self._bail("read_bad_slot")
        try:
            adds_a, adds_b, totals = pmu.memo[seq]
        except KeyError:
            adds_a, adds_b, totals = self._resolve_seq(pmu, seq)
        total = seq.cycles
        bound = core.slice_ends_at
        if bound is not None and bound - core.now < total:
            return self._bail("read_slice")
        for counter in counters:
            if counter.overflow_pending:
                return self._bail("read_overflow_pending")
        for counter, mask, n in totals:
            if counter.value + n > mask:
                return self._bail("read_wrap")
        # Commit. Part A (call + [begin +] load + rdpmc phases) accrues
        # before the values and ground truth are captured, part B ([end +]
        # store) after — exactly where the stage boundaries fall.
        ev = thread.ev_user
        rev = None
        region_stack = thread.region_stack
        if region_stack:
            rev = thread.region_ev[region_stack[-1]]
            rev[0] += total
        ev[0] += seq.cycles_a
        if rev is None:
            thread.pending[seq.tally_a] += 1
        else:
            for idx, n in seq.tally_a.deltas:
                ev[idx] += n
                rev[idx] += n
        for counter, n in adds_a:
            counter.value += n
        acc = vpmu.vaccum[index]
        hw = counters[index].value
        thread.last_rdpmc_truth = (
            thread.slot_truth(spec) - thread.slot_truth_base[index]
        )
        ev[0] += total - seq.cycles_a
        if rev is None:
            thread.pending[seq.tally_b] += 1
        else:
            for idx, n in seq.tally_b.deltas:
                ev[idx] += n
                rev[idx] += n
        for counter, n in adds_b:
            counter.value += n
        core.now += total
        core.busy_cycles += total
        core.user_cycles += total
        thread.user_cycles += total
        ex.result = acc + hw
        ex.ph = _ZERO_PHASE
        ex.adv = Engine._adv_result
        self._fast_reads += 1
        return True

    def _read_value(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """The read's loads are done: store their sum (the final phase)."""
        ex.ph = self._ph_store_result
        ex.consumed = 0
        ex.result = ex.acc + ex.hw
        ex.adv = Engine._adv_result

    def _safe_call(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.restarts = 0
        ex.fpc = False
        ex.ph = self._ph_read_begin
        ex.consumed = 0
        ex.adv = Engine._safe_rb

    def _safe_rb(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        thread.in_pmc_read = True
        thread.pmc_read_interrupted = False
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.PMC_READ_BEGIN
            )
        ex.ph = self._ph_load_accum
        ex.consumed = 0
        ex.adv = Engine._safe_va

    def _safe_va(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        try:
            ex.acc = thread.vpmu.read_accumulator(ex.op.index)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        ex.ph = self._ph_rdpmc
        ex.consumed = 0
        ex.adv = Engine._safe_rd
        faults = self._faults
        if faults is not None:
            spec = faults.fire(
                fp.PREEMPT_IN_READ, core, thread,
                protocol="safe", point=fp.BETWEEN_LOADS,
            )
            if spec is not None:
                # The classic hazard: accumulator loaded, rdpmc not yet
                # executed. The forced switch folds the counter, so the
                # two loads span epochs; the restart check must fire.
                faults.note_read_hazard(thread.tid, "safe")
                self._fault_event(
                    core, thread, fp.PREEMPT_IN_READ, fp.BETWEEN_LOADS
                )
                self._switch_out(
                    core, thread, requeue=True, preempted=True, front=True
                )

    def _safe_rd(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        try:
            ex.hw = self._rdpmc_user(core, thread, ex.op.index)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        ex.ph = self._ph_read_end
        ex.consumed = 0
        ex.adv = Engine._safe_re

    def _safe_re(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        faults = self._faults
        if faults is not None and not ex.fpc:
            spec = faults.fire(
                fp.PREEMPT_IN_READ, core, thread,
                protocol="safe", point=fp.BEFORE_CHECK,
            )
            if spec is not None:
                # Preempt exactly between the two halves of the restart
                # check: the read-end cycles have been charged but the
                # interruption flag has not been evaluated yet. The
                # at-most-once guard (fpc) keeps this handler, re-entered
                # after the resume, from re-firing.
                ex.fpc = True
                faults.note_read_hazard(thread.tid, "safe")
                self._fault_event(
                    core, thread, fp.PREEMPT_IN_READ, fp.BEFORE_CHECK
                )
                self._switch_out(
                    core, thread, requeue=True, preempted=True, front=True
                )
                return
        ok = (
            not thread.pmc_read_interrupted
            and not core.pmu.pending_overflow_indices()
        )
        if faults is not None:
            faults.resolve_safe_check(thread.tid, ok)
        thread.in_pmc_read = False
        thread.pmc_read_interrupted = False
        if not ok:
            thread.read_restarts += 1
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.PMC_READ_END, ok
            )
        if ok:
            self._read_value(core, thread, ex)
            return
        ex.restarts += 1
        if ex.restarts > ops.MAX_RESTARTS:
            self._throw(
                thread,
                RuntimeError(
                    f"LiMiT read of slot {ex.op.index} restarted "
                    f">{ops.MAX_RESTARTS} times"
                ),
            )
            return
        ex.ph = self._ph_read_begin
        ex.consumed = 0
        ex.adv = Engine._safe_rb

    def _unsafe_call(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_load_accum
        ex.consumed = 0
        ex.adv = Engine._unsafe_va

    def _unsafe_va(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        try:
            ex.acc = thread.vpmu.read_accumulator(ex.op.index)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        ex.ph = self._ph_rdpmc
        ex.consumed = 0
        ex.adv = Engine._unsafe_rd
        faults = self._faults
        if faults is not None:
            spec = faults.fire(
                fp.PREEMPT_IN_READ, core, thread,
                protocol="unsafe", point=fp.BETWEEN_LOADS,
            )
            if spec is not None:
                # No protection here: the switch folds the hardware value
                # into the accumulator *after* this read captured it, so
                # the sum silently undercounts — a miss by construction.
                faults.note_read_hazard(thread.tid, "unsafe")
                self._fault_event(
                    core, thread, fp.PREEMPT_IN_READ, fp.BETWEEN_LOADS
                )
                self._switch_out(
                    core, thread, requeue=True, preempted=True, front=True
                )

    def _unsafe_rd(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        try:
            ex.hw = self._rdpmc_user(core, thread, ex.op.index)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        self._read_value(core, thread, ex)

    def _adv_rdpmc_destructive(
        self, core: Core, thread: SimThread, ex: _OpExec
    ) -> None:
        op = ex.op
        pmu = core.pmu
        try:
            hw = pmu.rdpmc(op.index, from_user=True)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        try:
            spec = thread.vpmu.spec(op.index)
        except CounterError as exc:
            self._throw(thread, exc)
            return
        ctr = pmu.counter(op.index)
        if ctr.overflow_pending:
            # the instruction folds pending overflow state atomically
            self._apply_overflow(core, thread, op.index)
            hw = ctr.read()
        value = thread.vpmu.vaccum[op.index] + hw
        thread.vpmu.vaccum[op.index] = 0
        ctr.write(0)
        truth = thread.slot_truth(spec)
        thread.last_rdpmc_truth = truth - thread.slot_reset_truth[op.index]
        thread.slot_reset_truth[op.index] = truth
        self._complete(thread, value)

    def _adv_region_begin(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op = ex.op
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.REGION_BEGIN, op.name
            )
        thread.region_stack.append(op.name)
        if op.name not in thread.regions:
            thread.regions[op.name] = RegionTruth(name=op.name)
            thread.region_ev[op.name] = [0] * N_EVENTS
        thread.region_entries.append((op.name, thread.cpu_cycles, core.now))
        if thread.profiler is not None:
            thread.profiler.on_enter(thread.tid, op.name, core.now)
        self._complete(thread, None)

    def _adv_region_end(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        if not thread.region_stack:
            raise SimulationError(
                f"thread {thread.name!r}: RegionEnd with no open region"
            )
        name = thread.region_stack.pop()
        entry_name, cpu_snap, t0 = thread.region_entries.pop()
        if entry_name != name:  # pragma: no cover - structurally impossible
            raise SimulationError("region stack corrupted")
        rt = thread.regions[name]
        rt.invocations += 1
        if self._region_log_budget > 0:
            rt.exec_cycles.append(thread.cpu_cycles - cpu_snap)
            rt.wall_cycles.append(core.now - t0)
            self._region_log_budget -= 1
        if thread.profiler is not None:
            thread.profiler.on_exit(thread.tid, name, core.now)
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.REGION_END, name
            )
        self._complete(thread, None)

    # -- locks ---------------------------------------------------------------

    def _try_spin_batch(self, core: Core, thread: SimThread, ex: _OpExec) -> bool:
        """Fast-forward k whole spin+CAS rounds of a contended lock acquire
        in one closed-form step.

        Called from the CAS advance after the CAS has failed with spin
        budget remaining, i.e. the slow path is about to run round after
        round of 2-piece spin/CAS phases. The CAS outcome can only change
        when another actor releases the lock — impossible before
        ``self._horizon`` — or when this core reschedules, which (absent a
        due PMI) only happens at a timer tick, bounded by
        ``slice_ends_at``. Every round that both *runs* and *decides*
        strictly before those bounds is therefore a guaranteed failed CAS,
        and k of them accrue exactly k times one round's deltas (each phase
        restarts at phase-relative cycle 0). k is additionally capped so no
        hardware counter can wrap inside the window; the round that would
        wrap is left to the slow path, which raises the PMI mid-phase
        exactly as before. No trace events occur inside the loop, so the
        batch is valid under tracing too.
        """
        faults = self._faults
        if faults is not None and faults.fire(
            fp.FORCE_BAILOUT, core, thread, point="spin"
        ):
            self._fault_event(core, thread, fp.FORCE_BAILOUT, "spin")
            return self._bail("fault_forced")
        seq = self._spin_round
        spin_q = self._ph_spin.cycles
        round_cycles = seq.cycles
        if round_cycles <= 0:  # pragma: no cover - degenerate cost model
            return self._bail("spin_degenerate")
        spin_used = ex.spin_used
        budget = self.config.locks.spin_limit_cycles - spin_used
        k = -(-budget // spin_q)  # rounds until the budget is exhausted
        if core.pmi_due_at is not None:
            return self._bail("spin_pmi_due")
        now = core.now
        bound = core.slice_ends_at
        if bound is not None:
            k_s = (bound - now) // round_cycles
            if k_s < k:
                k = k_s
            if k < 1:
                return self._bail("spin_slice")
        horizon = self._horizon
        if horizon is not None:
            k_h = (horizon - now - 1) // round_cycles
            if k_h < k:
                k = k_h
            if k < 1:
                return self._bail("spin_horizon")
        try:
            adds, _adds_b, totals = core.pmu.memo[seq]
        except KeyError:
            adds, _adds_b, totals = self._resolve_seq(core.pmu, seq)
        for counter, mask, n in totals:
            k_w = (mask - counter.value) // n
            if k_w < k:
                k = k_w
        if k < 1:
            return self._bail("spin_wrap")
        # ---- commit: k failed rounds, then re-decide with the same checks
        # the slow path's k-th CAS advance would have made at this state ----
        window = k * round_cycles
        ex.spin_used = spin_used + k * spin_q
        ev = thread.ev_user
        ev[0] += window  # Event.CYCLES.index == 0
        if thread.region_stack:
            rev = thread.region_ev[thread.region_stack[-1]]
            rev[0] += window
            for idx, n in seq.tally_a.deltas:
                kn = k * n
                ev[idx] += kn
                rev[idx] += kn
        else:
            thread.pending[seq.tally_a] += k
        for counter, n in adds:
            counter.value += k * n  # no wrap by construction
        core.now += window
        core.busy_cycles += window
        core.user_cycles += window
        thread.user_cycles += window
        self._spin_batches += 1
        self._spin_rounds_batched += k
        if ex.spin_used < self.config.locks.spin_limit_cycles:
            self._acq_spin_round(ex)
        else:
            self._acq_futex_wait(ex)
        return True

    def _acq_spin_round(self, ex: _OpExec) -> None:
        """Contended CAS with spin budget left: spin one quantum."""
        ex.spin_used += self._ph_spin.cycles
        ex.ph = self._ph_spin
        ex.consumed = 0
        ex.adv = Engine._acq_spun

    def _acq_futex_wait(self, ex: _OpExec) -> None:
        """Spin budget exhausted: enter the futex-wait syscall body."""
        self.kernel_counters.n_futex_waits += 1
        ex.ph = self._ph_futex_wait
        ex.consumed = 0
        ex.adv = Engine._acq_futex_body

    def _acq_first_cas(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """The acquire's first CAS completed: resolve the lock (once per
        op) and take it if free; otherwise start the contended path."""
        lock = ex.lock = self.locks.get(ex.op.lock)
        if lock.owner is None:
            self._acq_take(core, thread, ex, lock, False)
            return
        ex.spin_used = 0
        ex.slept = False
        self._acq_contended(core, thread, ex)

    def _acq_cas(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        """A retried CAS completed: take the lock if free, else keep
        spinning, or sleep once the spin budget is spent."""
        lock = ex.lock
        if lock.owner is None:
            self._acq_take(core, thread, ex, lock, True)
            return
        self._acq_contended(core, thread, ex)

    def _acq_take(
        self, core: Core, thread: SimThread, ex: _OpExec, lock: Any,
        contended: bool,
    ) -> None:
        # (waited, contended, slept); slept implies contended
        lock.take(
            thread.tid, core.now, core.now - ex.t0, contended,
            contended and ex.slept,
        )
        thread.owned_locks.add(lock.name)
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.LOCK_ACQ, lock.name
            )
        thread.send_value = None
        thread.cur = None

    def _acq_contended(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        if ex.spin_used < self.config.locks.spin_limit_cycles:
            if self._macro and self._try_spin_batch(core, thread, ex):
                return
            self._acq_spin_round(ex)
            return
        self._acq_futex_wait(ex)

    def _acq_spun(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_cas
        ex.consumed = 0
        ex.adv = Engine._acq_cas

    def _acq_futex_body(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_sys_exit
        ex.consumed = 0
        ex.adv = Engine._acq_futex_exit
        lock = ex.lock
        if lock.owner is not None:
            # genuinely sleep; retry CAS when woken
            self.futex.wait(lock.name, thread.tid)
            lock.n_sleepers += 1
            ex.slept = True
            self._block(core, thread, ("futex", lock.name))
        # else: lost the race with a release; fall through to the exit

    def _acq_futex_exit(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.spin_used = 0
        ex.ph = self._ph_cas
        ex.consumed = 0
        ex.adv = Engine._acq_cas

    def _rel_cas(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        lock = ex.lock = self.locks.get(ex.op.lock)
        lock.release(thread.tid, core.now)
        thread.owned_locks.discard(lock.name)
        if self._tracing:
            self.obs.emit(
                core.now, core.core_id, thread.tid, tr.LOCK_REL, lock.name
            )
        if lock.n_sleepers > 0:
            self.kernel_counters.n_futex_wakes += 1
            ex.ph = self._ph_futex_wake
            ex.consumed = 0
            ex.adv = Engine._rel_futex_body
            return
        thread.send_value = None
        thread.cur = None

    def _rel_futex_body(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        lock = ex.lock
        woken = self.futex.wake(lock.name, 1)
        lock.n_sleepers -= len(woken)
        for tid in woken:
            self._make_ready(self.threads[tid], at=core.now)
        ex.ph = self._ph_sys_exit
        ex.consumed = 0
        ex.adv = Engine._adv_done

    # -- syscalls ----------------------------------------------------------

    def _sys_entered(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        try:
            body, action = ex.handler(core, thread, ex.op.args)
        except Exception as exc:  # deliver as the syscall's "errno"
            ex.exc = exc
            self._exit_syscall(ex)
            return
        ex.action = action
        ex.ph = body
        ex.consumed = 0
        ex.adv = Engine._sys_body_done

    def _sys_body_done(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        action = ex.action
        block: tuple | None = None
        if action is not None:
            try:
                ex.result, block = action(core, thread)
            except Exception as exc:
                ex.exc = exc
                block = None
        self._exit_syscall(ex)
        if block is not None:
            kind, arg = block
            if kind == "sleep":
                self._seq += 1
                heapq.heappush(
                    self._sleep_heap, (core.now + arg, self._seq, thread.tid)
                )
                self._chain_break = True
                self._block(core, thread, ("sleep", arg))
            elif kind == "join":
                self._join_waiters.setdefault(arg, []).append(thread.tid)
                self._block(core, thread, ("join", arg))
            elif kind == "key":
                self.futex.wait("key:" + arg, thread.tid)
                self._block(core, thread, ("key", arg))
            else:  # pragma: no cover
                raise SimulationError(f"bad block kind {kind!r}")

    def _spawn_entered(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_spawn
        ex.consumed = 0
        ex.adv = Engine._spawn_body_done

    def _spawn_body_done(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.SpawnThread = ex.op
        child = self._create_thread(op.factory, op.name, at=core.now)
        self._make_ready(child, at=core.now)
        ex.result = child.tid
        self._exit_syscall(ex)

    def _join_entered(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_join
        ex.consumed = 0
        ex.adv = Engine._join_body_done

    def _join_body_done(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        op: ops.JoinThread = ex.op
        target = self.threads.get(op.tid)
        if target is None:
            ex.exc = SimulationError(f"join: no thread {op.tid}")
        self._exit_syscall(ex)
        if target is not None and target.state is not ThreadState.FINISHED:
            self._join_waiters.setdefault(op.tid, []).append(thread.tid)
            self._block(core, thread, ("join", op.tid))

    def _sleep_entered(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_sleep
        ex.consumed = 0
        ex.adv = Engine._sleep_body_done

    def _sleep_body_done(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        cycles = ex.op.cycles
        self._exit_syscall(ex)
        self._seq += 1
        heapq.heappush(
            self._sleep_heap, (core.now + cycles, self._seq, thread.tid)
        )
        self._chain_break = True
        self._block(core, thread, ("sleep", cycles))

    def _yield_entered(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_yield
        ex.consumed = 0
        ex.adv = Engine._yield_body_done

    def _yield_body_done(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        ex.ph = self._ph_sys_exit
        ex.consumed = 0
        ex.adv = Engine._yield_exited

    def _yield_exited(self, core: Core, thread: SimThread, ex: _OpExec) -> None:
        self._sys_exited(core, thread, ex)
        if self.scheduler.runqueues[core.core_id]:
            self._switch_out(core, thread, requeue=True)

    # -- syscall handlers: (core, thread, args) -> (body phase, action) -------

    def _sys_work(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        (cycles,) = args
        if cycles < 0:
            raise ConfigError("work syscall needs non-negative cycles")
        # a variable body: the thread's transient phase, never interned
        thread.work_ph.cycles = cycles
        return thread.work_ph, None

    def _sys_getpid(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            return thread.tid, None

        return self._kphase(150), action

    def _sys_pmc_open(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        (spec,) = args
        if not isinstance(spec, SlotSpec):
            raise ConfigError("pmc_open takes a SlotSpec")
        if spec.mode != "count":
            raise ConfigError("pmc_open supports counting slots only")
        cost = 800 + 2 * self._costs.wrmsr

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            idx = thread.vpmu.allocate(spec)
            ctr = core.pmu.counter(idx)
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            ctr.write(0)
            base = thread.slot_truth(spec)
            thread.slot_truth_base[idx] = base
            thread.slot_reset_truth[idx] = base
            return idx, None

        return self._kphase(cost), action

    def _sys_pmc_close(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        (idx,) = args

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            thread.vpmu.spec(idx)  # validates
            core.pmu.counter(idx).deprogram()
            thread.vpmu.free(idx)
            thread.slot_saved[idx] = None
            return None, None

        return self._kphase(400), action

    def _sys_perf_open(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        event, mode, period, count_user, count_kernel = args
        spec = SlotSpec(
            event=event,
            count_user=count_user,
            count_kernel=count_kernel,
            mode=mode,
            period=period,
            owner="perf",
            user_readable=False,
        )
        if mode == "sample" and period >= core.pmu.config.overflow_threshold:
            raise ConfigError(
                f"sampling period {period} exceeds counter range "
                f"{core.pmu.config.overflow_threshold}"
            )

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            idx = thread.vpmu.allocate(spec)
            ctr = core.pmu.counter(idx)
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            if mode == "count":
                ctr.write(0)
            else:
                ctr.write(max(0, ctr.threshold - period))
            base = thread.slot_truth(spec)
            thread.slot_truth_base[idx] = base
            thread.slot_reset_truth[idx] = base
            fd = self.perf.open(thread.tid, idx, event, mode, period)
            return fd.fd, None

        return self._kphase(3500), action

    def _sys_perf_read(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        (fd_no,) = args
        cost = self._costs.perf_read_kernel_work + self._costs.perf_copyout

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            fd = self.perf.get(fd_no)
            if fd.tid != thread.tid:
                raise ConfigError("cross-thread perf reads are not modelled")
            spec = thread.vpmu.spec(fd.slot)
            value = thread.vpmu.vaccum[fd.slot] + core.pmu.counter(fd.slot).read()
            thread.last_kernel_read_truth[fd.slot] = thread.slot_truth_since_open(
                fd.slot, spec
            )
            return value, None

        return self._kphase(cost), action

    def _sys_perf_close(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        (fd_no,) = args

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            fd = self.perf.close(fd_no)
            core.pmu.counter(fd.slot).deprogram()
            thread.vpmu.free(fd.slot)
            thread.slot_saved[fd.slot] = None
            return fd, None

        return self._kphase(1500), action

    def _sys_papi_read(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        (indices,) = args
        indices = tuple(indices)
        cost = (
            self._costs.papi_kernel_read_work
            + self._costs.papi_copyout
            + 150 * max(0, len(indices) - 1)
        )

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            values = []
            for idx in indices:
                spec = thread.vpmu.spec(idx)
                value = thread.vpmu.vaccum[idx] + core.pmu.counter(idx).read()
                thread.last_kernel_read_truth[idx] = (
                    thread.slot_truth_since_open(idx, spec)
                )
                values.append(value)
            return values, None

        return self._kphase(cost), action

    def _sys_wait_key(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        """Keyed-event wait: consume a pending credit if one exists,
        otherwise block until a wake_key posts one. The credit semantics
        (a wake with no waiter is remembered) make the primitive race-free
        for building semaphores/condvars in userspace."""
        (key,) = args
        if not isinstance(key, str) or not key:
            raise ConfigError("wait_key needs a non-empty string key")

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            credits = self._key_credits.get(key, 0)
            if credits > 0:
                self._key_credits[key] = credits - 1
                return True, None  # consumed a credit; no blocking
            return False, ("key", key)

        return self._kphase(900), action

    def _sys_wake_key(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        """Keyed-event wake: release up to ``n`` waiters; excess wakes are
        stored as credits. ``n = -1`` wakes every current waiter and clears
        any stored credits (broadcast)."""
        key, n = args
        if not isinstance(key, str) or not key:
            raise ConfigError("wake_key needs a non-empty string key")

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            fkey = "key:" + key
            if n == -1:
                woken = self.futex.wake(fkey, 1 << 30)
                self._key_credits.pop(key, None)
            else:
                if n < 0:
                    raise ConfigError("wake_key count must be >= 0 or -1")
                woken = self.futex.wake(fkey, n)
                excess = n - len(woken)
                if excess > 0:
                    self._key_credits[key] = (
                        self._key_credits.get(key, 0) + excess
                    )
            for tid in woken:
                self._make_ready(self.threads[tid], at=core.now)
            return len(woken), None

        return self._kphase(1_100), action

    # -- perf-style event multiplexing ----------------------------------

    def _mux_fold(self, core: Core, thread: SimThread) -> None:
        """Fold the live event's accumulated count into its group entry."""
        state = thread.mux
        ctr = core.pmu.counter(state.slot)
        state.counts[state.active] += (
            thread.vpmu.vaccum[state.slot] + ctr.read()
        )
        thread.vpmu.vaccum[state.slot] = 0
        if ctr.enabled:
            ctr.write(0)
        state.enabled_cpu[state.active] += (
            thread.cpu_cycles - state.active_since_cpu
        )
        state.active_since_cpu = thread.cpu_cycles

    def _mux_rotate(self, core: Core, thread: SimThread) -> None:
        """Rotate the multiplexed group to its next event (timer driven)."""
        state = thread.mux
        self._mux_fold(core, thread)
        state.active = (state.active + 1) % len(state.specs)
        state.rotations += 1
        spec = state.specs[state.active]
        ctr = core.pmu.counter(state.slot)
        if ctr.enabled or core.current_tid == thread.tid:
            ctr.program(spec.event, spec.count_user, spec.count_kernel)
            ctr.write(0)
        # keep the slot's bookkeeping spec in sync with the live event
        thread.vpmu.slots[state.slot] = spec

    def _sys_mux_open(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        events, count_user, count_kernel = args
        events = tuple(events)
        if not events:
            raise ConfigError("mux_open needs at least one event")
        if thread.mux is not None:
            raise ConfigError("thread already has a multiplexed group")
        specs = [
            SlotSpec(
                event=e,
                count_user=count_user,
                count_kernel=count_kernel,
                mode="count",
                owner="perf-mux",
                user_readable=False,
            )
            for e in events
        ]
        cost = 3500 + 2 * self._costs.wrmsr

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            idx = thread.vpmu.allocate(specs[0])
            ctr = core.pmu.counter(idx)
            ctr.program(specs[0].event, count_user, count_kernel)
            ctr.write(0)
            thread.mux = MuxState(
                slot=idx,
                specs=specs,
                truth_base=[thread.slot_truth(s) for s in specs],
                active_since_cpu=thread.cpu_cycles,
                total_cpu_base=thread.cpu_cycles,
            )
            thread.slot_truth_base[idx] = thread.slot_truth(specs[0])
            return idx, None

        return self._kphase(cost), action

    def _sys_mux_read(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        cost = self._costs.perf_read_kernel_work + self._costs.perf_copyout

        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            state = thread.mux
            if state is None:
                raise ConfigError("mux_read without a multiplexed group")
            self._mux_fold(core, thread)
            total_cpu = thread.cpu_cycles - state.total_cpu_base
            triples = [
                (state.counts[i], state.enabled_cpu[i], total_cpu)
                for i in range(len(state.specs))
            ]
            thread.last_kernel_read_truth[state.slot] = 0  # unused for mux
            thread.ctx.scratch["_mux_truth"] = [
                thread.slot_truth(spec) - base
                for spec, base in zip(state.specs, state.truth_base)
            ]
            return triples, None

        return self._kphase(cost), action

    def _sys_mux_close(
        self, core: Core, thread: SimThread, args: tuple
    ) -> tuple[_Phase, _SysAction | None]:
        def action(core: Core, thread: SimThread) -> tuple[Any, Any]:
            state = thread.mux
            if state is None:
                raise ConfigError("mux_close without a multiplexed group")
            core.pmu.counter(state.slot).deprogram()
            thread.vpmu.free(state.slot)
            thread.slot_saved[state.slot] = None
            thread.mux = None
            return state.rotations, None

        return self._kphase(1500), action

    # ------------------------------------------------------------------
    # result collection
    # ------------------------------------------------------------------

    def _collect(self) -> RunResult:
        threads = {}
        for tid, t in self.threads.items():
            t.fold()
            for name, arr in t.region_ev.items():
                events = t.regions[name].events
                for event in _EVENT_MEMBERS:
                    n = arr[event.index]
                    if n:
                        events[event] = n
            threads[tid] = ThreadResult(
                tid=tid,
                name=t.name,
                started_at=t.started_at,
                finished_at=t.finished_at,
                user_cycles=t.user_cycles,
                kernel_cycles=t.kernel_cycles,
                n_context_switches=t.n_context_switches,
                n_preemptions=t.n_preemptions,
                n_migrations=t.n_migrations,
                n_cross_socket_migrations=t.n_cross_socket_migrations,
                n_syscalls=t.n_syscalls,
                read_restarts=t.read_restarts,
                events_user=_tally_dict(t.ev_user),
                events_kernel=_tally_dict(t.ev_kernel),
                regions=t.regions,
            )
        cores = [
            CoreResult(
                core_id=c.core_id,
                final_time=c.now,
                busy_cycles=c.busy_cycles,
                user_cycles=c.user_cycles,
                kernel_cycles=c.kernel_cycles,
            )
            for c in self.machine.cores
        ]
        self.kernel_counters.n_steals = self.scheduler.n_steals
        return RunResult(
            config=self.config,
            wall_cycles=self.machine.max_time(),
            threads=threads,
            cores=cores,
            kernel=self.kernel_counters,
            locks=self.locks.stats(),
            samples=self.perf.all_samples(),
            trace=self.trace,
        )


def _dispatch_resolve(
    table: dict, op: Any, message: str
) -> Callable[..., Any]:
    """Slow-path dispatch: find a handler up the op's MRO (so op subclasses
    work), memoize it under the concrete type, or fail like the seed did."""
    for cls in type(op).__mro__:
        fn = table.get(cls)
        if fn is not None:
            table[type(op)] = fn
            return fn
    raise SimulationError(message)


#: op type -> begin handler: the one dispatch per op (see Engine._step)
_BEGIN = {
    ops.Compute: Engine._begin_compute,
    ops.Rdtsc: Engine._begin_rdtsc,
    ops.Rdpmc: Engine._begin_rdpmc,
    ops.RdpmcDestructive: Engine._begin_rdpmc_destructive,
    ops.PmcReadBegin: Engine._begin_pmc_read_begin,
    ops.PmcReadEnd: Engine._begin_pmc_read_end,
    ops.LoadVAccum: Engine._begin_load_vaccum,
    ops.PmcSafeRead: Engine._begin_pmc_safe_read,
    ops.PmcUnsafeRead: Engine._begin_pmc_unsafe_read,
    ops.RegionBegin: Engine._begin_region_begin,
    ops.RegionEnd: Engine._begin_region_end,
    ops.LockAcquire: Engine._begin_lock_acquire,
    ops.LockRelease: Engine._begin_lock_release,
    ops.Syscall: Engine._begin_syscall_op,
    ops.SpawnThread: Engine._begin_spawn,
    ops.JoinThread: Engine._begin_join,
    ops.Sleep: Engine._begin_sleep,
    ops.YieldCpu: Engine._begin_yield,
}


def run_program(
    specs: list[ThreadSpec],
    config: SimConfig | None = None,
    lower: Callable[[], Any] | None = None,
) -> RunResult:
    """Convenience: build an engine, run the threads, return the results.

    ``lower`` opts into the compiled execution tier: a zero-argument
    callable returning a *fresh* equivalent build of the program (a spec
    list, or an object with ``.build()``). It must never return the live
    ``specs`` objects — see :meth:`Engine.run`. Results are bit-identical
    with and without it.
    """
    return Engine(config).run(specs, lower=lower)
