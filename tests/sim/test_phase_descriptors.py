"""Interned phase descriptors against the accrual oracles.

The engine runs a whole fixed-cost phase as one lookup in its PMU's phase
memo plus integer adds, and defers the phase's non-CYCLES ground truth as
a per-thread count. These tests check every interned descriptor of an
engine against the reference arithmetic — ``events_in`` for ground truth,
``Pmu.accrue_phase`` for counter adds and ``Pmu.cycles_to_next_overflow``
for the overflow split point — under user-only, kernel-only and
both-domain counters, narrow counters one event short of wrapping and
with a region open; and they check that every read of a non-CYCLES slot
(rdpmc, the safe-read fast path, perf_read) folds the deferred counts
first, so recorded truth equals the closed-form sum.
"""

from __future__ import annotations

import pytest

from repro.common.config import KernelConfig, MachineConfig, PmuConfig, SimConfig
from repro.hw.events import (
    LIBRARY_RATES,
    N_EVENTS,
    Event,
    events_in,
)
from repro.hw.pmu import Pmu
from repro.kernel.vpmu import SlotSpec
from repro.sim.engine import Engine, _Phase
from repro.sim.ops import (
    Compute,
    JoinThread,
    LockAcquire,
    LockRelease,
    PmcSafeRead,
    Rdpmc,
    Rdtsc,
    Sleep,
    SpawnThread,
    Syscall,
    YieldCpu,
)
from repro.sim.program import ThreadSpec
from repro.sim.results import RegionTruth

from tests.conftest import SIMPLE_RATES

CONFIG = SimConfig(
    machine=MachineConfig(n_cores=2),
    kernel=KernelConfig(timeslice_cycles=1_000_000),
    seed=7,
)

#: counter programmings: (event, count_user, count_kernel) per counter
PROGRAMMINGS = {
    "user-only": [(Event.CYCLES, True, False), (Event.INSTRUCTIONS, True, False)],
    "kernel-only": [(Event.INSTRUCTIONS, False, True), (Event.LLC_MISSES, False, True)],
    "both-domains": [
        (Event.CYCLES, True, True),
        (Event.BRANCHES, True, True),
        (Event.STALL_CYCLES, True, True),
        (Event.INSTRUCTIONS, True, False),
    ],
}


def _busy_program(ctx):
    """Touches every kind of interned phase: locks (with contention, so
    spin and futex bodies run), reads, fixed syscall bodies, spawn/join,
    sleep and yield."""
    yield Syscall("getpid", ())
    idx = yield Syscall("pmc_open", (SlotSpec(Event.CYCLES),))
    for _ in range(3):
        yield LockAcquire("m")
        yield Compute(30_000, SIMPLE_RATES)
        yield LockRelease("m")
        yield PmcSafeRead(idx)
        yield Rdtsc()
    child = yield SpawnThread(_contender, "child")
    yield Sleep(5_000)
    yield YieldCpu()
    yield JoinThread(child)
    yield Syscall("wake_key", ("k", 1))
    yield Syscall("wait_key", ("k",))
    yield Syscall("pmc_close", (idx,))


def _contender(ctx):
    for _ in range(3):
        yield LockAcquire("m")
        yield Compute(40_000, SIMPLE_RATES)
        yield LockRelease("m")


@pytest.fixture(scope="module")
def engine() -> Engine:
    # a short timeslice, so timer ticks and context switches run too
    eng = Engine(SimConfig(
        machine=MachineConfig(n_cores=2),
        kernel=KernelConfig(timeslice_cycles=20_000),
        seed=7,
    ))
    eng.run([
        ThreadSpec("main", _busy_program),
        ThreadSpec("peer", _contender),
    ])
    return eng


def _interned(engine: Engine) -> list[_Phase]:
    phases = {
        id(ph): ph for ph in vars(engine).values() if isinstance(ph, _Phase)
    }
    for ph in engine._kphases.values():
        phases[id(ph)] = ph
    for seq in (engine._safe_read, engine._unsafe_read, engine._spin_round):
        for ph in seq.part_a + seq.part_b:
            phases[id(ph)] = ph
    return sorted(phases.values(), key=lambda p: (p.domain.value, p.cycles))


def _programmed_pmu(programming, width: int = 48) -> Pmu:
    pmu = Pmu(PmuConfig(n_counters=4, counter_width=width))
    for ctr, (event, user, kernel) in zip(pmu.counters, programming):
        ctr.program(event, user, kernel)
    return pmu


def test_every_fixed_cost_is_interned(engine):
    phases = _interned(engine)
    costs = CONFIG.machine.costs
    kernel = {ph.cycles for ph in phases if not ph.user}
    # syscall entry/exit, futex bodies, fixed syscall bodies, switch paths
    assert {
        costs.syscall_entry,
        costs.syscall_exit,
        costs.syscall_entry + costs.futex_wait_kernel,
        costs.syscall_entry + costs.futex_wake_kernel,
        costs.timer_tick,
        150, 400, 900, 1_100, 2_600, 600,
    } <= kernel
    user = {ph.cycles for ph in phases if ph.user}
    assert {costs.cas, costs.rdtsc, costs.rdpmc, costs.spin_quantum} <= user
    assert all(ph.interned for ph in phases)


def test_ground_truth_deltas_match_events_in(engine):
    for ph in _interned(engine):
        want = tuple(
            (event.index, events_in(0, ph.cycles, ppm))
            for event, ppm in ph.rates.items()
            if events_in(0, ph.cycles, ppm)
        )
        assert ph.deltas == want, ph
        assert all(idx != Event.CYCLES.index for idx, _ in ph.deltas)


@pytest.mark.parametrize("name", sorted(PROGRAMMINGS))
def test_counter_adds_match_accrue_phase(engine, name):
    for ph in _interned(engine):
        pmu = _programmed_pmu(PROGRAMMINGS[name])
        adds = engine._resolve(pmu, ph)
        before = [c.value for c in pmu.counters]
        assert pmu.accrue_phase(ph.rates, ph.domain, 0, ph.cycles) == []
        moved = {
            id(c): c.value - v for c, v in zip(pmu.counters, before)
            if c.value != v
        }
        assert {id(c): n for c, _limit, n in adds} == moved, (name, ph)
        for ctr, limit, n in adds:
            assert limit == ctr.mask - n
        # the memo serves the same resolution until the programming changes
        assert pmu.memo[ph] is adds
        pmu.counters[0].deprogram()
        assert ph not in pmu.memo


@pytest.mark.parametrize("name", sorted(PROGRAMMINGS))
def test_headroom_is_the_overflow_split_point(engine, name):
    """A counter at its headroom limit cannot cross in the whole window;
    one event more and the first crossing falls inside it."""
    for ph in _interned(engine):
        pmu = _programmed_pmu(PROGRAMMINGS[name], width=16)
        for ctr, limit, _n in engine._resolve(pmu, ph):
            for other in pmu.counters:
                other.value = 0
            ctr.value = limit
            split = pmu.cycles_to_next_overflow(ph.rates, ph.domain, 0)
            assert split is None or split > ph.cycles, (name, ph)
            ctr.value = limit + 1
            split = pmu.cycles_to_next_overflow(ph.rates, ph.domain, 0)
            assert split is not None and split <= ph.cycles, (name, ph)


def _solo_thread(engine: Engine):
    def idle(ctx):
        return
        yield  # pragma: no cover

    thread = engine._create_thread(idle, "probe", at=0)
    core = engine.machine.cores[0]
    return core, thread


@pytest.mark.parametrize("name", sorted(PROGRAMMINGS))
def test_narrow_counter_one_event_short_refuses_the_whole_phase(name):
    """At 8 bits with any one counter one event short of wrapping, the
    whole phase path must leave everything untouched for the splitting
    path — also when counters before it in the phase's adds were already
    added to and have to be taken back."""
    config = SimConfig(
        machine=MachineConfig(n_cores=1, pmu=PmuConfig(counter_width=8)),
        seed=1,
    )
    eng = Engine(config)
    core, thread = _solo_thread(eng)
    for ctr, (event, user, kernel) in zip(core.pmu.counters, PROGRAMMINGS[name]):
        ctr.program(event, user, kernel)
    undone = 0
    for ph in _interned(eng):
        adds = eng._resolve(core.pmu, ph)
        for k, (short, _limit, _n) in enumerate(adds):
            for ctr in core.pmu.counters:
                ctr.value = 0
            short.value = short.mask  # one event short of wrapping
            state = (core.now, thread.user_cycles, thread.kernel_cycles,
                     [c.value for c in core.pmu.counters], dict(thread.pending))
            assert not eng._run_whole(core, thread, ph)
            assert state == (core.now, thread.user_cycles, thread.kernel_cycles,
                             [c.value for c in core.pmu.counters],
                             dict(thread.pending))
            if all(limit >= 0 for _c, limit, _n in adds[:k]):
                undone += k
    if len(PROGRAMMINGS[name]) > 1:
        assert undone, "no case reached the undo of earlier adds"


def test_whole_phases_defer_and_fold_to_the_closed_form():
    eng = Engine(CONFIG)
    core, thread = _solo_thread(eng)
    phases = _interned(eng)
    for ph in phases:
        assert eng._run_whole(core, thread, ph)
        assert eng._run_whole(core, thread, ph)
    user = [0] * N_EVENTS
    kernel = [0] * N_EVENTS
    for ph in phases:
        tally = user if ph.user else kernel
        tally[Event.CYCLES.index] += 2 * ph.cycles
        for event, ppm in ph.rates.items():
            tally[event.index] += 2 * events_in(0, ph.cycles, ppm)
    # CYCLES is charged at once; everything else waits for a fold
    assert thread.ev_user[Event.CYCLES.index] == user[Event.CYCLES.index]
    assert thread.pending
    both = SlotSpec(Event.INSTRUCTIONS, count_user=True, count_kernel=True)
    want = user[Event.INSTRUCTIONS.index] + kernel[Event.INSTRUCTIONS.index]
    assert thread.slot_truth(both) == want
    assert not thread.pending
    assert thread.ev_user == user
    assert thread.ev_kernel == kernel


def test_region_open_charges_user_phases_eagerly():
    eng = Engine(CONFIG)
    core, thread = _solo_thread(eng)
    thread.region_stack.append("r")
    thread.regions["r"] = RegionTruth(name="r")
    thread.region_ev["r"] = [0] * N_EVENTS
    user = [ph for ph in _interned(eng) if ph.user]
    kernel = [ph for ph in _interned(eng) if not ph.user]
    for ph in user + kernel:
        assert eng._run_whole(core, thread, ph)
    want = [0] * N_EVENTS
    for ph in user:
        want[Event.CYCLES.index] += ph.cycles
        for event, ppm in ph.rates.items():
            want[event.index] += events_in(0, ph.cycles, ppm)
    # user events reached the region (and the thread) without a fold ...
    assert thread.region_ev["r"] == want
    assert thread.ev_user == want
    # ... kernel phases charged only cycles to the region, events deferred
    assert thread.regions["r"].kernel_cycles == sum(ph.cycles for ph in kernel)
    assert set(thread.pending) == set(kernel)


def _library_events(event: Event, *cycles: int) -> int:
    ppm = LIBRARY_RATES.ppm(event)
    return sum(events_in(0, c, ppm) for c in cycles)


def test_non_cycles_reads_see_folded_truth():
    """INSTRUCTIONS and BRANCHES slots read mid-run through rdpmc, the
    safe-read fast path and perf_read: each read's recorded truth equals
    both the value read and the closed-form sum of the phases between
    consecutive reads."""
    costs = CONFIG.machine.costs
    seen: dict[str, list[tuple[int, int]]] = {"rdpmc": [], "safe": [], "perf": []}

    def program(ctx):
        insn = yield Syscall("pmc_open", (SlotSpec(Event.INSTRUCTIONS),))
        br = yield Syscall("pmc_open", (SlotSpec(Event.BRANCHES),))
        fd = yield Syscall(
            "perf_open", (Event.INSTRUCTIONS, "count", 0, True, False)
        )
        slot = ctx._engine.perf.get(fd).slot
        thread = ctx.thread()
        for _ in range(4):
            yield LockAcquire("m")
            yield LockRelease("m")
            yield Rdtsc()
            yield Syscall("getpid", ())
            value = yield Rdpmc(insn)
            seen["rdpmc"].append((value, thread.last_rdpmc_truth))
            value = yield PmcSafeRead(br)
            seen["safe"].append((value, thread.last_rdpmc_truth))
            value = yield Syscall("perf_read", (fd,))
            seen["perf"].append((value, thread.last_kernel_read_truth[slot]))

    eng = Engine(CONFIG)
    eng.run([ThreadSpec("reader", program)])
    assert eng._fast_reads >= 4  # the safe reads took the one-piece path
    for name, pairs in seen.items():
        assert all(value == truth for value, truth in pairs), name
    safe_read = (
        costs.pmc_call_overhead, costs.pmc_read_begin, costs.pmc_load_accum,
        costs.rdpmc, costs.pmc_read_end, costs.pmc_store_result,
    )
    loop = (costs.cas, costs.cas, costs.rdtsc, costs.rdpmc) + safe_read
    step = {
        "rdpmc": _library_events(Event.INSTRUCTIONS, *loop),
        "safe": _library_events(Event.BRANCHES, *loop),
        "perf": _library_events(Event.INSTRUCTIONS, *loop),
    }
    for name, pairs in seen.items():
        truths = [truth for _value, truth in pairs]
        assert truths[0] > 0, name
        assert [b - a for a, b in zip(truths, truths[1:])] == [step[name]] * 3
