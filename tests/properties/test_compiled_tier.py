"""Compiled-tier equivalence: pre-lowered segment tables must be invisible.

The compiled execution tier (:mod:`repro.sim.compiled`) lowers thread
programs into flat prefix-sum tables and batch-commits verified spans of
predicted ops. Like macro-stepping it is a pure optimisation: every
simulated quantity must be bit-identical with the tier on or off, digested
here as ``RunResult.fingerprint()`` equality. The tests pin the three
load-bearing contracts:

* **lowering mirrors the walker** — the table's predicted op stream is
  exactly the lint walker's timeline, and every prefix array telescopes to
  the same per-phase floored accrual the interpreter would accumulate
  (re-derived independently from op fields here, not from the lowering);
* **the numpy and pure-python prefix builders agree to the element** (and
  the numpy path hands back plain ints, never numpy scalars);
* **fingerprint neutrality end to end** — direct runs, three real
  experiments across two seeds, the ``REPRO_COMPILED_TIER=0`` kill
  switch, and serial vs four-worker pooled execution,

plus positive engagement checks (tables lowered, segments batched, zero
divergences on an exactly-predicted program) so a silently-dead tier
cannot pass as "equivalent".
"""

import dataclasses

import pytest

from repro import fabric
from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.experiments.base import single_core_config
from repro.hw.events import KERNEL_RATES, LIBRARY_RATES
from repro.lint.walker import walk_program
from repro.sim import compiled, ops
from repro.sim.engine import run_program
from repro.sim.program import ThreadSpec

from tests.conftest import SIMPLE_RATES

EXPERIMENT_FACTORIES = [
    (
        "repro.experiments.e02_overhead_density.density_trial",
        {"total": 200_000, "density": 16, "technique": "limit"},
    ),
    (
        "repro.experiments.e03_precision.PrecisionTrial",
        {"reps": 2, "arm": "sample", "period": 50_000},
    ),
    (
        "repro.experiments.e13_multiplexing.LimitTrial",
        {"n_phases": 4, "phase_cycles": 200_000},
    ),
]
SEEDS = [11, 4242]


def _mixed_program(ctx):
    """Result-independent program mixing every batchable kind with region
    markers; long enough (122 ops) to engage the numpy prefix path."""
    yield ops.RegionBegin("hot")
    for i in range(40):
        yield ops.Compute(1_000 + 7 * i, SIMPLE_RATES)
        yield ops.Rdtsc()
        yield ops.Syscall("work", (500 + 13 * i,))
    yield ops.RegionEnd()


def _specs():
    return [ThreadSpec("mixed", _mixed_program)]


# -- lowering mirrors the walker --------------------------------------------


def test_lowered_tables_replay_walker_timelines():
    """The table's predicted stream is the walker's timeline, op for op,
    under the engine's tid base — and matches by the tier's own run-time
    comparison at every position."""
    config = SimConfig()
    tbl = compiled.lower_program(_specs, config).tables["mixed"]
    (walked,) = walk_program(_specs(), config, first_tid=1).threads
    assert tbl.tid == walked.tid == 1
    assert not tbl.truncated
    assert len(tbl.ops) == len(walked.ops) == 122
    for fetched, pred, kind in zip(walked.ops, tbl.ops, tbl.kinds):
        assert compiled.op_matches(fetched, pred, kind)
    # every op here lowers: regions + computes + rdtsc + work syscalls
    assert tbl.n_lowerable() == len(tbl.ops)
    assert tbl.seg_end[0] == len(tbl.ops)


def _expected_deltas(o, costs):
    """Independently re-derive one op's exact accrual: (user cycles, kernel
    cycles, {event index: user events}, {event index: kernel events}),
    flooring per phase exactly as the interpreter's accountant does."""
    t = type(o)
    if t is ops.Compute:
        eu = {
            idx: (o.cycles * ppm) // 1_000_000
            for _event, ppm, idx in o.rates.flat
        }
        return o.cycles, 0, eu, {}
    if t is ops.Rdtsc:
        eu = {
            idx: (costs.rdtsc * ppm) // 1_000_000
            for _event, ppm, idx in LIBRARY_RATES.flat
        }
        return costs.rdtsc, 0, eu, {}
    if t is ops.Syscall and o.name == "work":
        phases = (costs.syscall_entry, o.args[0], costs.syscall_exit)
        ek: dict[int, int] = {}
        for phase_cycles in phases:
            for _event, ppm, idx in KERNEL_RATES.flat:
                ek[idx] = ek.get(idx, 0) + (phase_cycles * ppm) // 1_000_000
        return 0, sum(phases), {}, ek
    return 0, 0, {}, {}  # regions and breakers accrue nothing


def test_prefix_tables_telescope_to_per_phase_accounting():
    config = SimConfig()
    tbl = compiled.lower_program(_specs, config).tables["mixed"]
    costs = config.machine.costs
    for i, o in enumerate(tbl.ops):
        user_cyc, kern_cyc, eu, ek = _expected_deltas(o, costs)
        assert tbl.cu[i + 1] - tbl.cu[i] == user_cyc, (i, o)
        assert tbl.ck[i + 1] - tbl.ck[i] == kern_cyc, (i, o)
        assert tbl.cyc[i + 1] - tbl.cyc[i] == user_cyc + kern_cyc, (i, o)
        for idx, arr in tbl.eu.items():
            assert arr[i + 1] - arr[i] == eu.get(idx, 0), (i, o, idx)
        for idx, arr in tbl.ek.items():
            assert arr[i + 1] - arr[i] == ek.get(idx, 0), (i, o, idx)
        # no nonzero expected accrual may be missing from the tables
        for idx, value in eu.items():
            assert value == 0 or idx in tbl.eu, (i, o, idx)
        for idx, value in ek.items():
            assert value == 0 or idx in tbl.ek, (i, o, idx)


# -- numpy / pure-python builder agreement -----------------------------------


@pytest.mark.skipif(compiled._np is None, reason="numpy unavailable")
def test_numpy_and_python_prefix_builders_agree(monkeypatch):
    config = SimConfig()
    monkeypatch.setenv("REPRO_COMPILED_NUMPY", "1")
    assert compiled.numpy_enabled()
    vec = compiled.lower_program(_specs, config).tables["mixed"]
    monkeypatch.setenv("REPRO_COMPILED_NUMPY", "0")
    assert not compiled.numpy_enabled()
    ref = compiled.lower_program(_specs, config).tables["mixed"]
    assert vec.cyc == ref.cyc
    assert vec.cu == ref.cu
    assert vec.ck == ref.ck
    assert vec.eu == ref.eu
    assert vec.ek == ref.ek
    assert vec.seg_end == ref.seg_end
    assert vec.bhead == ref.bhead
    # the runtime arrays must hold plain ints (no numpy scalars leaking
    # into accounting, where they would survive into result fingerprints)
    assert all(type(v) is int for v in vec.cyc)
    for arr in (*vec.eu.values(), *vec.ek.values()):
        assert all(type(v) is int for v in arr)


# -- fingerprint neutrality --------------------------------------------------


def test_tier_engages_and_is_fingerprint_neutral_direct():
    """An exactly-predictable program: the tier must batch real segments
    with zero divergences, and change nothing observable."""
    config = SimConfig(
        machine=MachineConfig(n_cores=1),
        kernel=KernelConfig(timeslice_cycles=50_000),
        seed=7,
    )
    on = run_program(_specs(), config, lower=_specs)
    assert on.metrics.get("compiled_tables", 0) == 1
    assert on.metrics.get("compiled_segments", 0) > 0
    assert on.metrics.get("compiled_ops", 0) > 0
    assert on.metrics.get("compiled_divergences", 0) == 0
    off = run_program(
        _specs(),
        dataclasses.replace(config, compiled_tier=False),
        lower=_specs,
    )
    assert off.metrics.get("compiled_segments", 0) == 0
    assert on.fingerprint() == off.fingerprint()


def test_kill_switch_env_var_disables_tier(monkeypatch):
    config = SimConfig(
        machine=MachineConfig(n_cores=1),
        kernel=KernelConfig(timeslice_cycles=50_000),
        seed=7,
    )
    on = run_program(_specs(), config, lower=_specs)
    monkeypatch.setenv("REPRO_COMPILED_TIER", "0")
    off = run_program(_specs(), config, lower=_specs)
    assert off.metrics.get("compiled_tables", 0) == 0
    assert off.metrics.get("compiled_segments", 0) == 0
    assert on.fingerprint() == off.fingerprint()


@pytest.mark.parametrize("workload,kwargs", EXPERIMENT_FACTORIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_experiment_fingerprints_equal_tier_on_off(workload, kwargs, seed):
    """Whole-experiment shapes: tier on and off must agree bit for bit."""
    fingerprints = {}
    for tier in (True, False):
        config = dataclasses.replace(
            single_core_config(seed=seed), compiled_tier=tier
        )
        job = fabric.RunJob(workload=workload, config=config, kwargs=kwargs)
        (outcome,) = fabric.run_many([job], jobs_n=1, cache=None)
        fingerprints[tier] = outcome.result.fingerprint()
    assert fingerprints[True] == fingerprints[False]


def test_pooled_and_serial_fingerprints_agree_tier_on():
    """The same job list serial and over four workers: per-job fingerprints
    identical, and the tier genuinely lowered tables along the way."""
    jobs = [
        fabric.RunJob(
            workload=workload,
            config=single_core_config(seed=seed),
            kwargs=kwargs,
            label=f"{workload.rsplit('.', 1)[1]}:{seed}",
        )
        for workload, kwargs in EXPERIMENT_FACTORIES
        for seed in SEEDS
    ]
    serial = fabric.run_many(jobs, jobs_n=1, cache=None)
    pooled = fabric.run_many(jobs, jobs_n=4, cache=None)
    assert len(serial) == len(pooled) == len(jobs)
    for a, b in zip(serial, pooled):
        assert a.result.fingerprint() == b.result.fingerprint(), a.job.label
    lowered = sum(
        o.result.metrics.get("compiled_tables", 0) for o in serial
    )
    assert lowered > 0


# -- PR 8: lock pairs, safe-read spans, forks, lazy lowering ------------------


def _locked_reader_specs():
    """Uncontended lock pairs + composite safe reads interleaved with every
    previously-batchable kind: the widened lowering must cover the whole
    stream."""
    from repro.core.limit import LimitSession
    from repro.hw.events import Event

    session = LimitSession([Event.CYCLES, Event.INSTRUCTIONS])

    def locker(ctx):
        yield from session.setup(ctx)
        for i in range(30):
            yield ops.LockAcquire("m")
            yield ops.Compute(400 + 3 * i, SIMPLE_RATES)
            yield ops.LockRelease("m")
            yield ops.Compute(300, SIMPLE_RATES)
            value = yield from session.read(ctx, 0)
            assert value >= 0
            yield ops.Rdtsc()
            yield ops.Syscall("work", (200,))

    return [ThreadSpec("locker", locker)]


def test_lock_and_read_lowering_matches_walker():
    """Lock pairs and whole safe reads lower with the walker's op stream
    and the interpreter's exact per-op costs."""
    config = SimConfig()
    costs = config.machine.costs
    tbl = compiled.lower_program(_locked_reader_specs, config).tables["locker"]
    (walked,) = walk_program(
        _locked_reader_specs(), config, first_tid=1
    ).threads
    assert len(tbl.ops) == len(walked.ops)
    for fetched, pred, kind in zip(walked.ops, tbl.ops, tbl.kinds):
        assert compiled.op_matches(fetched, pred, kind)
    kinds = list(tbl.kinds)
    assert compiled.K_LACQ in kinds and compiled.K_LREL in kinds
    assert compiled.K_SREAD in kinds
    read_total = (
        costs.pmc_call_overhead + costs.pmc_read_begin + costs.pmc_load_accum
        + costs.rdpmc + costs.pmc_read_end + costs.pmc_store_result
    )
    for i, kind in enumerate(kinds):
        if kind in (compiled.K_LACQ, compiled.K_LREL):
            assert tbl.cyc[i + 1] - tbl.cyc[i] == costs.cas
            assert tbl.ck[i + 1] - tbl.ck[i] == 0
        elif kind == compiled.K_SREAD:
            assert tbl.cyc[i + 1] - tbl.cyc[i] == read_total
            assert tbl.ck[i + 1] - tbl.ck[i] == 0


def test_lock_and_read_batching_engages_and_is_fingerprint_neutral():
    """Uncontended pairs and safe reads batch as real segments (no
    divergences on an exactly-predicted program) and change nothing."""
    config = single_core_config(seed=7, timeslice=200_000)
    on = run_program(
        _locked_reader_specs(), config, lower=_locked_reader_specs
    )
    assert on.metrics.get("compiled_segments", 0) > 0
    assert on.metrics.get("compiled_ops", 0) >= 150
    assert on.metrics.get("compiled_divergences", 0) == 0
    off = run_program(
        _locked_reader_specs(),
        dataclasses.replace(config, compiled_tier=False),
        lower=_locked_reader_specs,
    )
    assert off.metrics.get("compiled_segments", 0) == 0
    assert on.fingerprint() == off.fingerprint()


def test_contended_lock_bails_to_interpreter_exactly():
    """Two threads preempted mid-critical-section on one core: contended
    acquires must leave the batch (``compiled_contended``) and replay the
    spin/futex protocol identically to the uncompiled engine — LockStats
    are fingerprinted, so equality proves the handoff is exact."""

    def build():
        def worker(ctx):
            for _ in range(60):
                yield ops.LockAcquire("hot")
                yield ops.Compute(2_000, SIMPLE_RATES)
                yield ops.LockRelease("hot")
                yield ops.Compute(500, SIMPLE_RATES)
                yield ops.Rdtsc()
                yield ops.Syscall("work", (150,))

        return [ThreadSpec(f"w{i}", worker) for i in range(2)]

    config = single_core_config(seed=11, timeslice=20_000)
    on = run_program(build(), config, lower=build)
    off = run_program(
        build(), dataclasses.replace(config, compiled_tier=False), lower=build
    )
    assert on.fingerprint() == off.fingerprint()
    assert on.metrics.get("compiled_segments", 0) > 0
    assert on.metrics.get("fastpath_bailout.compiled_contended", 0) > 0


def test_fault_plan_hard_off_batches_nothing_tier_on_or_off():
    """Fault timing depends on interpreted op boundaries, so a fault plan
    disables lowering entirely: under a benign forced-bailout plan the
    lock+read program batches zero segments with the tier configured on
    or off and stays fingerprint-identical, while the same program
    without the plan does batch (so the check is not vacuous)."""
    from repro.faults.plan import FaultPlan, force_bailout

    plan = FaultPlan((force_bailout(),), label="bailout-benign")
    runs = {}
    for tier in (True, False):
        for faulted in (True, False):
            config = dataclasses.replace(
                single_core_config(seed=23, timeslice=200_000),
                compiled_tier=tier,
            )
            if faulted:
                config = config.with_faults(plan)
            runs[tier, faulted] = run_program(
                _locked_reader_specs(), config, lower=_locked_reader_specs
            )
    for tier in (True, False):
        assert runs[tier, True].metrics.get("compiled_segments", 0) == 0
    assert runs[True, True].fingerprint() == runs[False, True].fingerprint()
    assert runs[True, False].metrics.get("compiled_segments", 0) > 0

def _forked_specs(bank_credit):
    """A ``wait_key`` whose result depends on whether a credit was banked:
    True (consumed without blocking) takes the alternate continuation,
    0/False follows the stub walk's main prediction."""

    def t(ctx):
        if bank_credit:
            yield ops.Syscall("wake_key", ("k", 1))
        for i in range(8):
            yield ops.Compute(500, SIMPLE_RATES)
            yield ops.Rdtsc()
            yield ops.Syscall("work", (200,))
        got = yield ops.Syscall("wait_key", ("k", ))
        if got:
            for i in range(10):
                yield ops.Compute(700, SIMPLE_RATES)
                yield ops.Rdtsc()
                yield ops.Syscall("work", (300,))
        else:
            for i in range(10):
                yield ops.Compute(111, SIMPLE_RATES)
                yield ops.Rdtsc()
                yield ops.Syscall("work", (100,))

    def waker(ctx):
        yield ops.Compute(30_000, SIMPLE_RATES)
        if not bank_credit:
            yield ops.Syscall("wake_key", ("k", 1))

    return [ThreadSpec("forked", t), ThreadSpec("waker", waker)]


@pytest.mark.parametrize("bank_credit", [True, False])
def test_fork_selection_under_both_result_values(bank_credit):
    """Both sides of a two-valued fork point stay compiled: the alternate
    (credit consumed -> True) switches to the fork table, the main
    (blocked-then-woken -> False, matching the stub's falsy 0) continues
    in place — either way with zero divergences and bit-exact results."""
    config = single_core_config(seed=3, timeslice=200_000)

    def build():
        return _forked_specs(bank_credit)

    on = run_program(build(), config, lower=build)
    off = run_program(
        build(), dataclasses.replace(config, compiled_tier=False), lower=build
    )
    assert on.fingerprint() == off.fingerprint()
    assert on.metrics.get("compiled_divergences", 0) == 0
    assert on.metrics.get("compiled_ops", 0) > 0
    if bank_credit:
        assert on.metrics.get("compiled_forks", 0) == 1
    else:
        assert on.metrics.get("compiled_forks", 0) == 0
        assert on.metrics.get("fastpath_bailout.compiled_fork_miss", 0) == 0


def _lazy_spawn_specs():
    """Spawn order that disagrees with the eager walk's breadth-first tid
    assignment (sp-b's leaf clones long before sp-a's), so the spawned
    leaves can only be served by lazy clone-time lowering."""

    def leaf(tag):
        def f(ctx):
            for i in range(15):
                yield ops.Compute(400, SIMPLE_RATES)
                yield ops.Rdtsc()
                yield ops.Syscall("work", (150,))

        return f

    def spawner(tag, delay):
        def f(ctx):
            yield ops.Compute(delay, SIMPLE_RATES)
            yield ops.SpawnThread(factory=leaf(tag), name="leaf-" + tag)

        return f

    def root(ctx):
        yield ops.SpawnThread(factory=spawner("a", 120_000), name="sp-a")
        yield ops.SpawnThread(factory=spawner("b", 1_000), name="sp-b")
        yield ops.Compute(200, SIMPLE_RATES)

    return [ThreadSpec("root", root)]


def test_lazy_clone_time_lowering_engages_and_is_fingerprint_neutral(
    monkeypatch,
):
    """Mid-run spawns whose tids diverge from the eager walk get tables
    lowered at clone time; with the lazy path capped to zero they simply
    interpret — both bit-identical to the tier-off run."""
    from repro.common.config import KernelConfig, MachineConfig
    from repro.sim import engine as engine_mod

    config = SimConfig(
        machine=MachineConfig(n_cores=2),
        kernel=KernelConfig(timeslice_cycles=50_000),
        seed=5,
    )
    lazy = run_program(_lazy_spawn_specs(), config, lower=_lazy_spawn_specs)
    assert lazy.metrics.get("compiled_lazy_tables", 0) == 2
    assert lazy.metrics.get("compiled_divergences", 0) == 0
    monkeypatch.setattr(engine_mod, "LAZY_LOWER_CAP", 0)
    eager_only = run_program(
        _lazy_spawn_specs(), config, lower=_lazy_spawn_specs
    )
    assert eager_only.metrics.get("compiled_lazy_tables", 0) == 0
    monkeypatch.undo()
    off = run_program(
        _lazy_spawn_specs(),
        dataclasses.replace(config, compiled_tier=False),
        lower=_lazy_spawn_specs,
    )
    assert lazy.fingerprint() == eager_only.fingerprint() == off.fingerprint()


@pytest.mark.parametrize("workload,kwargs", EXPERIMENT_FACTORIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_experiment_fingerprints_equal_lazy_on_off(
    workload, kwargs, seed, monkeypatch
):
    """Whole-experiment invariance of the lazy clone-time path: capping it
    to zero must change nothing observable."""
    from repro.sim import engine as engine_mod

    fingerprints = {}
    for cap in (64, 0):
        monkeypatch.setattr(engine_mod, "LAZY_LOWER_CAP", cap)
        config = single_core_config(seed=seed)
        job = fabric.RunJob(workload=workload, config=config, kwargs=kwargs)
        (outcome,) = fabric.run_many([job], jobs_n=1, cache=None)
        fingerprints[cap] = outcome.result.fingerprint()
    assert fingerprints[64] == fingerprints[0]
