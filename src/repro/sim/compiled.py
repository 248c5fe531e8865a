"""Compiled execution tier: pre-lowered segment tables for thread programs.

The interpreted engine executes one op *piece* per :meth:`Engine._step` —
fetch, begin, per-chunk accounting, advance — and that per-op machinery
dominates sweep wall time once macro-stepping has removed the per-quantum
cost of long solo phases. This module adds a second tier in the spirit of
nanoBench: *lower* a thread program once into flat per-op arrays (cycle
costs and exact per-event accrual deltas as prefix sums), then let the
engine batch-execute whole spans of predicted ops with a handful of integer
adds instead of the full interpreter loop.

Lowering reuses the lint walker front end (:mod:`repro.lint.walker`): the
program's generators are driven against stub contexts — over a **fresh
throwaway build** of the workload, never the live objects a run will use
(walking live session/lock/queue state would corrupt it; see
:mod:`repro.lint.gate` for the same rule) — producing per-thread predicted
op timelines. Because stub results differ from real ones, the predicted
stream is a *hint*, not ground truth: at run time the engine verifies every
fetched op against its prediction and bails to the interpreter on any
divergence, so a wrong table can cost speed but never correctness.

What gets batched (everything else is a segment breaker):

* ``Compute`` — one user phase of ``op.cycles`` at ``op.rates``;
* ``Rdtsc`` — one user phase of ``costs.rdtsc`` at ``LIBRARY_RATES``
  (result: core time after the op, known in advance within a batch);
* ``Syscall("work", (cycles,))`` — three non-preemptible kernel phases
  (entry / body / exit), each accruing from its own cycle 0;
* ``RegionBegin`` / ``RegionEnd`` — zero-cycle bookkeeping, replayed
  exactly (only while no instrumenting profiler is attached, since the
  profiler hook changes their cost and ordering side effects);
* ``LockAcquire`` / ``LockRelease`` — the predicted-uncontended CAS phase
  (``costs.cas`` at ``LIBRARY_RATES``); the engine replays the take /
  release against live lock state and bails (``compiled_contended``) the
  moment the lock is held, owned elsewhere, or has sleepers to wake;
* ``PmcSafeRead`` / ``PmcUnsafeRead`` — the whole composite read protocol
  (the per-phase columns mirror the engine's ``_safe_read`` split); the
  value and ground-truth capture are executed live through the composite
  fast path at the exact mid-batch cycle, so a read inside a batch is
  bit-identical to the interpreter's one-piece read.

Two-valued results: some breaker ops have exactly two possible results —
``PmcReadEnd`` (interrupted or not) and ``Syscall("wait_key")`` (credit
consumed vs blocked-then-woken). For those the lowering *forks* the walk:
it replays the thread with the alternative result forced at that op and
lowers the diverging continuation into its own table, stored in
``ThreadTable.forks``. The engine picks the matching continuation when the
real result arrives (and bails ``compiled_fork_miss`` if neither matches).

Exactness rules (the bailout taxonomy) live in
:meth:`repro.sim.engine.Engine._compiled_batch`: a batch must fit strictly
inside the current timeslice, strictly below the main loop's actor horizon,
wrap no hardware counter, and never run with a PMI pending — every point
where exact interleaving matters falls back to the interpreted loop, which
is what keeps ``RunResult.fingerprint`` bit-identical tier-on vs tier-off.

Prefix tables are built with numpy when available (vectorized multiply /
floor-divide / cumsum over int64, then ``.tolist()`` so the runtime arrays
hold plain Python ints) and by an equivalent pure-python builder otherwise;
``REPRO_COMPILED_NUMPY=0`` forces the fallback for A/B testing.
"""

from __future__ import annotations

import os
import time
from itertools import accumulate
from typing import Any, Callable

from repro.common.config import CostModel, SimConfig
from repro.hw.events import KERNEL_RATES, LIBRARY_RATES
from repro.lint.walker import (
    DEFAULT_MAX_OPS,
    LintContext,
    ThreadWalk,
    _walk_thread,
    walk_program,
)
from repro.sim import ops

try:  # pragma: no cover - exercised via REPRO_COMPILED_NUMPY legs in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Bump on any change to lowering semantics or table layout; folded into the
#: fabric result-cache salt so compiled-tier entries can never collide with
#: entries produced by a different lowering. v2: lock-pair and composite
#: PMC-read lowering, two-valued prediction forks, lazy clone-time tables.
LOWER_VERSION = 2

#: Op kind codes. 0 is a segment breaker; nonzero kinds are batchable.
K_BREAK = 0
K_COMPUTE = 1
K_RDTSC = 2
K_WORK = 3
K_RBEGIN = 4
K_REND = 5
K_LACQ = 6
K_LREL = 7
K_SREAD = 8
K_UREAD = 9

#: Maximum two-valued prediction forks carried per thread table. Each fork
#: costs one extra replay walk at lowering time; prediction quality past the
#: first few forks is speculative anyway (the forked continuations compound).
MAX_FORKS = 4

#: Cap on lazily lowered clone-time tables per run: spawn-heavy programs
#: (spawn/join loops) would otherwise pay a full walk per clone forever.
LAZY_LOWER_CAP = 64

#: Minimum ops in a batch for the bulk commit to beat interpreting them.
MIN_BATCH = 3

#: How far ahead in the predicted stream to look when resynchronising
#: after a divergence (tolerates small insertions/deletions).
RESYNC_WINDOW = 4

#: Consecutive unmatched fetches after which a thread's table is dropped
#: (the prediction has wholesale diverged; stop paying the compare cost).
DEAD_AFTER = 64

#: Below this many ops the pure-python prefix builder wins (numpy array
#: round-trips have fixed cost); only consulted when numpy is available.
_NUMPY_MIN_OPS = 64


class ThreadTable:
    """One thread's lowered program: predicted ops plus prefix-sum tables.

    All prefix arrays have length ``n + 1`` with ``arr[0] == 0``, so the
    exact total over predicted ops ``[i, j)`` is ``arr[j] - arr[i]``:

    * ``cyc`` — cycles (all domains);
    * ``cu`` / ``ck`` — user / kernel cycles (== the CYCLES event tallies);
    * ``eu`` / ``ek`` — per ``Event.index``, user / kernel event deltas,
      computed per *phase* with the engine's running-floor arithmetic
      (``(cycles * ppm) // 1e6`` per phase, summed), so they telescope to
      exactly what per-chunk interpretation accrues.

    ``seg_end[i]`` is one past the last op of the contiguous batchable
    segment containing ``i`` (== ``i`` when op ``i`` is a breaker).

    ``bhead[i]`` is ``seg_end[i]`` when op ``i`` heads a batch worth
    attempting (a batchable run of at least ``MIN_BATCH`` ops) and 0
    otherwise. The fetch hot path consults only this array: non-head
    positions advance the cursor blindly, because prediction accuracy
    only ever matters where a batch could commit — every batched op is
    re-verified against the live stream during replay anyway.

    ``forks`` maps a breaker op's index to ``(main_value, alt_value,
    alt_table)``: when the live result of the op at that index equals
    ``alt_value`` rather than the walk's stub ``main_value``, the engine
    swaps to ``alt_table`` (the lowered diverging continuation, indexed
    from the op *after* the fork point) and continues predicting. None
    when the thread has no two-valued fork points.
    """

    __slots__ = (
        "name", "tid", "n", "ops", "kinds", "seg_end", "bhead",
        "cyc", "cu", "ck", "eu", "ek", "truncated", "forks",
    )

    def __init__(self, name: str, tid: int, ops_list: list,
                 kinds: list[int], seg_end: list[int],
                 cyc: list[int], cu: list[int], ck: list[int],
                 eu: dict[int, list[int]], ek: dict[int, list[int]],
                 truncated: bool) -> None:
        self.name = name
        self.tid = tid
        self.n = len(ops_list)
        self.ops = ops_list
        self.kinds = kinds
        self.seg_end = seg_end
        self.bhead = [
            e if k and e - i >= MIN_BATCH else 0
            for i, (k, e) in enumerate(zip(kinds, seg_end))
        ]
        self.cyc = cyc
        self.cu = cu
        self.ck = ck
        self.eu = eu
        self.ek = ek
        self.truncated = truncated
        self.forks: dict[int, tuple[Any, Any, "ThreadTable"]] | None = None

    def n_lowerable(self) -> int:
        return sum(1 for k in self.kinds if k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ThreadTable {self.name!r} tid={self.tid} n={self.n} "
            f"lowerable={self.n_lowerable()}>"
        )


class ProgramLowering:
    """Lowered tables for one program build, keyed by thread name.

    ``spawn_factories`` keeps the factory (and the walk's spawn-tid base)
    of every unambiguously named *spawned* thread, so the engine can lower
    a clone's table lazily — with the clone's **real** tid, and therefore
    the real seeded RandomStream — when the eagerly walked tid disagrees
    with the one the run actually assigns (interleaved mid-run spawns).
    """

    __slots__ = ("tables", "stats", "spawn_factories", "max_ops")

    def __init__(self, tables: dict[str, ThreadTable],
                 stats: dict[str, Any],
                 spawn_factories: dict[str, Any] | None = None,
                 max_ops: int = DEFAULT_MAX_OPS) -> None:
        self.tables = tables
        self.stats = stats
        self.spawn_factories = spawn_factories or {}
        self.max_ops = max_ops


class _Col:
    """One lowering column: every op's cycles for one (rates, domain,
    phase-slot) combination. Holding ``rates`` pins its id for the dict
    key; ``slot`` keeps an op's same-rates phases (e.g. the three kernel
    phases of a work syscall) in separate columns so each phase floors
    from its own cycle 0, exactly as the engine accrues them."""

    __slots__ = ("rates", "user", "cycles")

    def __init__(self, rates: Any, user: bool, n: int) -> None:
        self.rates = rates
        self.user = user
        self.cycles = [0] * n


def op_matches(op: Any, pred: Any, kind: int) -> bool:
    """Does a fetched op match its prediction closely enough to trust the
    table at this position?

    Batchable kinds compare every field the lowered accounting depends on.
    Breakers (kind 0) run fully interpreted, so only the op *type* (plus
    the syscall name) needs to line up for cursor tracking — their fields
    may legitimately differ from the stub-result walk (e.g. a dynamically
    computed ``Sleep`` duration) without invalidating what follows.
    """
    if type(op) is not type(pred):
        return False
    if kind == K_COMPUTE:
        return op.cycles == pred.cycles and (
            op.rates is pred.rates or op.rates.flat == pred.rates.flat
        )
    if kind == K_WORK:
        return op.name == pred.name and op.args == pred.args
    if kind == K_RBEGIN:
        return op.name == pred.name
    if kind == K_LACQ or kind == K_LREL:
        return op.lock == pred.lock
    if kind == K_SREAD or kind == K_UREAD:
        return op.index == pred.index
    if kind == K_BREAK and type(op) is ops.Syscall:
        return op.name == pred.name
    return True


def _classify(tw: ThreadWalk, costs: CostModel,
              kinds: list[int]) -> dict[tuple[int, bool, int], _Col]:
    """Fill ``kinds`` and return the per-(rates, domain, slot) cycle
    columns for one walked thread."""
    n = len(tw.ops)
    cols: dict[tuple[int, bool, int], _Col] = {}

    def col(rates: Any, user: bool, slot: int) -> list[int]:
        key = (id(rates), user, slot)
        c = cols.get(key)
        if c is None:
            c = cols[key] = _Col(rates, user, n)
        return c.cycles

    for i, o in enumerate(tw.ops):
        t = type(o)
        if t is ops.Compute:
            kinds[i] = K_COMPUTE
            if o.cycles:
                col(o.rates, True, 0)[i] = o.cycles
        elif t is ops.Rdtsc:
            kinds[i] = K_RDTSC
            col(LIBRARY_RATES, True, 0)[i] = costs.rdtsc
        elif (
            t is ops.Syscall
            and o.name == "work"
            and len(o.args) == 1
            and isinstance(o.args[0], int)
            and o.args[0] >= 0
        ):
            kinds[i] = K_WORK
            col(KERNEL_RATES, False, 0)[i] = costs.syscall_entry
            if o.args[0]:
                col(KERNEL_RATES, False, 1)[i] = int(o.args[0])
            col(KERNEL_RATES, False, 2)[i] = costs.syscall_exit
        elif t is ops.RegionBegin:
            kinds[i] = K_RBEGIN
        elif t is ops.RegionEnd:
            kinds[i] = K_REND
        elif t is ops.LockAcquire:
            # Predicted-uncontended acquire: just the CAS phase. The
            # contended spin/futex continuation is never lowered — the
            # engine bails to the interpreter when the lock is held.
            kinds[i] = K_LACQ
            col(LIBRARY_RATES, True, 0)[i] = costs.cas
        elif t is ops.LockRelease:
            # Predicted-no-sleepers release: the CAS phase; the futex-wake
            # kernel continuation bails to the interpreter.
            kinds[i] = K_LREL
            col(LIBRARY_RATES, True, 0)[i] = costs.cas
        elif t is ops.PmcSafeRead:
            # The whole composite safe-read protocol: six user library
            # phases, each flooring from its own cycle 0 (distinct slots),
            # mirroring the engine's ``_safe_read`` sequence split exactly.
            kinds[i] = K_SREAD
            for slot, cycles in enumerate((
                costs.pmc_call_overhead, costs.pmc_read_begin,
                costs.pmc_load_accum, costs.rdpmc,
                costs.pmc_read_end, costs.pmc_store_result,
            )):
                if cycles:
                    col(LIBRARY_RATES, True, slot)[i] = cycles
        elif t is ops.PmcUnsafeRead:
            kinds[i] = K_UREAD
            for slot, cycles in enumerate((
                costs.pmc_call_overhead, costs.pmc_load_accum,
                costs.rdpmc, costs.pmc_store_result,
            )):
                if cycles:
                    col(LIBRARY_RATES, True, slot)[i] = cycles
        # everything else stays K_BREAK
    return cols


def _prefixes_python(
    cols: dict[tuple[int, bool, int], _Col], n: int
) -> tuple[list[int], list[int], list[int],
           dict[int, list[int]], dict[int, list[int]]]:
    """Pure-python prefix builder (exact reference implementation)."""
    cu_d = [0] * n
    ck_d = [0] * n
    ev_d: dict[tuple[int, bool], list[int]] = {}
    for c in cols.values():
        # Columns are sparse (each holds one op kind's phase), so hoist the
        # nonzero pairs once and reuse them for the domain total and every
        # event rate — the dominant cost of numpy-free lowering otherwise.
        nz = [(i, v) for i, v in enumerate(c.cycles) if v]
        tgt = cu_d if c.user else ck_d
        for i, v in nz:
            tgt[i] += v
        for _event, ppm, idx in c.rates.flat:
            key = (idx, c.user)
            acc = ev_d.get(key)
            if acc is None:
                acc = ev_d[key] = [0] * n
            for i, v in nz:
                acc[i] += (v * ppm) // 1_000_000

    def pref(deltas: list[int]) -> list[int]:
        return list(accumulate(deltas, initial=0))

    cu = pref(cu_d)
    ck = pref(ck_d)
    cyc = [u + k for u, k in zip(cu, ck)]
    eu = {
        idx: pref(d) for (idx, user), d in ev_d.items() if user and any(d)
    }
    ek = {
        idx: pref(d) for (idx, user), d in ev_d.items() if not user and any(d)
    }
    return cyc, cu, ck, eu, ek


def _prefixes_numpy(
    cols: dict[tuple[int, bool, int], _Col], n: int
) -> tuple[list[int], list[int], list[int],
           dict[int, list[int]], dict[int, list[int]]]:
    """Vectorized prefix builder. int64 is exact here: per-phase cycles are
    bounded by max_cycles (~2e12) and ppm by 1e6, so products stay under
    2**63; ``.tolist()`` converts back to plain ints for the runtime."""
    cu_d = _np.zeros(n, dtype=_np.int64)
    ck_d = _np.zeros(n, dtype=_np.int64)
    ev_d: dict[tuple[int, bool], Any] = {}
    for c in cols.values():
        arr = _np.asarray(c.cycles, dtype=_np.int64)
        if c.user:
            cu_d += arr
        else:
            ck_d += arr
        for _event, ppm, idx in c.rates.flat:
            key = (idx, c.user)
            d = (arr * ppm) // 1_000_000
            if key in ev_d:
                ev_d[key] += d
            else:
                ev_d[key] = d

    def pref(deltas: Any) -> list[int]:
        out = _np.empty(n + 1, dtype=_np.int64)
        out[0] = 0
        _np.cumsum(deltas, out=out[1:])
        return out.tolist()

    cu = pref(cu_d)
    ck = pref(ck_d)
    cyc = pref(cu_d + ck_d)
    eu = {
        idx: pref(d) for (idx, user), d in ev_d.items() if user and d.any()
    }
    ek = {
        idx: pref(d)
        for (idx, user), d in ev_d.items()
        if not user and d.any()
    }
    return cyc, cu, ck, eu, ek


def cache_salt(config: SimConfig) -> tuple:
    """Compiled-tier component of content-addressed result-cache keys.

    Folds the lowering/table-format version and the *effective* tier switch
    (config flag AND the ``REPRO_COMPILED_TIER`` env override) into the key,
    so entries computed under one lowering can never be served to a run
    under another. The tier is fingerprint-neutral by design; this is
    defense in depth for the cache, not a correctness dependency.
    """
    enabled = bool(getattr(config, "compiled_tier", False)) and os.environ.get(
        "REPRO_COMPILED_TIER", "1"
    ) != "0"
    return ("compiled-tier", LOWER_VERSION, enabled)


def numpy_enabled() -> bool:
    """Whether the vectorized prefix builder is in use."""
    return _np is not None and os.environ.get(
        "REPRO_COMPILED_NUMPY", "1"
    ) != "0"


def lower_thread(tw: ThreadWalk, costs: CostModel) -> ThreadTable | None:
    """Lower one walked thread into a :class:`ThreadTable`.

    A thread whose walk errored still yields a usable table over the prefix
    it produced before the error (`walk.ops` only holds successfully
    yielded ops); a thread with no ops yields None.
    """
    n = len(tw.ops)
    if n == 0:
        return None
    kinds = [0] * n
    cols = _classify(tw, costs, kinds)
    if numpy_enabled() and n >= _NUMPY_MIN_OPS:
        cyc, cu, ck, eu, ek = _prefixes_numpy(cols, n)
    else:
        cyc, cu, ck, eu, ek = _prefixes_python(cols, n)
    seg_end = [0] * n
    for i in range(n - 1, -1, -1):
        if kinds[i]:
            if i + 1 < n and kinds[i + 1]:
                seg_end[i] = seg_end[i + 1]
            else:
                seg_end[i] = i + 1
        else:
            seg_end[i] = i
    return ThreadTable(
        tw.name, tw.tid, tw.ops, kinds, seg_end,
        cyc, cu, ck, eu, ek, tw.truncated,
    )


def _fork_alt(o: Any) -> tuple[bool, Any]:
    """Is this op a two-valued fork point, and if so what is the
    alternative to the walk's stub result?

    * ``PmcReadEnd`` — stub says True ("not interrupted"); the engine can
      also report False (the read was preempted: take the restart branch);
    * ``Syscall("wait_key")`` — stub says 0 (falsy, like the engine's
      blocked-then-woken False); the alternative is True (a banked credit
      was consumed without blocking).
    """
    t = type(o)
    if t is ops.PmcReadEnd:
        return True, False
    if t is ops.Syscall and o.name == "wait_key":
        return True, True
    return False, None


def _replay_walk(
    tw: ThreadWalk,
    config: SimConfig,
    max_ops: int,
    force_results: dict[int, Any],
) -> ThreadWalk:
    """Re-walk a thread from scratch with forced results at given indices.

    Reuses the original walk's factory and spawn-tid base so the replayed
    prefix (same stub discipline, same RandomStream) is op-for-op the
    recorded one up to the first forced index.
    """
    fw = ThreadWalk(
        name=tw.name, tid=tw.tid, spawned_by=tw.spawned_by,
        factory=tw.factory, spawn_tid_base=tw.spawn_tid_base,
    )
    ctx = LintContext(tw.name, tw.tid, config)
    _walk_thread(
        fw, tw.factory, ctx, config, max_ops,
        spawn_queue=[], spawn_tid_base=tw.spawn_tid_base,
        force_results=force_results,
    )
    return fw


def attach_forks(
    tbl: ThreadTable,
    tw: ThreadWalk,
    costs: CostModel,
    config: SimConfig,
    max_ops: int,
) -> int:
    """Fork the prediction at up to MAX_FORKS two-valued ops.

    For each fork point the thread is replayed with the alternative result
    forced at that index; the diverging continuation (ops after the fork)
    is lowered into its own table, stored in ``tbl.forks``. A replay whose
    prefix fails to reproduce the recorded one (a nondeterministic factory)
    simply records no fork — the run-time verifier covers correctness
    either way. Alt tables never fork again (no nested speculation).
    """
    if tw.factory is None:
        return 0
    forks: dict[int, tuple[Any, Any, ThreadTable]] = {}
    for f, o in enumerate(tw.ops):
        is_fork, alt = _fork_alt(o)
        if not is_fork:
            continue
        fw = _replay_walk(tw, config, max_ops, {f: alt})
        if len(fw.ops) <= f or type(fw.ops[f]) is not type(o):
            continue  # replay did not reproduce the prefix
        cont = ThreadWalk(
            name=tw.name, tid=tw.tid, spawned_by=tw.spawned_by,
            ops=fw.ops[f + 1:], results=fw.results[f + 1:],
            truncated=fw.truncated,
        )
        alt_tbl = lower_thread(cont, costs)
        if alt_tbl is not None:
            forks[f] = (tw.results[f], alt, alt_tbl)
        if len(forks) >= MAX_FORKS:
            break
    if forks:
        tbl.forks = forks
    return len(forks)


def lower_spawned(
    lowering: ProgramLowering,
    name: str,
    tid: int,
    config: SimConfig,
) -> ThreadTable | None:
    """Lazily lower one spawned thread's table at clone time.

    Called by the engine when a mid-run spawn's tid disagrees with the tid
    the eager walk assigned (so the eager table — whose RandomStream was
    seeded with the walked tid — would mispredict every drawn value). The
    walk runs with the clone's *real* tid under a throwaway observation
    scope, exactly like :func:`walk_program` does.
    """
    entry = lowering.spawn_factories.get(name)
    if entry is None:
        return None
    from repro.obs import runtime as obs_runtime

    factory, _eager_base = entry
    max_ops = lowering.max_ops
    # Replays (the main lazy walk and its fork walks) must share one base
    # so their prefixes line up; the engine's true next-tid at future spawn
    # points is unknowable here, and only breaker op fields depend on it.
    tw = ThreadWalk(
        name=name, tid=tid, factory=factory, spawn_tid_base=tid + 1,
    )
    ctx = LintContext(name, tid, config)
    with obs_runtime.collect(label="lint-walk"):
        _walk_thread(
            tw, factory, ctx, config, max_ops,
            spawn_queue=[], spawn_tid_base=tw.spawn_tid_base,
        )
        costs = config.machine.costs
        tbl = lower_thread(tw, costs)
        if tbl is not None:
            attach_forks(tbl, tw, costs, config, max_ops)
    return tbl


def lower_program(
    build: Callable[[], Any],
    config: SimConfig | None = None,
    max_ops: int = DEFAULT_MAX_OPS,
) -> ProgramLowering:
    """Lower a program for the compiled tier.

    ``build`` is a zero-argument callable returning a **fresh** workload
    build — either a spec list or an object with ``.build()``. It must
    construct new session/lock/queue objects on every call: the walk drives
    real generator code against stub contexts, and walking the live
    objects a run will use would corrupt them (double session setup,
    phantom records). :func:`repro.sim.engine.run_program`'s ``lower=``
    parameter passes this straight through.

    The walk uses ``first_tid=1`` so each walk context draws from the same
    seeded per-thread RandomStream the engine will construct, making
    predicted op streams exact for result-independent programs.
    """
    from repro.obs import runtime as obs_runtime

    config = config or SimConfig()
    t0 = time.perf_counter()
    specs = build()
    if hasattr(specs, "build"):
        specs = specs.build()
    walk = walk_program(list(specs), config, max_ops=max_ops, first_tid=1)
    costs = config.machine.costs
    tables: dict[str, ThreadTable] = {}
    spawn_factories: dict[str, Any] = {}
    dup: set[str] = set()
    n_ops = 0
    n_lowerable = 0
    n_errors = 0
    n_forks = 0
    n_truncated = 0
    wall_by_thread: dict[str, float] = {}
    # Fork replays drive real workload generators (like the walk itself);
    # the throwaway scope absorbs any windowed observations they emit.
    with obs_runtime.collect(label="lint-walk"):
        for tw in walk.threads:
            n_ops += len(tw.ops)
            if tw.walk_error:
                n_errors += 1
            if tw.truncated:
                n_truncated += 1
            if tw.name in dup:
                continue
            if tw.name in tables or tw.name in spawn_factories:
                # Ambiguous spawn names: no table beats a wrong table.
                tables.pop(tw.name, None)
                spawn_factories.pop(tw.name, None)
                dup.add(tw.name)
                continue
            t_thr = time.perf_counter()
            tbl = lower_thread(tw, costs)
            if tbl is not None:
                tables[tw.name] = tbl
                n_lowerable += tbl.n_lowerable()
                n_forks += attach_forks(tbl, tw, costs, config, max_ops)
            wall_by_thread[tw.name] = time.perf_counter() - t_thr
            if tw.spawned_by and tw.factory is not None:
                spawn_factories[tw.name] = (tw.factory, tw.spawn_tid_base)
    stats = {
        "threads_walked": len(walk.threads),
        "tables": len(tables),
        "ops_walked": n_ops,
        "ops_lowerable": n_lowerable,
        "walk_errors": n_errors,
        "forks": n_forks,
        "truncated": n_truncated,
        "numpy": numpy_enabled(),
        "wall_seconds": time.perf_counter() - t0,
        "wall_by_thread": wall_by_thread,
    }
    return ProgramLowering(tables, stats, spawn_factories, max_ops)
