"""Layer spans for the traced run, installed at runtime from outside ``src/``.

:func:`install` wraps the public entry points of each ``src/repro/<layer>``
module (the table :data:`SPANS`) so every call records a span. Spans are
aggregated online by a :class:`SpanAggregator` instead of being stored: a
traced ``chain`` pass opens several million spans, far too many to keep.

Self time is a span's duration minus the time its direct child spans
cover. Because every span closes into its parent, the self times of one
process add up exactly to the time covered by its root spans; the time of
the measured phase outside any root span is *unattributed*. The
reconciliation ``sum(self) + unattributed == wall`` therefore checks the
span bookkeeping only: a span whose open or close is lost breaks it, but a
missed wrapper or a span charged to the wrong layer does not. The one
check against a separate measurement is ``trace.job_clock_error``: the
traced duration of every fabric job against the job's own
``JobOutcome.wall_seconds``, which the fabric times itself.

Spans recorded in fabric pool workers (forked processes) are aggregated in
the worker, shipped back on the job's outcome and merged in the parent.
All timestamps come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux), so times taken in workers and in the parent are comparable.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from typing import Any, Callable

#: Where each layer's spans come from: (span name, module, attributes).
#: ``Class.*`` takes every public plain method defined on the class.
#: Generator functions are traced per resume (see :class:`_TimedGenerator`).
SPANS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("sim.run_program", "repro.sim.engine", ("Engine.run",)),
    ("sim.lower", "repro.sim.compiled", ("lower_program", "lower_spawned")),
    ("hw.accrual", "repro.hw.pmu", ("Pmu.accrual_plan", "Pmu.accrue_phase")),
    ("hw.rdpmc", "repro.hw.pmu", ("Pmu.rdpmc",)),
    ("kernel.sched", "repro.kernel.scheduler", ("Scheduler.*",)),
    ("kernel.futex", "repro.kernel.futex", ("FutexTable.*",)),
    ("kernel.vpmu", "repro.kernel.vpmu", ("VirtualPmu.*",)),
    ("core.read", "repro.core.limit",
     ("LimitSession.read_safe", "LimitSession.read_unsafe",
      "LimitSession.read_destructive")),
    ("resilience", "repro.resilience.policies",
     ("TokenBucket.*", "AdmissionGate.*", "RetryBudget.*", "RetryPolicy.*",
      "CircuitBreaker.*")),
    ("obs.observe", "repro.obs.runtime",
     ("observe_latency", "observe_batch", "count_window")),
    ("obs.merge", "repro.obs.runtime", ("RunCollector.merge_records",)),
    ("obs.merge", "repro.obs.windows", ("WindowedStats.merge",)),
    ("obs.alerts", "repro.obs.alerts", ("evaluate",)),
    ("fabric.run_many", "repro.fabric.jobs", ("run_many",)),
    ("fabric.job", "repro.fabric.jobs", ("execute_job",)),
    ("fabric.cache.get", "repro.fabric.cache", ("ResultCache.get",)),
    ("fabric.cache.put", "repro.fabric.cache", ("ResultCache.put",)),
    ("lint.check_jobs", "repro.lint.gate", ("check_jobs",)),
    ("lint.walk", "repro.lint.walker", ("walk_program",)),
    ("lint.selfcheck", "repro.lint.selfcheck", ("selfcheck_tree",)),
    ("lint.selfcheck", "repro.lint.meta", ("check_registry",)),
    ("analysis.classify", "repro.analysis.tree", ("classify_env",)),
    ("analysis.refute", "repro.analysis.refute",
     ("sweep", "precheck", "judge")),
    ("analysis.check", "repro.analysis.check", ("check_analysis",)),
    ("experiments.emit", "repro.experiments.runner", ("_emit",)),
)

#: Layers reported by the benchmark, in ``src/repro/<layer>`` order.
LAYERS = (
    "sim", "workloads", "hw", "kernel", "core", "resilience", "obs",
    "fabric", "lint", "analysis", "experiments",
)

clock = time.perf_counter


class SpanAggregator:
    """Online self-time bookkeeping for properly nested spans.

    ``open(t)`` starts a span at time ``t``; ``close(name, t)`` ends the
    innermost open span and charges it to ``name``. Nothing per span is
    kept after it closes.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: open spans, innermost last: [start, seconds covered by children]
        self.stack: list[list[float]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        #: seconds covered by root spans (spans opened with nothing open)
        self.covered = 0.0
        #: closes that found no open span
        self.unbalanced = 0

    def open(self, t: float) -> None:
        self.stack.append([t, 0.0])

    def close(self, name: str, t: float) -> None:
        stack = self.stack
        if not stack:
            self.unbalanced += 1
            return
        start, inner = stack.pop()
        dt = t - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - inner
        if stack:
            stack[-1][1] += dt
        else:
            self.covered += dt

    def export(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "covered": self.covered,
            "unbalanced": self.unbalanced + len(self.stack),
        }


def reconcile_error(parts: list[dict[str, Any]], wall: float) -> float:
    """Share of ``wall`` by which self times plus unattributed time miss
    the covered time, worst over ``parts`` (one export per process).

    For the measuring process, ``sum(self) + (wall - covered)`` must equal
    ``wall``; for pool workers, ``sum(self)`` must equal their covered
    (job) time. A lost open or close counts as a full error (1.0).
    """
    worst = 0.0
    for part in parts:
        if part["unbalanced"]:
            return 1.0
        gap = abs(sum(part["self_s"].values()) - part["covered"])
        worst = max(worst, gap / wall if wall > 0 else gap)
    return worst


class _TimedGenerator:
    """Generator proxy: each resume of the wrapped generator is a span.

    Works wherever the engine or ``yield from`` drives a generator: it has
    ``send``/``throw``/``close`` and the iterator protocol, and lets the
    inner ``StopIteration`` (carrying the return value) propagate.
    """

    __slots__ = ("_gen", "_name", "_agg")

    def __init__(self, gen, name: str, agg: SpanAggregator) -> None:
        self._gen = gen
        self._name = name
        self._agg = agg

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        agg = self._agg
        agg.open(clock())
        try:
            return self._gen.send(value)
        finally:
            agg.close(self._name, clock())

    def throw(self, *exc):
        agg = self._agg
        agg.open(clock())
        try:
            return self._gen.throw(*exc)
        finally:
            agg.close(self._name, clock())

    def close(self):
        return self._gen.close()


class Tracer:
    """Spans and counters of one traced pass, installed process-wide."""

    def __init__(self) -> None:
        self.agg = SpanAggregator()
        self.pid = os.getpid()
        self.counters: dict[str, float] = {}
        #: (submitted, started, ended, the fabric's own wall_seconds) per
        #: fabric job run in this process
        self.jobs: list[tuple[float, float, float, float]] = []
        #: exports shipped back from pool workers
        self.worker_parts: list[dict[str, Any]] = []
        self.submitted = 0.0

    # -- wrappers -----------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn: Callable, after: Callable | None = None):
        """Wrap ``fn`` so each call is a span named ``name``; ``after``
        sees ``(result, args)`` once the call returned."""
        if inspect.isgeneratorfunction(fn):
            return self._gen_span(name, fn)
        agg = self.agg

        def traced(*args, **kwargs):
            agg.open(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                agg.close(name, clock())
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _gen_span(self, name: str, fn: Callable):
        agg = self.agg
        tracer = self

        def traced(*args, **kwargs):
            tracer.count(name + ".created")
            return _TimedGenerator(fn(*args, **kwargs), name, agg)

        traced.__wrapped__ = fn
        return traced

    # -- hooks with side effects beyond a span --------------------------------

    def _after_engine_run(self, result, args) -> None:
        engine = args[0]
        self.count("pieces", engine._n_steps)
        self.count("quanta_batched", engine._quanta_batched)
        self.count("timer_ticks", engine.kernel_counters.n_timer_ticks)
        self.count("read_restarts", sum(
            t.read_restarts for t in engine.threads.values()
        ))
        if engine._lowering is not None:
            self.count("lowered_ops_fetched", engine._ops_fetched)
            self.count("compiled_ops", engine._compiled_ops)

    def _after_admit(self, verdict, args) -> None:
        self.count("admit_calls")
        if verdict == "ok":
            self.count("admit_ok")

    def _after_cache_get(self, value, args) -> None:
        self.count("cache_gets")
        if value is not None:
            self.count("cache_hits")

    def _after_run_many(self, outcomes, args) -> None:
        from repro.fabric.jobs import JobFailure

        self.count("job_failures", sum(
            isinstance(o, JobFailure) for o in outcomes
        ))

    def _enter_worker(self) -> None:
        """First call in a forked pool worker: drop the parent's state."""
        self.pid = os.getpid()
        self.agg.reset()
        self.counters = {}
        self.jobs = []

    def _wrap_run_many(self, fn: Callable) -> Callable:
        traced = self.span("fabric.run_many", fn, after=self._after_run_many)
        tracer = self

        def submit(*args, **kwargs):
            tracer.submitted = clock()
            return traced(*args, **kwargs)

        submit.__wrapped__ = fn
        return submit

    def _wrap_execute_job(self, fn: Callable) -> Callable:
        traced = self.span("fabric.job", fn)
        tracer = self

        def job(*args, **kwargs):
            in_worker = os.getpid() != tracer.pid
            if in_worker:
                tracer._enter_worker()
            started = clock()
            outcome = traced(*args, **kwargs)
            tracer.jobs.append(
                (tracer.submitted, started, clock(), outcome.wall_seconds)
            )
            if in_worker:
                outcome._hostbench_trace = tracer.export()
            return outcome

        job.__wrapped__ = fn
        return job

    def _wrap_run_pooled(self, fn: Callable) -> Callable:
        tracer = self

        def pooled(*args, **kwargs):
            results = fn(*args, **kwargs)
            for outcome in results.values():
                part = outcome.__dict__.pop("_hostbench_trace", None)
                if part is not None:
                    tracer.worker_parts.append(part)
            return results

        pooled.__wrapped__ = fn
        return pooled

    def _wrap_backoff(self, fn: Callable) -> Callable:
        tracer = self

        def backoff(*args, **kwargs):
            tracer.count("fabric_retries")
            return fn(*args, **kwargs)

        backoff.__wrapped__ = fn
        return backoff

    def _wrap_create_thread(self, fn: Callable) -> Callable:
        """Engine thread creation: wrap the program generator so each
        resume (workload code between two yielded ops) is a span."""
        agg = self.agg

        def create(engine, factory, name, at):
            def timed_factory(ctx):
                return _TimedGenerator(factory(ctx), "workloads.resume", agg)

            return fn(engine, timed_factory, name, at)

        create.__wrapped__ = fn
        return create

    def export(self) -> dict[str, Any]:
        part = self.agg.export()
        part["counters"] = dict(self.counters)
        part["jobs"] = list(self.jobs)
        return part


def _replace_everywhere(old: Any, new: Any) -> None:
    """Point every loaded ``repro`` module's reference to ``old`` at
    ``new`` (covers ``from module import name`` copies)."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (
            modname == "repro" or modname.startswith(("repro.", "hostbench."))
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _public_methods(cls: type) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def install() -> Tracer:
    """Wrap every entry point in :data:`SPANS` (plus workload builds,
    generator resumes and experiment runs) in this process."""
    tracer = Tracer()
    after = {
        "Engine.run": tracer._after_engine_run,
        "AdmissionGate.admit": tracer._after_admit,
        "ResultCache.get": tracer._after_cache_get,
    }
    special = {
        ("repro.fabric.jobs", "run_many"): tracer._wrap_run_many,
        ("repro.fabric.jobs", "execute_job"): tracer._wrap_execute_job,
    }
    for name, modname, attrs in SPANS:
        module = importlib.import_module(modname)
        for attr in attrs:
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(module, clsname)
                methods = _public_methods(cls) if meth == "*" else [meth]
                for m in methods:
                    fn = vars(cls)[m]
                    setattr(cls, m, tracer.span(
                        name, fn, after.get(f"{clsname}.{m}")
                    ))
            else:
                fn = getattr(module, attr)
                make = special.get((modname, attr))
                new = make(fn) if make else tracer.span(name, fn)
                _replace_everywhere(fn, new)

    from repro.fabric import jobs
    from repro.sim.engine import Engine

    jobs._run_pooled = tracer._wrap_run_pooled(jobs._run_pooled)
    jobs._backoff_delay = tracer._wrap_backoff(jobs._backoff_delay)
    Engine._create_thread = tracer._wrap_create_thread(Engine._create_thread)
    _install_builds(tracer)
    _install_experiments(tracer)
    return tracer


def _install_builds(tracer: Tracer) -> None:
    """``workloads.build``: every ``build`` defined in ``repro.workloads``."""
    import pkgutil

    import repro.workloads as pkg

    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"{pkg.__name__}.{info.name}")
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and inspect.isfunction(vars(cls).get("build"))
            ):
                cls.build = tracer.span("workloads.build", vars(cls)["build"])


def _install_experiments(tracer: Tracer) -> None:
    """``experiments.run``: each registry entry's run function."""
    import dataclasses

    from repro.experiments import registry

    for key, entry in list(registry.REGISTRY.items()):
        registry.REGISTRY[key] = dataclasses.replace(
            entry, run=tracer.span("experiments.run", entry.run)
        )


# -- per-layer metrics ------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose measured phase took
    ``wall`` seconds. Self times and counts sum the measuring process and
    every pool worker."""
    parts = [tracer.export()] + tracer.worker_parts
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    jobs: list[tuple[float, float, float, float]] = []
    for part in parts:
        for k, v in part["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in part["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in part["counters"].items():
            counters[k] = counters.get(k, 0) + v
        jobs.extend(part["jobs"])

    def n(name: str) -> float:
        return float(calls.get(name, 0))

    def s(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    durations = [end - start for _sub, start, end, _own in jobs]
    busy = sum(durations)
    pieces = counters.get("pieces", 0)
    covered = parts[0]["covered"]
    return {
        "sim.run_program.calls": n("sim.run_program"),
        "sim.self_s": s("sim.run_program"),
        "sim.pieces": float(pieces),
        "sim.us_per_piece": ratio(1e6 * s("sim.run_program"), pieces),
        "sim.lower.self_s": s("sim.lower"),
        "sim.compiled_hit_ratio": ratio(
            counters.get("compiled_ops", 0),
            counters.get("lowered_ops_fetched", 0),
        ),
        "sim.macro_hit_ratio": ratio(
            counters.get("quanta_batched", 0), counters.get("timer_ticks", 0)
        ),
        "workloads.build.self_s": s("workloads.build"),
        "workloads.resume.calls": n("workloads.resume"),
        "workloads.resume.self_s": s("workloads.resume"),
        "hw.accrual.calls": n("hw.accrual"),
        "hw.accrual.self_s": s("hw.accrual"),
        "hw.rdpmc.calls": n("hw.rdpmc"),
        "kernel.sched.calls": n("kernel.sched"),
        "kernel.sched.self_s": s("kernel.sched"),
        "kernel.futex.calls": n("kernel.futex"),
        "kernel.futex.self_s": s("kernel.futex"),
        "kernel.vpmu.self_s": s("kernel.vpmu"),
        # A read's calls count generators created; its spans are resumes.
        "core.read.calls": float(counters.get("core.read.created", 0)),
        "core.read.self_s": s("core.read"),
        "core.read_restart_ratio": ratio(
            counters.get("read_restarts", 0),
            counters.get("core.read.created", 0),
        ),
        "resilience.calls": n("resilience"),
        "resilience.self_s": s("resilience"),
        "resilience.admit_ratio": ratio(
            counters.get("admit_ok", 0), counters.get("admit_calls", 0)
        ),
        "obs.observe.calls": n("obs.observe"),
        "obs.observe.self_s": s("obs.observe"),
        "obs.merge.self_s": s("obs.merge"),
        "obs.alerts.self_s": s("obs.alerts"),
        "fabric.run_many.self_s": s("fabric.run_many"),
        "fabric.job.busy_s": busy,
        "fabric.job.wait_s": sum(start - sub for sub, start, _e, _o in jobs),
        "fabric.job_p50_ms": 1e3 * _percentile(durations, 50),
        "fabric.job_p90_ms": 1e3 * _percentile(durations, 90),
        "fabric.cache.get_s": s("fabric.cache.get"),
        "fabric.cache.put_s": s("fabric.cache.put"),
        "fabric.cache.hit_ratio": ratio(
            counters.get("cache_hits", 0), counters.get("cache_gets", 0)
        ),
        "fabric.retries": float(counters.get("fabric_retries", 0)),
        "fabric.failures": float(counters.get("job_failures", 0)),
        "lint.check_jobs.calls": n("lint.check_jobs"),
        "lint.check_jobs.self_s": s("lint.check_jobs"),
        "lint.walk.self_s": s("lint.walk"),
        "lint.selfcheck.self_s": s("lint.selfcheck"),
        "analysis.classify.calls": n("analysis.classify"),
        "analysis.classify.self_s": s("analysis.classify"),
        "analysis.refute.self_s": s("analysis.refute"),
        "analysis.check.self_s": s("analysis.check"),
        "experiments.run.calls": n("experiments.run"),
        "experiments.run.self_s": s("experiments.run"),
        "experiments.emit.self_s": s("experiments.emit"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - covered,
        "trace.reconcile_error": reconcile_error(parts, wall),
        # Traced job time the fabric's own job timer does not see: the
        # wrapper's cost plus any clock or attribution mismatch.
        "trace.job_clock_error": ratio(
            busy - sum(own for _s, _st, _e, own in jobs), busy
        ),
    }


# -- cold-start split -------------------------------------------------------------


def layer_of(module: str) -> str | None:
    """The reported layer a ``repro`` module belongs to, else None."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return None


def import_times(importtime_stderr: str) -> dict[str, float]:
    """Split ``python -X importtime`` output into ``<layer>.import_s``.

    Each module's self time goes to its own layer when it is a
    ``repro.<layer>`` module, else to the layer of the module whose import
    pulled it in (so numpy counts against ``sim``, which imports it in
    ``sim/compiled.py``); whatever no layer pulled in is ``other``.
    """
    rows: list[tuple[int, str, int]] = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        self_us = int(fields[0])
        raw = fields[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        rows.append((depth, raw.strip(), self_us))
    # importtime prints a module after everything it imported; reversed,
    # each module follows its importer, so a stack of owners by depth works.
    owners: list[str] = []
    totals = {f"{layer}.import_s": 0.0 for layer in LAYERS + ("other",)}
    for depth, name, self_us in reversed(rows):
        del owners[depth:]
        parent = owners[-1] if owners else "other"
        owner = layer_of(name) or parent
        owners.append(owner)
        totals[f"{owner}.import_s"] += self_us / 1e6
    return totals
