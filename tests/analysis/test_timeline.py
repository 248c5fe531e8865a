"""Tests of trace-based timeline reconstruction."""

import dataclasses

import pytest

from repro.analysis.timeline import (
    build_timelines,
    render_gantt,
    scheduling_stats,
)
from repro.common.errors import ReproError
from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.hw.events import EventRates
from repro.sim.engine import run_program
from repro.sim.ops import Compute, LockAcquire, LockRelease, Sleep
from repro.sim.program import ThreadSpec

RATES = EventRates.profile(ipc=1.0)


def traced_config(cores=1, timeslice=10_000):
    return SimConfig(
        machine=MachineConfig(n_cores=cores),
        kernel=KernelConfig(timeslice_cycles=timeslice),
        seed=3,
        trace=True,
    )


def run_traced(config, *factories):
    specs = [ThreadSpec(f"t{i}", f) for i, f in enumerate(factories)]
    return run_program(specs, config)


def busy(cycles):
    def program(ctx):
        yield Compute(cycles, RATES)

    return program


class TestBuildTimelines:
    def test_requires_trace(self):
        config = dataclasses.replace(traced_config(), trace=False)
        result = run_traced(config, busy(10_000))
        with pytest.raises(ReproError, match="no trace"):
            build_timelines(result)

    def test_single_thread_mostly_running(self):
        result = run_traced(traced_config(), busy(100_000))
        timelines = build_timelines(result)
        tl = timelines[1]
        assert tl.run_cycles >= 100_000
        assert tl.blocked_cycles == 0

    def test_two_threads_share_core_alternate(self):
        result = run_traced(traced_config(), busy(50_000), busy(50_000))
        timelines = build_timelines(result)
        # each thread spends comparable time running and ready
        for tl in timelines.values():
            assert tl.run_cycles > 40_000
            assert tl.ready_cycles > 20_000

    def test_run_cycles_match_thread_accounting(self):
        result = run_traced(traced_config(), busy(80_000), busy(80_000))
        timelines = build_timelines(result)
        for tid, tl in timelines.items():
            thread = result.threads[tid]
            # run intervals cover cpu time (switch costs inside intervals)
            assert tl.run_cycles == pytest.approx(thread.cpu_cycles, rel=0.05)

    def test_blocked_time_from_sleep(self):
        def sleeper(ctx):
            yield Compute(1_000, RATES)
            yield Sleep(200_000)
            yield Compute(1_000, RATES)

        result = run_traced(traced_config(), sleeper)
        tl = build_timelines(result)[1]
        assert tl.blocked_cycles >= 190_000

    def test_blocked_time_from_lock(self):
        def owner(ctx):
            yield LockAcquire("L")
            yield Compute(150_000, RATES)
            yield LockRelease("L")

        def waiter(ctx):
            yield Compute(1_000, RATES)
            yield LockAcquire("L")
            yield LockRelease("L")

        config = traced_config(cores=2)
        result = run_traced(config, owner, waiter)
        timelines = build_timelines(result)
        waiter_tl = next(tl for tl in timelines.values() if tl.name == "t1")
        assert waiter_tl.blocked_cycles > 50_000


class TestSchedulingStats:
    def test_oversubscription_raises_ready_time(self):
        uni = run_traced(traced_config(cores=1), *[busy(40_000)] * 4)
        quad = run_traced(traced_config(cores=4), *[busy(40_000)] * 4)
        s_uni = scheduling_stats(build_timelines(uni))
        s_quad = scheduling_stats(build_timelines(quad))
        assert s_uni.mean_ready_cycles > 10 * max(1, s_quad.mean_ready_cycles)
        assert s_quad.run_fraction > s_uni.run_fraction


class TestGantt:
    def test_renders_rows_and_legend(self):
        result = run_traced(traced_config(), busy(30_000), busy(30_000))
        out = render_gantt(build_timelines(result), width=40)
        lines = out.splitlines()
        assert len(lines) == 3  # 2 threads + legend
        assert "#" in lines[0]
        assert "horizon" in lines[-1]

    def test_empty(self):
        assert render_gantt({}) == "(no threads)"

    def test_width_respected(self):
        result = run_traced(traced_config(), busy(30_000))
        out = render_gantt(build_timelines(result), width=20)
        row = out.splitlines()[0]
        bar = row.split("|")[1]
        assert len(bar) == 20


def test_package_root_exports_the_timeline_interval_once():
    import repro.analysis as analysis
    from repro.analysis import timeline

    assert len(analysis.__all__) == len(set(analysis.__all__))
    assert analysis.Interval is timeline.Interval
