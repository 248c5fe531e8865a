"""Self-tests of the benchmark: span arithmetic, reconciliation, seeding,
reference checks and the import-time split.

    python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from hostbench import chain, mysql, run  # noqa: E402
from hostbench import tracer as tracing  # noqa: E402

#: A synthetic span tree: (name, start, end, children).
TREE = [
    ("root", 0.0, 10.0, [
        ("a", 1.0, 4.0, [("leaf", 2.0, 3.0, [])]),
        ("b", 5.0, 9.0, []),
    ]),
    ("second", 12.0, 13.0, []),
]
WALL = 15.0


def _events(tree, drop_close=None, drop_open=None):
    """Time-ordered (t, kind, name) open/close events of ``tree``."""
    out = []

    def walk(spans):
        for name, start, end, children in spans:
            if name != drop_open:
                out.append((start, 1, name))
            walk(children)
            if name != drop_close:
                out.append((end, 0, name))

    walk(tree)
    return sorted(out)


def _replay(events) -> tracing.SpanAggregator:
    agg = tracing.SpanAggregator()
    for t, kind, name in events:
        if kind:
            agg.open(t)
        else:
            agg.close(name, t)
    return agg


class TestSelfTime:
    def test_synthetic_tree(self):
        agg = _replay(_events(TREE))
        assert agg.self_s == {
            "leaf": 1.0, "a": 2.0, "b": 4.0, "root": 3.0, "second": 1.0,
        }
        assert agg.calls == dict.fromkeys(agg.self_s, 1)
        assert agg.covered == 11.0
        part = {**agg.export(), "counters": {}, "jobs": []}
        assert tracing.reconcile_error([part], WALL) == 0.0

    @pytest.mark.parametrize("lost", ["drop_close", "drop_open"])
    def test_dropped_span_fails_reconciliation(self, lost):
        agg = _replay(_events(TREE, **{lost: "a"}))
        part = {**agg.export(), "counters": {}, "jobs": []}
        assert tracing.reconcile_error([part], WALL) > 1e-6

    def test_online_wrappers_nest_and_reconcile(self):
        tracer = tracing.Tracer()

        def inner(x):
            return x + 1

        traced_inner = tracer.span("inner", inner)

        def reader():
            value = yield "op"
            return traced_inner(value)

        traced_reader = tracer.span("gen", reader)

        def outer():
            got = yield from traced_reader()
            return got

        traced_outer = tracer.span("outer", lambda: sum(
            traced_inner(i) for i in range(3)
        ))
        assert traced_outer() == 6
        gen = outer()
        assert next(gen) == "op"
        with pytest.raises(StopIteration) as stop:
            gen.send(41)
        assert stop.value.value == 42
        part = tracer.export()
        assert part["calls"] == {"inner": 4, "outer": 1, "gen": 2}
        assert part["counters"] == {"gen.created": 1}
        assert part["unbalanced"] == 0
        assert tracing.reconcile_error([part], part["covered"]) < 1e-9


class TestJobClock:
    def test_traced_job_time_is_compared_with_the_fabric_timer(self):
        tracer = tracing.Tracer()
        tracer.jobs = [(0.0, 1.0, 3.0, 1.9), (0.0, 3.0, 5.0, 2.0)]
        layers = tracing.layer_metrics(tracer, 6.0)
        assert layers["fabric.job.busy_s"] == 4.0
        assert layers["trace.job_clock_error"] == pytest.approx(0.1 / 4.0)

    @pytest.mark.parametrize("key, value, holds", [
        ("trace.job_clock_error", 0.001, True),
        ("trace.job_clock_error", 0.05, False),
        ("trace.unattributed_s", -0.01, False),
        ("trace.reconcile_error", 1.0, False),
    ])
    def test_trace_checks(self, key, value, holds):
        layers = {
            "trace.reconcile_error": 0.0,
            "trace.unattributed_s": 0.5,
            "trace.job_clock_error": 0.0,
            key: value,
        }
        assert run.trace_holds([{"layers": layers}]) is holds


class TestImportSplit:
    SAMPLE = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       400 |        500 |   numpy",
        "import time:        50 |        550 | repro.sim.compiled",
        "import time:        30 |         30 |   json",
        "import time:        20 |         50 | repro.analysis.expr",
        "import time:         5 |          5 | os",
    ])

    def test_children_count_against_the_importing_layer(self):
        split = tracing.import_times(self.SAMPLE)
        assert split["sim.import_s"] == pytest.approx(550e-6)
        assert split["analysis.import_s"] == pytest.approx(50e-6)
        assert split["other.import_s"] == pytest.approx(5e-6)
        assert sum(split.values()) == pytest.approx(605e-6)


class TestChainAccounting:
    @staticmethod
    def summary(completed):
        def tier(admitted, timeout=0, **shed):
            t = {"admitted": admitted, "timeout": timeout, "errors": 0}
            for reason in chain.SHED_REASONS:
                t[f"shed_{reason}"] = shed.get(reason, 0)
            return t

        return {
            "offered": 100,
            "completed": completed,
            "tiers": {
                "edge": tier(92, throttle=10),
                "app": tier(90, depth=2),
                "db": tier(90, timeout=2),
            },
        }

    def test_closes(self):
        assert chain.check_chain_accounting(self.summary(88)) is None

    def test_lost_request_is_caught(self):
        assert "db" in chain.check_chain_accounting(self.summary(87))


class TestSeeds:
    def _outputs(self, cls, seed, tmp_path, keep):
        tmp_path.mkdir()
        w = cls()
        w.prepare(seed, tmp_path)
        w.jobs = w.jobs[keep]
        w.run()
        ops = w.ops()
        assert [op.error for op in ops] == [None] * len(ops)
        return [j.config.seed for j in w.jobs], [op.output for op in ops]

    @pytest.mark.parametrize("cls, keep", [
        (mysql.Mysql, slice(0, 3)),
        (chain.Chain, slice(3, 4)),  # the cheapest arm
    ])
    def test_seed_changes_inputs_and_checks_pass(self, cls, keep, tmp_path):
        seeds1, out1 = self._outputs(cls, 1, tmp_path / "a", keep)
        seeds2, out2 = self._outputs(cls, 2, tmp_path / "b", keep)
        assert seeds1 != seeds2
        assert [o["fingerprint"] for o in out1] != [
            o["fingerprint"] for o in out2
        ]


def _copy_bench(dest: Path) -> None:
    """The benchmark's own files, as a checkout holding only them has."""
    shutil.copytree(ROOT / "hostbench", dest / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "hostbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class TestRunCommand:
    def test_corrupted_reference_fails_every_op(self, tmp_path):
        _copy_bench(tmp_path)
        (tmp_path / "src").symlink_to(ROOT / "src")
        path = tmp_path / "hostbench" / "reference" / "mysql.json"
        reference = json.loads(path.read_text())
        for output in reference["ops"].values():
            output["fingerprint"] = "0" * 64
        path.write_text(json.dumps(reference))
        proc = _run([
            "--workload", "mysql", "--seed", str(reference["seed"]),
            "--seconds", "1", "--trace", "0",
        ], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["failed"] == result["attempted"] > 0
        assert result["correct"] is False
        assert result["metrics"]["ok_ratio"]["value"] == 0.0

    def test_fails_without_the_simulator_source(self, tmp_path):
        _copy_bench(tmp_path)
        proc = _run(["--workload", "chain", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=tmp_path)
        assert proc.returncode != 0
        assert proc.stdout == ""
