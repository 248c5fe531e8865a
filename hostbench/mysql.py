"""``mysql``: the paper's MySQL case study through a 2-worker fabric pool.

Short lock sections, spin-then-futex waits and a counter read at every
lock operation; compiled-tier lowering; fork, pickle and result-cache
writes with a fresh cache directory.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any

from hostbench.ops import Op, job_failure, run_output
from repro import fabric
from repro.baselines.papi import PapiLikeSession
from repro.core.limit import LimitSession
from repro.experiments.base import multicore_config
from repro.fabric.cache import ResultCache
from repro.hw.events import Event
from repro.obs import runtime as obs_runtime
from repro.workloads.base import Instrumentation
from repro.workloads.mysql import MysqlConfig, MysqlWorkload

MYSQL_RUNS = 120
MYSQL_TXNS = 20
#: Worker threads per run: below, at and above the 4 modelled cores.
MYSQL_WORKERS = (2, 4, 8)
#: Every PAPI_EVERY-th run reads counters PAPI-style, the rest LiMiT.
PAPI_EVERY = 5
MYSQL_CORES = 4
#: The fabric pool width, sized for a 2-core host.
POOL_WORKERS = 2


class MysqlTrial:
    """Fabric job factory: one instrumented MySQL run (E6's shape)."""

    def __init__(self, n_workers: int, txns: int, tool: str) -> None:
        self.n_workers = n_workers
        self.txns = txns
        self.tool = tool
        self.session: LimitSession | None = None

    def build(self):
        cls = LimitSession if self.tool == "limit" else PapiLikeSession
        self.session = cls([Event.CYCLES], count_kernel=True, name=self.tool)
        instr = Instrumentation(
            sessions=[self.session], lock_reader=self.session
        )
        config = MysqlConfig(
            n_workers=self.n_workers, transactions_per_worker=self.txns
        )
        return MysqlWorkload(config).build(instr)

    def extract(self, result) -> dict[str, Any]:
        return {
            "reads": len(self.session.records),
            "max_abs_error": self.session.max_abs_error(),
        }


class Mysql:
    """MYSQL_RUNS instrumented MySQL runs through a 2-worker fabric pool."""

    name = "mysql"
    seeded = True

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"mysql:{seed}")
        self.cache = ResultCache(workdir / "cache")
        self.jobs = []
        for i in range(MYSQL_RUNS):
            workers = MYSQL_WORKERS[i % len(MYSQL_WORKERS)]
            tool = "papi" if i % PAPI_EVERY == PAPI_EVERY - 1 else "limit"
            self.jobs.append(fabric.RunJob(
                workload="hostbench.mysql.MysqlTrial",
                config=multicore_config(
                    n_cores=MYSQL_CORES, seed=rng.randrange(2**31)
                ),
                kwargs={"n_workers": workers, "txns": MYSQL_TXNS, "tool": tool},
                label=f"mysql:{i:03d}:{tool}:{workers}w",
            ))

    def run(self) -> None:
        with obs_runtime.collect(label="mysql"):
            self.outcomes = fabric.run_many(
                self.jobs,
                jobs_n=POOL_WORKERS,
                cache=self.cache,
                fail_fast=False,
            )

    def ops(self) -> list[Op]:
        ops = []
        for job, outcome in zip(self.jobs, self.outcomes):
            op = Op(job.label)
            ops.append(op)
            op.error = job_failure(outcome)
            if op.error is not None:
                continue
            try:
                outcome.result.check_conservation()
            except Exception as exc:
                op.error = f"conservation: {exc}"
                continue
            op.output = run_output(outcome.result)
            op.output["reads"] = outcome.extra["reads"]
            if outcome.extra["reads"] == 0:
                op.error = "no counter reads recorded"
            elif job.kwargs["tool"] == "limit" and outcome.extra[
                "max_abs_error"
            ] != 0:
                op.error = "LiMiT reads were not exact"
        return ops


WORKLOAD = Mysql
