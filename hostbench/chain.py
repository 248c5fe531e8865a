"""``chain``: the E20 service-chain policy arms at quick size, inline.

The interpreter hot path: engine, PMU accrual, generator resumes,
resilience policies and windowed observations are all busy. The fabric
pool, cache, lint gate and compiled tier are bypassed.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any

from hostbench.ops import Op, job_failure, run_output
from repro import fabric
from repro.experiments import e20_resilience as e20
from repro.experiments.base import multicore_config
from repro.obs import alerts
from repro.obs import runtime as obs_runtime
from repro.workloads.service import SHED_REASONS


def check_chain_accounting(summary: dict[str, Any]) -> str | None:
    """Every request entering a tier leaves it exactly once: timed out,
    errored, shed at the next tier, admitted there, or completed. Edge
    arrivals are the offered requests plus timeout resubmissions."""
    tiers = summary["tiers"]
    names = list(tiers)

    def shed(t: dict[str, int]) -> int:
        return sum(t[f"shed_{r}"] for r in SHED_REASONS)

    for i, name in enumerate(names):
        t = tiers[name]
        if i + 1 < len(names):
            nxt = tiers[names[i + 1]]
            leaving = nxt["admitted"] + shed(nxt)
        else:
            leaving = summary["completed"]
        if t["admitted"] != t["timeout"] + t["errors"] + leaving:
            return f"tier {name}: admitted {t['admitted']} does not close"
    edge = tiers[names[0]]
    resubmitted = edge["admitted"] + shed(edge) - summary["offered"]
    timeouts = sum(t["timeout"] for t in tiers.values())
    if not 0 <= resubmitted <= timeouts:
        return f"edge arrivals exceed offered by {resubmitted}"
    return None


class Chain:
    """E20's policy arms, one inline engine run each, seeds from ours."""

    name = "chain"
    seeded = True

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"chain:{seed}")
        self.deadline = e20.chain_config("full", True).deadline_cycles
        self.jobs = []
        for arm in e20.ARMS:
            config = multicore_config(
                n_cores=e20.chain_config(arm, True).n_threads,
                seed=rng.randrange(2**31),
            )
            if arm == "faults":
                config = config.with_faults(e20.fault_plan(True))
            self.jobs.append(fabric.RunJob(
                workload="repro.experiments.e20_resilience.ChainTrial",
                config=config,
                kwargs={"arm": arm, "quick": True},
                label=f"chain:{arm}",
            ))

    def run(self) -> None:
        with obs_runtime.collect(label="chain"):
            for job in self.jobs:
                obs_runtime.register_alert_spec(
                    e20.slo_spec(job.kwargs["arm"], self.deadline)
                )
            self.outcomes = fabric.run_many(
                self.jobs, jobs_n=1, cache=None, fail_fast=False
            )
            self.reports = [
                alerts.evaluate(
                    o.records[-1].windows,
                    e20.slo_spec(job.kwargs["arm"], self.deadline),
                )
                if isinstance(o, fabric.JobOutcome) else None
                for job, o in zip(self.jobs, self.outcomes)
            ]

    def ops(self) -> list[Op]:
        ops = []
        for job, outcome, report in zip(self.jobs, self.outcomes, self.reports):
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
            op.output["alerts_fired"] = report.fired
            summary = outcome.extra["summary"]
            if not outcome.records[-1].windows.reconcile():
                op.error = "windows do not reconcile"
            elif outcome.extra["clock"]["max_abs_error"] != 0:
                op.error = "LiMiT reads were not exact"
            else:
                op.error = check_chain_accounting(summary)
        return ops


WORKLOAD = Chain
