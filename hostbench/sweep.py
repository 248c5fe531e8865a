"""``sweep``: every quick experiment but E20 through the experiment CLI.

The strict lint gate and analysis are on, artifacts go to a temp dir and
there is no cache: the everyday researcher path and its per-run fixed
costs. Experiments fix their own seeds, so the reference holds for any
benchmark seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from hostbench.ops import Op
from repro.experiments import registry, runner
from repro.hw.events import Event


class Sweep:
    """Every quick experiment except E20 through the experiment CLI:
    strict lint gate, analysis on, artifacts to a temp dir, no cache."""

    name = "sweep"
    seeded = False

    def prepare(self, seed: int, workdir: Path) -> None:
        self.ids = [
            e.exp_id for e in registry.all_experiments() if e.exp_id != "E20"
        ]
        self.out = workdir / "out"
        self.manifest = workdir / "manifest.json"
        self.argv = [
            "--quick", "--lint-strict", "--out", str(self.out),
            "--manifest", str(self.manifest), *self.ids,
        ]
        self.instructions: dict[str, int] = {}
        # Instruction counts ride on the per-experiment outcomes, which
        # the manifest does not keep; this records them as they pass.
        execute = runner._execute

        def counted(entry, *args, **kwargs):
            outcome = execute(entry, *args, **kwargs)
            self.instructions[entry.exp_id] = sum(
                r.counts.get(Event.INSTRUCTIONS.value, 0)
                for r in outcome.records
            )
            return outcome

        runner._execute = counted

    def run(self) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            self.exit_code = runner.main(self.argv)
        self.console = sink.getvalue()

    def ops(self) -> list[Op]:
        records = {}
        if self.manifest.exists():
            manifest = json.loads(self.manifest.read_text())
            records = {r["id"]: r for r in manifest["experiments"]}
        ops = []
        for exp_id in self.ids:
            op = Op(exp_id)
            ops.append(op)
            record = records.get(exp_id)
            if record is None:
                op.error = f"no manifest record (exit code {self.exit_code})"
                continue
            if record["status"] != "passed":
                op.error = record.get("error", "failed")
                continue
            if record.get("job_failures"):
                op.error = f"{len(record['job_failures'])} job failures"
                continue
            text = (self.out / f"{runner.artifact_stem(exp_id, True)}.txt")
            op.output = {
                "instructions": self.instructions.get(exp_id, 0),
                "metrics": record.get("result_metrics", {}),
                "text": text.read_text(),
            }
        return ops


WORKLOAD = Sweep
