"""What the workloads have in common: ops, their outputs and the reference.

A workload module (``chain.py``, ``mysql.py``, ``sweep.py``) defines one
class, exported as ``WORKLOAD``, that is built from the benchmark seed
(``prepare``), runs its measured phase once (``run``) and then reports
one :class:`Op` per unit of work (``ops``): an engine run for ``chain``
and ``mysql``, an experiment for ``sweep``. An op carries the output
compared against the committed reference and the error, if any, that
made it fail: an exception, a fabric ``JobFailure`` or a broken
invariant.

Each workload lives in its own module, so a pass imports only the
simulator layers its workload uses, and ``setup_s`` covers only those.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any

def load(name: str):
    """The workload class of ``hostbench/<name>.py``."""
    return importlib.import_module(f"hostbench.{name}").WORKLOAD


@dataclass
class Op:
    """One unit of work: its output (checked against the reference) and
    the error that failed it, if any."""

    id: str
    output: dict[str, Any] = field(default_factory=dict)
    error: str | None = None


def run_output(result) -> dict[str, Any]:
    """Fingerprint and simulated instructions of one engine run."""
    from repro.hw.events import Event

    return {
        "fingerprint": result.fingerprint(),
        "instructions": result.total(Event.INSTRUCTIONS),
    }


def job_failure(outcome) -> str | None:
    """The error of a fabric outcome that is a ``JobFailure``, else None."""
    from repro.fabric import JobFailure

    if isinstance(outcome, JobFailure):
        return f"job failure ({outcome.kind}): {outcome.error}"
    return None


def applies(reference: dict[str, Any], seed: int) -> bool:
    """Whether ``reference`` holds for a run with ``seed``."""
    return reference.get("seed") is None or reference["seed"] == seed


def check_against(ops: list[Op], reference: dict[str, Any] | None) -> None:
    """Fail every op whose output differs from the reference."""
    if reference is None:
        return
    expected = reference["ops"]
    for op in ops:
        if op.error is None and expected.get(op.id) != _canonical(op.output):
            op.error = "output differs from the reference"


def _canonical(output: dict[str, Any]) -> dict[str, Any]:
    """The output as it reads back from the reference JSON."""
    return json.loads(json.dumps(output, sort_keys=True))


def reference_doc(workload, seed: int, ops: list[Op]) -> dict[str, Any]:
    return {
        "workload": workload.name,
        "seed": seed if workload.seeded else None,
        "ops": {op.id: _canonical(op.output) for op in ops},
    }
