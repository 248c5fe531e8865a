"""Golden behaviour lock: pin every quick experiment's simulated results.

``results/golden.quick.json`` holds, per quick experiment, the multiset of
per-run :meth:`~repro.sim.results.RunResult.fingerprint` digests (captured
with ``REPRO_FP_RECORDS=1``) and the experiment's ``result_metrics``. A
refactor that changes any simulated quantity changes a fingerprint, so it
fails the comparison, whichever execution path or fast path produced it.

Usage::

    python -m repro.experiments.golden check    # whole quick suite
    python -m repro.experiments.golden write    # regenerate the file

``check`` exits non-zero and names every experiment whose fingerprints or
metrics differ from the file. ``write`` regenerates it; a change that does
so must say in CHANGES.md which experiment changed and why. This is the
``make golden-check`` target; tier-1 re-derives the cheap experiments.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path
from typing import Any

#: The committed golden file, relative to the repository root.
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "results" / "golden.quick.json"

SCHEMA = "repro.golden/v1"


def normalise(value: Any) -> Any:
    """JSON round trip, so fresh values compare equal to loaded ones."""
    return json.loads(json.dumps(value, sort_keys=True))


def capture(ids: list[str] | None = None) -> dict[str, dict[str, Any]]:
    """Run quick experiments (all when ``ids`` is None) with per-run
    fingerprint capture; return ``{id: {"fingerprints", "result_metrics"}}``.

    Raises RuntimeError if any experiment fails: a failed run has no
    results to lock.
    """
    from repro.experiments.registry import all_experiments, get
    from repro.experiments.runner import run_entries

    entries = [get(i) for i in ids] if ids else all_experiments()
    saved = os.environ.get("REPRO_FP_RECORDS")
    os.environ["REPRO_FP_RECORDS"] = "1"
    try:
        records, _wall = run_entries(
            entries,
            quick=True,
            stdout=io.StringIO(),
            stderr=io.StringIO(),
            analysis=False,
        )
    finally:
        if saved is None:
            os.environ.pop("REPRO_FP_RECORDS", None)
        else:
            os.environ["REPRO_FP_RECORDS"] = saved
    out: dict[str, dict[str, Any]] = {}
    for record in records:
        if record["status"] != "passed":
            raise RuntimeError(
                f"{record['id']} did not pass: {record.get('error')}"
            )
        out[record["id"]] = normalise({
            "fingerprints": sorted(record.get("fingerprints", [])),
            "result_metrics": record.get("result_metrics", {}),
        })
    return out


def load(path: Path = GOLDEN_PATH) -> dict[str, dict[str, Any]]:
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} document")
    experiments: dict[str, dict[str, Any]] = doc["experiments"]
    return experiments


def write(experiments: dict[str, dict[str, Any]], path: Path = GOLDEN_PATH) -> None:
    doc = {"schema": SCHEMA, "quick": True, "experiments": experiments}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def compare(
    golden: dict[str, dict[str, Any]], fresh: dict[str, dict[str, Any]]
) -> list[str]:
    """Every difference between ``fresh`` and the matching golden entries
    (an empty list means bit-identical behaviour)."""
    problems: list[str] = []
    for exp_id in sorted(fresh):
        want = golden.get(exp_id)
        got = fresh[exp_id]
        if want is None:
            problems.append(f"{exp_id}: not in the golden file")
            continue
        if got["fingerprints"] != want["fingerprints"]:
            missing = len(set(want["fingerprints"]) - set(got["fingerprints"]))
            problems.append(
                f"{exp_id}: fingerprints differ ({len(got['fingerprints'])} "
                f"runs vs {len(want['fingerprints'])} golden, {missing} "
                "golden digests not reproduced)"
            )
        want_m, got_m = want["result_metrics"], got["result_metrics"]
        for key in sorted(set(want_m) | set(got_m)):
            if want_m.get(key) != got_m.get(key):
                problems.append(
                    f"{exp_id}: result_metrics[{key!r}] = {got_m.get(key)!r}, "
                    f"golden {want_m.get(key)!r}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.golden",
        description="Check (or regenerate) the golden quick-suite results.",
    )
    parser.add_argument("action", choices=("check", "write"))
    args = parser.parse_args(argv)
    fresh = capture()
    if args.action == "write":
        write(fresh)
        print(f"wrote {len(fresh)} experiments to {GOLDEN_PATH}")
        return 0
    problems = compare(load(), fresh)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"golden-check FAILED: {len(problems)} difference(s)", file=sys.stderr)
        return 1
    print(f"golden-check OK: {len(fresh)} experiments match {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
