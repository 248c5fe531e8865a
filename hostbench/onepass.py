"""One pass of a workload in a fresh interpreter (started by ``run.py``).

Prints one JSON line: when the measured phase started and how long it
took, the instructions retired, and per-op failures. With ``--trace`` the
layer spans are installed after imports and input building, and the line
also carries the per-layer metrics. Op outputs are checked against
``reference/<workload>.json`` when it applies to the seed; with ``--dump``
they are written there instead. With ``--setup-only`` it stops where the
measured phase would start and prints only that time.

    python -m hostbench.onepass --workload mysql --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hostbench.onepass")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--dump", action="store_true",
        help="write the op outputs as the workload's reference",
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop where the measured phase would start (a set-up sample)",
    )
    args = parser.parse_args(argv)

    from hostbench import ops as oplib
    from hostbench import tracer as tracing

    workload = oplib.load(args.workload)()
    workload.prepare(args.seed, args.workdir)
    tracer = tracing.install() if args.trace else None

    started = time.perf_counter()
    if args.setup_only:
        sys.stdout.write(json.dumps({"started": started}) + "\n")
        return 0
    workload.run()
    wall = time.perf_counter() - started
    # Taken before the output checks, which run outside the measured phase.
    layers = tracing.layer_metrics(tracer, wall) if tracer else None

    ops = workload.ops()
    path = REFERENCE / f"{args.workload}.json"
    if args.dump:
        doc = oplib.reference_doc(workload, args.seed, ops)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    else:
        reference = json.loads(path.read_text()) if path.exists() else None
        if reference is not None and oplib.applies(reference, args.seed):
            oplib.check_against(ops, reference)

    line = {
        "started": started,
        "wall_s": wall,
        "instructions": sum(op.output.get("instructions", 0) for op in ops),
        "attempted": len(ops),
        "errors": {op.id: op.error for op in ops if op.error is not None},
    }
    if layers is not None:
        line["layers"] = layers
    sys.stdout.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
