"""Interleaved same-host A/B of two commits on the host-time benchmark.

    python benchmarks/hostbench_ab.py --base <rev> [--workload chain]
        [--pairs 5] [--seconds 40] [--seed 1]

Checks ``<rev>`` out into a temporary git worktree, then runs
``hostbench/run.py --trace 0`` alternately in that checkout (base) and in
this one (head: the working tree as it is), with the same workload, seed
and duration. The order flips every pair (base first, then head first), so
slow drift of the host cancels instead of favouring one side. Each run is
one row; the summary gives both medians per end-to-end metric, their
ratio head/base and in how many pairs head was better.

This is the interleaved A/B that hostbench/README.md asks for: a speedup
counts only as same-host medians of alternating runs. ``make bench-ab
BASE=<rev> WORKLOAD=chain PAIRS=5`` is the same command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: end-to-end metrics compared, and which direction is better
METRICS = {
    "wall_s": "lower",
    "sim_minsn_per_s": "higher",
    "setup_s": "lower",
    "peak_rss_mb": "lower",
    "ok_ratio": "higher",
}


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``hostbench/run.py`` run in ``checkout``: its contract JSON."""
    proc = subprocess.run(
        [
            sys.executable, "hostbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"hostbench run failed in {checkout} (exit {proc.returncode}):\n"
            + proc.stderr[-2000:]
        )
    result: dict = json.loads(lines[-1])
    return result


def summarise(pairs: list[dict[str, dict]]) -> dict[str, dict]:
    """Per metric: both medians, the head/base ratio of the medians and
    the number of pairs in which head was better."""
    out: dict[str, dict] = {}
    for name, better in METRICS.items():
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        wins = sum(
            (h < b) if better == "lower" else (h > b)
            for b, h in zip(base, head)
        )
        mb, mh = statistics.median(base), statistics.median(head)
        out[name] = {
            "base_median": mb,
            "head_median": mh,
            "ratio": mh / mb if mb else float("nan"),
            "head_better_pairs": wins,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--workload", default="chain")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    base_rev = _git("rev-parse", "--short", args.base)
    head_rev = _git("describe", "--always", "--dirty")
    pairs: list[dict[str, dict]] = []
    with tempfile.TemporaryDirectory(prefix="hostbench-ab-") as tmp:
        base_dir = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(base_dir), base_rev)
        try:
            sides = {"base": base_dir, "head": ROOT}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair: dict[str, dict] = {}
                for side in order:
                    pair[side] = run_once(
                        sides[side], args.workload, args.seed, args.seconds
                    )
                    wall = pair[side]["metrics"]["wall_s"]["value"]
                    print(
                        f"pair {i + 1}/{args.pairs} {side:4s} wall_s={wall:.3f} "
                        f"correct={pair[side]['correct']}",
                        file=sys.stderr, flush=True,
                    )
                pairs.append(pair)
        finally:
            _git("worktree", "remove", "--force", str(base_dir))
            _git("worktree", "prune")

    summary = summarise(pairs)
    print(
        f"hostbench A/B: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} pairs={args.pairs} "
        f"base={base_rev} head={head_rev}"
    )
    print(f"{'metric':18s} {'base':>10s} {'head':>10s} {'head/base':>10s}  head better")
    for name, row in summary.items():
        print(
            f"{name:18s} {row['base_median']:10.4g} {row['head_median']:10.4g} "
            f"{row['ratio']:10.3f}  {row['head_better_pairs']}/{args.pairs}"
        )
    correct = all(p[s]["correct"] for p in pairs for s in ("base", "head"))
    if not correct:
        print("WARNING: a run reported correct: false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
