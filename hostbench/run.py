"""Host-time benchmark of the LiMiT reproduction simulator.

    python3 hostbench/run.py --workload chain|mysql|sweep --seed N \\
        --seconds S --trace 0|1

Runs passes of the named workload, each in a fresh interpreter, for about
``--seconds`` (at least one pass), checks every pass's
outputs and prints one JSON object as the last line of standard output.
A human-readable table of the same metrics goes to standard error.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, the tracing overhead, the cold-start
split by layer and the host calibration.

``--write-reference`` runs one untraced pass with ``--seed`` and writes its
outputs to ``hostbench/reference/<workload>.json``.
Metric units come from ``BENCHMARK.json``. See README.md for the metrics,
the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP = ROOT / ".hostbench_tmp"
#: One module each: ``hostbench/<name>.py``.
WORKLOAD_NAMES = ("chain", "mysql", "sweep")
#: Seed whose outputs are committed under ``reference/``.
DEFAULT_SEED = 1
#: Set-up samples per untraced run: passes, topped up with set-up probes
#: (a fresh interpreter that stops where the measured phase would start).
MIN_SETUPS = 7
#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT = 150.0
#: Worst accepted share of wall time by which the traced run's layer self
#: times plus unattributed time may miss the traced wall time.
RECONCILE_BOUND = 1e-6
#: Worst accepted share of the traced fabric job time that the fabric's
#: own per-job timer (``JobOutcome.wall_seconds``) does not see.
JOB_CLOCK_BOUND = 0.01

#: end-to-end metric -> what it measures (for the report)
END_TO_END = {
    "setup_s": "host: fresh interpreter to measured phase",
    "wall_s": "host: measured phase",
    "sim_minsn_per_s": "simulated instructions per host second",
    "peak_rss_mb": "host: largest resident set",
    "ok_ratio": "ops passing every check / ops attempted",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed op)."""


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop (median of 5 repeats):
    50k lookups at fixed random keys of a 400k-entry dict, a table larger
    than the CPU caches. Slowdowns on a shared host come mostly from the
    memory system, and this loop follows them more closely than an
    arithmetic one does."""
    rng = random.Random(0)
    table = {i: i for i in range(400_000)}
    keys = [rng.randrange(400_000) for _ in range(50_000)]
    times = []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for key in keys:
            acc += table[key]
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(cmd: list[str], cwd: Path) -> tuple[str, str, float]:
    """Run ``cmd`` in its own process group; returns (stdout, stderr,
    spawn time). Kills the whole group on timeout or failure."""
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"pass exceeded {PASS_TIMEOUT:g}s: {cmd}") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"pass failed ({proc.returncode}): {err[-3000:]}")
    return out, err, spawned


def run_pass(
    workload: str,
    seed: int,
    trace: bool,
    dump: bool = False,
    setup_only: bool = False,
) -> dict:
    """One pass in a fresh interpreter; adds ``setup_s`` to its report."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP))
    cmd = [
        sys.executable, "-m", "hostbench.onepass", "--workload", workload,
        "--seed", str(seed), "--workdir", str(workdir),
    ]
    if dump:
        cmd.append("--dump")
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        out, _err, spawned = _spawn(cmd, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["started"] - spawned
    return report


def import_split(workload: str) -> dict[str, float]:
    """``<layer>.import_s`` of the workload's module, from ``-X importtime``
    in a fresh interpreter."""
    from hostbench.tracer import import_times

    workdir = Path(tempfile.mkdtemp(prefix="imports-", dir=TMP))
    try:
        _out, err, _ = _spawn(
            [sys.executable, "-X", "importtime", "-c",
             f"import hostbench.{workload}"],
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return import_times(err)


def _failures(passes: list[dict]) -> tuple[int, int]:
    attempted = sum(p["attempted"] for p in passes)
    return attempted, sum(len(p["errors"]) for p in passes)


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    attempted, failed = _failures(passes)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "sim_minsn_per_s": statistics.median(
            p["instructions"] / p["wall_s"] / 1e6 for p in passes
        ),
        "peak_rss_mb": peak_kb / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    keys = traced[0]["layers"]
    layers = {
        k: statistics.median(p["layers"][k] for p in traced) for k in keys
    }
    for worst in ("trace.reconcile_error", "trace.job_clock_error"):
        layers[worst] = max(p["layers"][worst] for p in traced)
    layers["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain)
        - 1.0
    )
    return layers


def units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section (``end_to_end`` or
    ``per_layer``) of ``BENCHMARK.json``, where every unit is declared."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[section]}


def trace_holds(traced: list[dict]) -> bool:
    """Whether every traced pass's spans account for its measured phase:
    the books balance, no span outlasts the phase, and fabric jobs take
    as long traced as by the fabric's own timer."""
    return all(
        p["layers"]["trace.reconcile_error"] <= RECONCILE_BOUND
        and p["layers"]["trace.unattributed_s"] >= 0
        and 0 <= p["layers"]["trace.job_clock_error"] <= JOB_CLOCK_BOUND
        for p in traced
    )


def _report(
    metrics: dict[str, float], unit: dict[str, str], passes: list[dict], out
) -> None:
    attempted, failed = _failures(passes)
    print(f"{len(passes)} passes, {attempted} ops, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})", file=out)
    for p in passes:
        print(f"  pass{' (traced)' if 'layers' in p else ''}: setup "
              f"{p['setup_s']:.3f}s wall {p['wall_s']:.3f}s", file=out)
        for op, error in sorted(p["errors"].items()):
            print(f"  FAILED {op}: {error}", file=out)
    for name, value in metrics.items():
        what = END_TO_END.get(name, "")
        print(f"  {name:<32} {value:>14.6g} {unit[name]:<8} {what}",
              file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hostbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    unit = units("per_layer" if args.trace else "end_to_end")
    TMP.mkdir(exist_ok=True)

    if args.write_reference:
        done = run_pass(args.workload, args.seed, False, dump=True)
        print(f"wrote reference/{args.workload}.json ({done['attempted']} ops, "
              f"{len(done['errors'])} failed)", file=sys.stderr)
        return 1 if done["errors"] else 0

    if args.trace:
        calib_ms = calibrate()
        imports = import_split(args.workload)
    started = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    # Rounds (a pass, or an untraced and a traced pass) until the round
    # boundary nearest to --seconds, so a run ends close to its budget.
    while True:
        plain.append(run_pass(args.workload, args.seed, False))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, True))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(plain) / 2 > args.seconds:
            break

    passes = plain + traced
    attempted, failed = _failures(passes)
    # Simulation is deterministic: every pass retires the same work.
    correct = failed == 0 and len({p["instructions"] for p in passes}) == 1
    if args.trace:
        metrics = per_layer(traced, plain)
        metrics.update(imports)
        metrics["host.calib_ms"] = calib_ms
        correct = correct and trace_holds(traced)
    else:
        setups = [p["setup_s"] for p in plain]
        while len(setups) < MIN_SETUPS:
            probe = run_pass(args.workload, args.seed, False, setup_only=True)
            setups.append(probe["setup_s"])
        metrics = end_to_end(plain, setups)
    if set(metrics) != set(unit):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(unit))}"
        )
    _report(metrics, unit, passes, sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        raise SystemExit(1)
