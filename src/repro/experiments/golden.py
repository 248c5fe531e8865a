"""Golden behaviour lock and the one equivalence harness.

``results/golden.quick.json`` holds, per quick experiment, the multiset of
per-run :meth:`~repro.sim.results.RunResult.fingerprint` digests (captured
with ``REPRO_FP_RECORDS=1``), the experiment's ``result_metrics`` and the
sha256 of its rendered quick text. A refactor that changes any simulated
quantity changes a fingerprint, so it fails the comparison, whichever
execution path or fast path produced it.

``check`` runs the quick suite once per *leg* (:data:`LEGS`): a row of
runner argv, leg predicates and, for legs that pool inside one
experiment, that experiment's id. Every leg writes its
manifest and text files to ``results/smoke/golden/<leg>/`` and must

* pass every experiment (the runner exits 0);
* run exactly its experiments (the whole golden suite unless it names some);
* reproduce the golden fingerprints, ``result_metrics`` and text hashes;
* carry the same ``alerts`` and ``analysis`` blocks as the first leg;
* satisfy its own predicates.

A leg that raises or exits non-zero (a runner usage error exits 2) is
recorded as a stage-tagged problem (``leg jobs2: run: ...``; failed
checks read ``leg strict: check: ...``) and the remaining legs still run.

Usage::

    python -m repro.experiments.golden check    # every leg
    python -m repro.experiments.golden write    # regenerate the file

``check`` exits 1 on any problem; it is ``make golden-check`` and the CI
``equivalence`` job. ``write`` regenerates the file; a change that does so
must say in CHANGES.md which experiment changed and why.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

#: The committed golden file, relative to the repository root.
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "results" / "golden.quick.json"

#: Per-leg workspaces (manifest + ``--out`` text files); gitignored.
LEG_ROOT = GOLDEN_PATH.parent / "smoke" / "golden"

SCHEMA = "repro.golden/v2"

Manifest = dict[str, Any]
Predicate = Callable[[Manifest], list[str]]


@contextmanager
def fingerprint_capture() -> Iterator[None]:
    """Record per-run fingerprints (``REPRO_FP_RECORDS=1``) inside the
    block; restore the variable after."""
    saved = os.environ.get("REPRO_FP_RECORDS")
    os.environ["REPRO_FP_RECORDS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_FP_RECORDS", None)
        else:
            os.environ["REPRO_FP_RECORDS"] = saved


def normalise(value: Any) -> Any:
    """JSON round trip, so fresh values compare equal to loaded ones."""
    return json.loads(json.dumps(value, sort_keys=True))


def text_sha256(text: str) -> str:
    """Digest of a rendered text file, as ``--out`` writes it."""
    return hashlib.sha256(text.encode()).hexdigest()


def entry(record: dict[str, Any], out_dir: Path) -> dict[str, Any]:
    """The golden entry of one passed manifest record whose text was
    written to ``out_dir`` by a ``--quick --out`` run."""
    from repro.experiments.runner import artifact_stem

    text = (out_dir / f"{artifact_stem(record['id'], True)}.txt").read_text()
    return normalise({
        "fingerprints": sorted(record.get("fingerprints", [])),
        "result_metrics": record.get("result_metrics", {}),
        "text_sha256": text_sha256(text),
    })


def capture(ids: list[str] | None = None) -> dict[str, dict[str, Any]]:
    """Run quick experiments (all when ``ids`` is None) with per-run
    fingerprint capture and the analysis block off; return their golden
    entries. Raises RuntimeError if any experiment fails: a failed run
    has no results to lock."""
    from repro.experiments.registry import all_experiments, get
    from repro.experiments.runner import run_entries

    entries = [get(i) for i in ids] if ids else all_experiments()
    with tempfile.TemporaryDirectory() as tmp, fingerprint_capture():
        out = Path(tmp)
        records, _wall = run_entries(
            entries,
            quick=True,
            out=out,
            stdout=io.StringIO(),
            stderr=io.StringIO(),
            analysis=False,
        )
        fresh: dict[str, dict[str, Any]] = {}
        for record in records:
            if record["status"] != "passed":
                raise RuntimeError(
                    f"{record['id']} did not pass: {record.get('error')}"
                )
            fresh[record["id"]] = entry(record, out)
    return fresh


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
        if got.get("text_sha256") != want.get("text_sha256"):
            problems.append(f"{exp_id}: rendered text differs from the golden text")
    return problems


# -- leg predicates: each reads one parsed manifest -------------------------


def _record(manifest: Manifest, exp_id: str) -> dict[str, Any] | None:
    return next((e for e in manifest["experiments"] if e["id"] == exp_id), None)


def e20_resilience(manifest: Manifest) -> list[str]:
    """E20's alerts page on the unprotected arm only past its calm
    windows and never on the full arm; shedding beats the unprotected
    p99 and protection improves goodput."""
    from repro.experiments.e20_resilience import chain_config

    record = _record(manifest, "E20")
    if record is None:
        return ["E20: not in the manifest"]
    slos = {s["spec"]["name"]: s for s in record.get("alerts", {}).get("slos", [])}
    unprot, full = slos.get("E20-unprotected"), slos.get("E20-full")
    if unprot is None or full is None:
        return ["E20: the alerts block lacks the unprotected or full SLO"]
    problems = []
    if unprot["fired"] <= 0:
        problems.append("E20: the unprotected arm never paged under overload")
    calm = chain_config("unprotected", True).calm_cycles // unprot["window_cycles"]
    early = [e["window"] for e in unprot["events"] if e["window"] < calm]
    if early:
        problems.append(
            f"E20: alerts fired inside the calm windows (indices {early} < {calm})"
        )
    if full["fired"] != 0:
        problems.append(f"E20: the full-policy arm paged {full['fired']}x")
    claims = record.get("result_metrics", {})
    shed_ratio = claims.get("shed_vs_unprotected_p99")
    if shed_ratio is None or shed_ratio >= 1.0:
        problems.append(
            f"E20: shed p99 / unprotected p99 = {shed_ratio!r} (want < 1)"
        )
    if not claims.get("goodput_full", 0) > claims.get("goodput_unprotected", 1):
        problems.append("E20: full-policy goodput does not beat unprotected")
    return problems


def e21_verdicts(manifest: Manifest) -> list[str]:
    """Every declared E21 assumption is judged, and at least one is
    refuted with a counterexample configuration."""
    from repro.experiments.e21_refutation import declared_assumptions

    record = _record(manifest, "E21")
    if record is None:
        return ["E21: not in the manifest"]
    verdicts = record.get("analysis", {}).get("assumptions", [])
    declared = {a.name for a in declared_assumptions()}
    judged = {v["assumption"] for v in verdicts}
    problems = []
    if judged != declared:
        problems.append(
            f"E21: verdicts ({sorted(judged)}) do not cover the declared "
            f"assumptions ({sorted(declared)})"
        )
    refuted = [v for v in verdicts if v["verdict"] == "refuted"]
    if not refuted:
        problems.append("E21: the sweep refuted nothing")
    for verdict in refuted:
        ce = verdict.get("counterexample")
        if not ce or not (ce.get("point") or ce.get("from")):
            problems.append(
                f"E21: refuted {verdict['assumption']!r} carries no "
                "counterexample configuration"
            )
    return problems


def every_experiment_classified(manifest: Manifest) -> list[str]:
    """Each experiment has a top-down classification whose level-1
    shares sum to one."""
    problems = []
    for exp in manifest["experiments"]:
        cls = exp.get("analysis", {}).get("classification")
        if not cls or not cls.get("path"):
            problems.append(f"{exp['id']}: no top-down classification")
            continue
        total = sum(cls["levels"][0]["shares"].values())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            problems.append(f"{exp['id']}: level-1 shares sum to {total!r}, not 1")
    return problems


# -- legs -------------------------------------------------------------------


class Leg(NamedTuple):
    """One quick run: extra runner argv, predicates, and the experiment
    ids it runs (empty: the whole suite)."""

    name: str
    argv: tuple[str, ...] = ()
    checks: tuple[Predicate, ...] = ()
    ids: tuple[str, ...] = ()


#: The first leg is the reference for the ``alerts``/``analysis`` blocks.
#: ``--jobs 2`` over the whole suite pools whole experiments (each worker
#: runs its experiment serially); a lone experiment under ``--jobs 2``
#: instead fans its own runs out, which is how E20's arms and E21's sweep
#: are merged from pool workers.
LEGS: tuple[Leg, ...] = (
    Leg(
        "strict",
        ("--lint-strict",),
        checks=(e20_resilience, e21_verdicts, every_experiment_classified),
    ),
    Leg("jobs2", ("--jobs", "2")),
    Leg("e20-pooled", ("--jobs", "2"), ids=("E20",)),
    Leg("e21-pooled", ("--jobs", "2"), ids=("E21",)),
)


def run_leg(leg: Leg, out_dir: Path) -> Manifest:
    """Run one leg into a fresh ``out_dir``; return its parsed manifest.
    Raises if the runner raises or exits non-zero; it exits 0 only when
    every experiment passed and no fabric job failed (its stderr names
    the failures), and 2 on a usage error such as an unknown id."""
    from repro.experiments.runner import main as run_suite

    shutil.rmtree(out_dir, ignore_errors=True)
    manifest = out_dir / "manifest.json"
    argv = [
        "--quick", *leg.ids, "--manifest", str(manifest), "--out", str(out_dir),
        *leg.argv,
    ]
    print(
        f"== golden leg {leg.name!r}: repro.experiments {' '.join(argv)}",
        flush=True,
    )
    with fingerprint_capture():
        try:
            code: int | str | None = run_suite(argv)
        except SystemExit as exc:  # argparse's parser.error()
            code = exc.code
    if code != 0:
        raise RuntimeError(f"runner exited {code}")
    parsed: Manifest = json.loads(manifest.read_text())
    return parsed


def leg_problems(
    leg: Leg,
    manifest: Manifest,
    out_dir: Path,
    golden: dict[str, dict[str, Any]],
    reference: Manifest,
) -> list[str]:
    """Every check one leg's manifest fails (empty: the leg is clean)."""
    ran = [record["id"] for record in manifest["experiments"]]
    expected = set(leg.ids or golden)
    problems = [f"{i}: not run by this leg" for i in sorted(expected - set(ran))]
    problems += [f"{i}: run but not expected" for i in sorted(set(ran) - expected)]
    fresh: dict[str, dict[str, Any]] = {}
    for record in manifest["experiments"]:
        exp_id = record["id"]
        fresh[exp_id] = entry(record, out_dir)
        ref = _record(reference, exp_id)
        if ref is None:
            problems.append(f"{exp_id}: not in the first leg's manifest")
            continue
        for block in ("alerts", "analysis"):
            if record.get(block) != ref.get(block):
                problems.append(
                    f"{exp_id}: {block} block differs from the first leg's"
                )
    problems += compare(golden, fresh)
    for predicate in leg.checks:
        problems += predicate(manifest)
    return problems


def check(legs: tuple[Leg, ...] = LEGS, root: Path = LEG_ROOT) -> int:
    """Run every leg and check it; print the problems and return the exit
    code (1 on any problem). A failing leg never stops the next one."""
    golden = load()
    problems: list[str] = []
    reference: Manifest | None = None
    for leg in legs:
        out_dir = root / leg.name
        stage = "run"
        try:
            manifest = run_leg(leg, out_dir)
            reference = reference or manifest
            stage = "check"
            found = leg_problems(leg, manifest, out_dir, golden, reference)
        except Exception as exc:  # recorded, not raised: later legs still run
            found = [f"{type(exc).__name__}: {exc}"]
        problems += [f"leg {leg.name}: {stage}: {p}" for p in found]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"golden-check FAILED: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"golden-check OK: {len(legs)} legs match {GOLDEN_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.golden",
        description="Check every equivalence leg against (or regenerate) "
        "the golden quick-suite results.",
    )
    parser.add_argument("action", choices=("check", "write"))
    args = parser.parse_args(argv)
    if args.action == "check":
        return check()
    fresh = capture()
    write(fresh)
    print(f"wrote {len(fresh)} experiments to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
