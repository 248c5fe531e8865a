"""Behaviour lock: quick experiments reproduce results/golden.quick.json.

Every cheap quick experiment is re-derived here and its per-run
fingerprint multiset, result metrics and rendered-text hash compared with
the committed file. E20 is compared inside its own class fixture (tests/
experiments/test_experiments.py) so it is not simulated twice; E19 and
E20 are covered by the equivalence harness (``python -m
repro.experiments.golden check``, ``make golden-check``), which runs the
quick suite once per leg. The harness's own pieces are tested here: each
leg predicate against one manifest that violates it and one that
satisfies it, the experiment-set check, and a failing leg that must not
stop the next one.
"""

from __future__ import annotations

import copy
import os

import pytest

from repro.experiments import golden
from repro.experiments.e20_resilience import chain_config
from repro.experiments.e21_refutation import declared_assumptions
from repro.experiments.registry import all_experiments

#: Quick experiments too slow to re-derive here (seconds each).
EXPENSIVE = ("E19", "E20")

CHEAP = [e.exp_id for e in all_experiments() if e.exp_id not in EXPENSIVE]


@pytest.fixture(scope="module")
def golden_results():
    return golden.load()


def test_golden_covers_every_quick_experiment(golden_results):
    assert sorted(golden_results) == sorted(e.exp_id for e in all_experiments())
    for exp_id, entry in golden_results.items():
        assert entry["fingerprints"], f"{exp_id} pins no engine runs"
        assert entry["fingerprints"] == sorted(entry["fingerprints"])
        assert len(entry["text_sha256"]) == 64


@pytest.mark.parametrize("exp_id", CHEAP)
def test_quick_experiment_matches_golden(golden_results, exp_id):
    fresh = golden.capture([exp_id])
    assert golden.compare(golden_results, fresh) == []


def test_compare_names_every_difference():
    want = {"E1": {"fingerprints": ["a", "b"], "result_metrics": {"x": 1.0},
                   "text_sha256": "t"}}
    same = copy.deepcopy(want)
    assert golden.compare(want, same) == []
    drift = {"E1": {"fingerprints": ["a", "c"], "result_metrics": {"x": 2.0},
                    "text_sha256": "u"}}
    problems = golden.compare(want, drift)
    assert len(problems) == 3
    assert "fingerprints differ" in problems[0]
    assert "result_metrics['x']" in problems[1]
    assert "rendered text differs" in problems[2]
    assert golden.compare(want, {"E9": same["E1"]}) == [
        "E9: not in the golden file"
    ]


def test_fingerprint_capture_restores_every_leg_variable(monkeypatch):
    monkeypatch.setenv("REPRO_FP_RECORDS", "0")
    with golden.fingerprint_capture():
        assert os.environ.get("REPRO_FP_RECORDS") == "1"
    assert os.environ.get("REPRO_FP_RECORDS") == "0"
    monkeypatch.delenv("REPRO_FP_RECORDS")
    with golden.fingerprint_capture():
        assert os.environ.get("REPRO_FP_RECORDS") == "1"
    assert "REPRO_FP_RECORDS" not in os.environ


# -- leg predicates: one satisfying manifest, each violation named -----------

WINDOW = 1_000_000
CALM = chain_config("unprotected", True).calm_cycles // WINDOW


def _slo(name, fired, windows):
    return {
        "spec": {"name": name},
        "fired": fired,
        "window_cycles": WINDOW,
        "events": [{"window": w} for w in windows],
    }


def _experiment(exp_id, **blocks):
    return {"id": exp_id, "status": "passed", **blocks}


GOOD_E20 = {"experiments": [_experiment(
    "E20",
    alerts={"slos": [
        _slo("E20-unprotected", 2, [CALM, CALM + 1]),
        _slo("E20-full", 0, []),
    ]},
    result_metrics={
        "shed_vs_unprotected_p99": 0.2,
        "goodput_full": 0.9,
        "goodput_unprotected": 0.4,
    },
)]}

GOOD_E21 = {"experiments": [_experiment("E21", analysis={"assumptions": [
    {
        "assumption": a.name,
        "verdict": "refuted" if i == 0 else "holds",
        "counterexample": {"point": "E21:p"} if i == 0 else None,
    }
    for i, a in enumerate(declared_assumptions())
]})]}

GOOD_CLASSIFIED = {"experiments": [
    _experiment(exp_id, analysis={"classification": {
        "path": "retiring",
        "levels": [{"shares": {"stalled": 0.25, "retiring": 0.75}}],
    }})
    for exp_id in ("E1", "E2")
]}


def _first(m):
    return m["experiments"][0]


def _slos(m):
    return _first(m)["alerts"]["slos"]


def _unprotected_silent(m):
    _slos(m)[0].update(fired=0, events=[])


def _pages_while_calm(m):
    _slos(m)[0]["events"][0]["window"] = CALM - 1


def _full_arm_pages(m):
    _slos(m)[1]["fired"] = 1


def _shed_loses(m):
    _first(m)["result_metrics"]["shed_vs_unprotected_p99"] = 1.5


def _goodput_loses(m):
    _first(m)["result_metrics"]["goodput_full"] = 0.3


def _verdict_missing(m):
    _first(m)["analysis"]["assumptions"].pop()


def _nothing_refuted(m):
    for verdict in _first(m)["analysis"]["assumptions"]:
        verdict["verdict"] = "holds"


def _no_counterexample(m):
    _first(m)["analysis"]["assumptions"][0]["counterexample"] = None


def _unclassified(m):
    del _first(m)["analysis"]


def _shares_off(m):
    _first(m)["analysis"]["classification"]["levels"][0]["shares"]["stalled"] = 0.2


PREDICATE_CASES = [
    (golden.e20_resilience, GOOD_E20, _unprotected_silent, "never paged"),
    (golden.e20_resilience, GOOD_E20, _pages_while_calm, "calm windows"),
    (golden.e20_resilience, GOOD_E20, _full_arm_pages, "full-policy arm paged"),
    (golden.e20_resilience, GOOD_E20, _shed_loses, "want < 1"),
    (golden.e20_resilience, GOOD_E20, _goodput_loses, "goodput"),
    (golden.e21_verdicts, GOOD_E21, _verdict_missing, "do not cover"),
    (golden.e21_verdicts, GOOD_E21, _nothing_refuted, "refuted nothing"),
    (golden.e21_verdicts, GOOD_E21, _no_counterexample, "no counterexample"),
    (golden.every_experiment_classified, GOOD_CLASSIFIED, _unclassified,
     "E1: no top-down classification"),
    (golden.every_experiment_classified, GOOD_CLASSIFIED, _shares_off,
     "E1: level-1 shares sum"),
]


@pytest.mark.parametrize(
    "predicate,good,violate,message",
    PREDICATE_CASES,
    ids=[case[2].__name__.strip("_") for case in PREDICATE_CASES],
)
def test_leg_predicate_names_its_violation(predicate, good, violate, message):
    assert predicate(good) == []
    bad = copy.deepcopy(good)
    violate(bad)
    (problem,) = predicate(bad)
    assert message in problem


def test_every_predicate_is_on_a_leg():
    on_legs = {p for leg in golden.LEGS for p in leg.checks}
    assert on_legs == {case[0] for case in PREDICATE_CASES}


# -- failures are recorded per leg, never raised -----------------------------


def test_failed_leg_is_recorded_and_the_next_leg_still_runs(tmp_path, capsys):
    # An unknown id is a runner usage error: it exits 2 through argparse.
    legs = (golden.Leg("E99", ids=("E99",)), golden.Leg("E1", ids=("E1",)))
    assert golden.check(legs, root=tmp_path) == 1
    problems = capsys.readouterr().err.splitlines()
    problems = [p for p in problems if p.startswith("leg ")]
    assert problems == ["leg E99: run: RuntimeError: runner exited 2"]
    manifest = (tmp_path / "E1" / "manifest.json").read_text()
    assert '"passed": 1' in manifest
    assert (tmp_path / "E1" / "e1.quick.txt").exists()


def test_leg_must_run_every_expected_experiment(tmp_path):
    record = _experiment("E1", fingerprints=["a"], result_metrics={"x": 1.0})
    (tmp_path / "e1.quick.txt").write_text("E1 text\n")
    want = {"E1": golden.entry(record, tmp_path), "E2": {}}
    manifest = {"experiments": [record]}
    suite = golden.Leg("suite")
    assert golden.leg_problems(suite, manifest, tmp_path, want, manifest) == [
        "E2: not run by this leg"
    ]
    only_e1 = golden.Leg("e1", ids=("E1",))
    assert golden.leg_problems(only_e1, manifest, tmp_path, want, manifest) == []
    assert golden.leg_problems(only_e1, manifest, tmp_path, want, {
        "experiments": []
    }) == ["E1: not in the first leg's manifest"]


def test_e20_and_e21_are_pooled_inside_the_experiment():
    # A lone experiment under --jobs 2 fans its own runs over pool
    # workers; inside the whole-suite jobs2 leg each runs serially.
    pooled = {leg.ids for leg in golden.LEGS if "--jobs" in leg.argv}
    assert {("E20",), ("E21",)} <= pooled
