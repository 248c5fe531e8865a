"""Behaviour lock: quick experiments reproduce results/golden.quick.json.

Every cheap quick experiment is re-derived here and its per-run
fingerprint multiset and result metrics compared with the committed file.
E20 is compared inside its own class fixture (tests/experiments/
test_experiments.py) so it is not simulated twice; E19 and E20 are
covered by ``make golden-check`` over the whole quick suite.
"""

from __future__ import annotations

import pytest

from repro.experiments import golden
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


@pytest.mark.parametrize("exp_id", CHEAP)
def test_quick_experiment_matches_golden(golden_results, exp_id):
    fresh = golden.capture([exp_id])
    assert golden.compare(golden_results, fresh) == []


def test_compare_names_every_difference():
    want = {"E1": {"fingerprints": ["a", "b"], "result_metrics": {"x": 1.0}}}
    same = {"E1": {"fingerprints": ["a", "b"], "result_metrics": {"x": 1.0}}}
    assert golden.compare(want, same) == []
    drift = {"E1": {"fingerprints": ["a", "c"], "result_metrics": {"x": 2.0}}}
    problems = golden.compare(want, drift)
    assert len(problems) == 2
    assert "fingerprints differ" in problems[0]
    assert "result_metrics['x']" in problems[1]
    assert golden.compare(want, {"E9": same["E1"]}) == [
        "E9: not in the golden file"
    ]
