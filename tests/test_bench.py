"""The perf gate of ``python -m repro.bench --check``."""

import copy
import io

from repro import bench

BASELINE = {
    "host": {"calib_seconds": 0.01},
    "microbench": {"speedup": 3.0},
    "sweep": {"sim_events": 1_000, "macro_hit_rate": 0.2, "wall_seconds": 20.0},
}


def _check(current, baseline=BASELINE):
    out = io.StringIO()
    return bench.check(current, baseline, 0.25, out), out.getvalue()


def test_identical_measurement_passes():
    code, report = _check(copy.deepcopy(BASELINE))
    assert code == 0
    assert "[ok] sweep normalised wall: 2,000 vs baseline 2,000" in report


def test_sweep_wall_is_gated_in_calibration_units():
    slower_host = copy.deepcopy(BASELINE)
    slower_host["host"]["calib_seconds"] = 0.02
    slower_host["sweep"]["wall_seconds"] = 40.0  # same normalised wall
    assert _check(slower_host)[0] == 0
    regressed = copy.deepcopy(BASELINE)
    regressed["sweep"]["wall_seconds"] = 20.0 * (1 + bench.WALL_THRESHOLD) + 1
    code, report = _check(regressed)
    assert code == 1
    assert "REGRESSED: sweep normalised wall" in report


def test_baseline_without_calibration_skips_the_wall_gate():
    old = copy.deepcopy(BASELINE)
    del old["host"]["calib_seconds"]
    current = copy.deepcopy(BASELINE)
    current["sweep"]["wall_seconds"] = 1_000.0
    code, report = _check(current, old)
    assert code == 0
    assert "normalised wall" not in report


def test_calibrate_returns_a_positive_time():
    assert bench.calibrate() > 0
