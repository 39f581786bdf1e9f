"""Smoke test of the benchmark on the smallest scenarios srfgo accepts."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.workloads import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero on each workload: a zero means
# the layer's wrapper sits where no caller looks the name up.
EXERCISED_BY_ALL = {
    "simkit.gen_trajectory_s", "simkit.build_measurements_s",
    "simkit.build_measurements_calls", "liegroup.compose_calls",
    "liegroup.compose_s", "liegroup.se3_log_arrays_calls",
    "liegroup.se3_log_arrays_s", "liegroup.se3_left_jacobian_inv_s",
    "factors.odometry_factors", "factors.gps_factors", "factors.construct_s",
    "solver.windows", "solver.optimize_s", "solver.optimize_self_s",
    "solver.optimize_p50_ms", "solver.optimize_p95_ms", "solver.iterations",
    "solver.banded_solves", "solver.banded_solve_s", "solver.accept_ratio",
    "solver.window_update_s", "solver.gps_residuals_s", "detector.trials",
    "detector.trial_s", "harness.runs", "harness.run_self_s",
    "harness.write_run_s", "harness.bytes_written", "cli.command_s",
    "cli.self_s", "trace.realtime_factor_untraced",
    "trace.realtime_factor_traced",
}
EXERCISED = {
    "attack-circuit": EXERCISED_BY_ALL | {
        "detector.crossings", "detector.mitigations", "detector.mitigate_s",
        "chimera.auth_events", "chimera.auth_failed",
        "chimera.on_authentication_s"},
    "nominal-wide": EXERCISED_BY_ALL | {
        "chimera.auth_events", "chimera.on_authentication_s"},
    "sweep": EXERCISED_BY_ALL | {"harness.read_run_s"},
}


def _patched_values():
    points = tracing.patch_points(**bench.import_srfgo())
    return points, [getattr(owner, attr) for owner, attr, _, _ in points]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    points, before = _patched_values()
    found = {(name, trace): bench.measure(name, seed=3, seconds=0, trace=trace,
                                          tiny=True, out=out)
             for name in workloads() for trace in (False, True)}
    return found, points, before


def test_every_metric_emitted_with_its_unit(results):
    found, _, _ = results
    for (name, trace), result in found.items():
        assert result["correct"], (name, trace, result["failures"])
        assert result["attempted"] >= 2 and result["failed"] == 0
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == \
            {k: m["unit"] for k, m in result["metrics"].items()}, (name, trace)
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_traced_layers_exercised(results):
    found, _, _ = results
    for name, expected in EXERCISED.items():
        metrics = found[(name, True)]["metrics"]
        assert [m for m in sorted(expected) if metrics[m]["value"] <= 0] == [], name


def test_srfgo_functions_are_originals_after_traced_run(results):
    _, points, before = results
    assert tracing.unrestored(points, before) == []
    from srfgo import chimera, cli, detector, harness, liegroup, simkit
    assert cli.gen_trajectory is simkit.gen_trajectory
    assert cli.run_pipeline is harness.run
    assert cli.write_run is harness.write_run
    assert cli.read_run is harness.read_run
    assert harness.build_measurements is simkit.build_measurements
    assert harness.compose is simkit.compose is liegroup.compose
    assert harness.window_statistic is detector.test_statistic
    assert harness.mitigate is chimera.mitigate is detector.mitigate
    assert harness.on_authentication is chimera.on_authentication


def test_quality_figures_reported(results):
    found, _, _ = results
    attack = found[("attack-circuit", False)]["quality"]
    assert attack["detection_delay_s"]["value"] >= 0.0
    for name in workloads():
        quality = found[(name, False)]["quality"]
        assert quality["mean_error_m"]["unit"] == "m"
        assert 0 < quality["mean_error_m"]["value"] <= quality["max_error_m"]["value"]


def test_exits_nonzero_without_srfgo_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
