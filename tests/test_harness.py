"""Pipeline modes, error metrics, run serialization, and determinism."""

from __future__ import annotations

import copy
import gc
import math
from types import SimpleNamespace

import numpy as np
import pytest

from srfgo import harness
from srfgo.detector import test_statistic as window_statistic
from srfgo.harness import (MODES, RunConfig, RunRecord, detection_stats, l2_errors,
                           read_run, run, summarize, summarize_runs, write_run)
from srfgo.factors import default_odometry_information
from srfgo.liegroup import Pose
from srfgo.simkit import (SIGMA_GPS_DEFAULT, SIGMA_ICP_DEFAULT, Scenario, SpoofProfile,
                          gen_trajectory)
from srfgo.solver import WindowGraph

SPEED = 10.0
# Along-track at attack onset: circuit heading at t=100 s is 5.0 rad.
SPOOF_DIR = (math.cos(5.0), math.sin(5.0), 0.0)


def make_scenario(seed: int = 6008, rate: float | None = None,
                  **overrides) -> Scenario:
    truth = gen_trajectory("circuit", 200.0, SPEED, seed=seed)
    spoof = (SpoofProfile(ramp_rate=rate, direction=SPOOF_DIR)
             if rate is not None else None)
    return Scenario(truth=truth, seed=seed, spoof=spoof, **overrides)


@pytest.fixture(scope="module")
def nominal_sr() -> RunRecord:
    return run(RunConfig(scenario=make_scenario(), mode="sr-fgo"))


@pytest.fixture(scope="module")
def nominal_naive() -> RunRecord:
    return run(RunConfig(scenario=make_scenario(), mode="naive-fgo"))


@pytest.fixture(scope="module")
def spoofed_naive() -> RunRecord:
    return run(RunConfig(scenario=make_scenario(rate=2.0), mode="naive-fgo"))


@pytest.fixture(scope="module")
def spoofed_sr() -> RunRecord:
    return run(RunConfig(scenario=make_scenario(rate=2.0), mode="sr-fgo"))


class TestRunConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            RunConfig(scenario=make_scenario(), mode="kalman")

    def test_rejects_bad_shift(self):
        with pytest.raises(ValueError, match="shift"):
            RunConfig(scenario=make_scenario(), mode="sr-fgo", window_shift=0)
        with pytest.raises(ValueError, match="shift"):
            RunConfig(scenario=make_scenario(), mode="sr-fgo",
                      window_size=50, window_shift=51)

    def test_shift_equal_to_window_rejected(self):
        # The first batch plus the initial node would overflow the window by
        # one with nothing to evict, so every mode refuses the config.
        for mode in MODES:
            with pytest.raises(ValueError, match="shift < window size"):
                RunConfig(scenario=make_scenario(), mode=mode,
                          window_size=40, window_shift=40)
            assert RunConfig(scenario=make_scenario(), mode=mode,
                             window_size=40, window_shift=39).window_shift == 39


class TestL2Errors:
    def test_identical_trajectories_give_zero(self, rng):
        positions = rng.normal(size=(12, 3))
        assert np.all(l2_errors(positions, positions.copy()) == 0.0)
        assert summarize(l2_errors(positions, positions)) == (0.0, 0.0)

    def test_constant_offset_is_pythagorean(self, rng):
        ref = rng.normal(size=(30, 3))
        est = ref + np.array([3.0, 4.0, 0.0])
        assert l2_errors(est, ref) == pytest.approx(np.full(30, 5.0))

    def test_single_step_series(self):
        assert l2_errors(np.array([[1.0, 0.0, 0.0]]),
                         np.array([[0.0, 0.0, 0.0]])) == pytest.approx([1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            l2_errors(np.zeros((3, 3)), np.zeros((4, 3)))


class TestSummarize:
    def test_small_example(self):
        assert summarize([1.0, 2.0, 3.0]) == (2.0, 3.0)

    def test_constant_series(self):
        assert summarize([4.2] * 7) == (4.2, 4.2)

    def test_mean_never_exceeds_max(self, rng):
        for _ in range(20):
            series = rng.uniform(0.0, 50.0, size=rng.integers(1, 40))
            mean, peak = summarize(series)
            assert mean <= peak

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])


class TestDetectionStats:
    @staticmethod
    def fake(spoofed: bool, rows, t_start=100.0):
        summary = {"spoofed": spoofed,
                   "spoof_t_start_s": t_start if spoofed else None}
        return SimpleNamespace(detections=rows, summary=summary)

    def test_clean_nominal_records_give_zero_rates(self):
        rows = [{"time_s": 1.0, "q": 10.0, "tau": 30.0, "decision": "nominal"}]
        stats = detection_stats([self.fake(False, rows), self.fake(False, rows)])
        assert stats.per_trial_fa_rate == 0.0
        assert stats.per_run_fa_rate == 0.0
        assert stats.mean_time_to_detect is None

    def test_crossings_counted_per_trial_and_per_run(self):
        quiet = [{"time_s": float(k), "q": 5.0, "tau": 30.0,
                  "decision": "nominal"} for k in range(4)]
        noisy = list(quiet)
        noisy[2] = {"time_s": 2.0, "q": 35.0, "tau": 30.0,
                    "decision": "spoof-detected"}
        stats = detection_stats([self.fake(False, quiet),
                                 self.fake(False, noisy)])
        assert stats.per_trial_fa_rate == pytest.approx(1.0 / 8.0)
        assert stats.per_run_fa_rate == pytest.approx(0.5)

    def test_detection_exactly_at_attack_start(self):
        rows = [{"time_s": 100.0, "q": 99.0, "tau": 30.0,
                 "decision": "spoof-detected"}]
        stats = detection_stats([self.fake(True, rows)])
        assert stats.mean_time_to_detect == 0.0


class TestOdometryOnly:
    def test_noiseless_odometry_recovers_truth(self):
        scn = make_scenario(sigma_icp=(0.0,) * 6)
        record = run(RunConfig(scenario=scn, mode="odometry-only"))
        # 2000 exact compositions accumulate only rounding error.
        assert record.summary["max_error_m"] <= 1e-9

    def test_auth_rows_on_epoch_grid_with_no_action(self):
        record = run(RunConfig(scenario=make_scenario(), mode="odometry-only"))
        assert [row["time_s"] for row in record.auth_events] == [0.0, 180.0]
        assert all(row["outcome"] == "authentic" for row in record.auth_events)
        assert all(row["action"] == "none" for row in record.auth_events)
        assert record.detections == []

    def test_smoothed_tail_is_window_sized(self):
        record = run(RunConfig(scenario=make_scenario(), mode="odometry-only"))
        # Dead reckoning has nothing to smooth: the smoothed window is the
        # last N causal estimates, row for row.
        assert len(record.smoothed_times_s) == 100
        assert np.array_equal(record.smoothed_times_s, record.times_s[-100:])
        assert np.array_equal(record.smoothed_translations,
                              record.est_translations[-100:])
        assert np.array_equal(record.smoothed_quaternions,
                              record.est_quaternions[-100:])


class TestNoiseModel:
    @pytest.mark.parametrize("overrides,information,sigma", [
        ({}, default_odometry_information(SIGMA_ICP_DEFAULT), SIGMA_GPS_DEFAULT),
        # A noiseless stream still needs a finite weight: unit sigma.
        ({"sigma_gps": 0.0, "sigma_icp": (0.0,) * 6}, np.eye(6), 1.0)])
    def test_window_built_with_the_scenario_noise(self, monkeypatch, overrides,
                                                  information, sigma):
        class FirstSolve(Exception):
            pass

        def optimize(graph):
            raise FirstSolve(graph)

        monkeypatch.setattr(WindowGraph, "optimize", optimize)
        with pytest.raises(FirstSolve) as stop:
            run(RunConfig(scenario=make_scenario(**overrides), mode="naive-fgo"))
        graph = stop.value.args[0]
        assert np.array_equal(graph.odometry_information, information)
        assert graph.gps_sigma == sigma


class TestAuthenticationEpochs:
    def test_graph_modes_authenticate_when_shift_does_not_divide_epoch(self):
        # 1800-step epochs are no multiple of the 7-step shift; windows
        # still end on every epoch, so every mode authenticates there.
        truth = gen_trajectory("circuit", 400.0, SPEED, seed=6008)
        scn = Scenario(truth=truth, seed=6008,
                       spoof=SpoofProfile(ramp_rate=1.0, direction=SPOOF_DIR))
        records = {mode: run(RunConfig(scenario=scn, mode=mode, window_size=50,
                                       window_shift=7))
                   for mode in ("odometry-only", "naive-fgo", "sr-fgo")}
        logs = {mode: [(row["time_s"], row["outcome"]) for row in record.auth_events]
                for mode, record in records.items()}
        assert logs["sr-fgo"] == [(0.0, "authentic"), (180.0, "failed"),
                                  (360.0, "failed")]
        assert logs["odometry-only"] == logs["naive-fgo"] == logs["sr-fgo"]
        for mode in ("odometry-only", "naive-fgo"):
            assert all(row["action"] == "none" for row in records[mode].auth_events)
        sr = records["sr-fgo"]
        assert sr.auth_events[0]["action"] == "gps-readmitted"
        assert [row["action"] for row in sr.auth_events[1:]] == ["gps-excluded"] * 2
        assert sr.summary["failsafe"] is True


class TestRunRecordInvariants:
    def test_series_lengths_agree(self, nominal_sr):
        n = len(nominal_sr.times_s)
        assert nominal_sr.est_translations.shape == (n, 3)
        assert nominal_sr.est_quaternions.shape == (n, 4)
        assert len(nominal_sr.errors) == n

    def test_summary_recomputable_from_series(self, nominal_sr):
        mean, peak = summarize(nominal_sr.errors)
        assert nominal_sr.summary["mean_error_m"] == mean
        assert nominal_sr.summary["max_error_m"] == peak
        assert nominal_sr.summary["detector_trials"] == len(nominal_sr.detections)


class TestModeBehavior:
    def test_sr_equals_naive_when_no_alarm(self, nominal_sr, nominal_naive):
        # Same seed, no threshold crossing: the detector never intervenes,
        # so the two pipelines must produce identical estimates.
        assert nominal_sr.summary["detector_crossings"] == 0
        assert np.array_equal(nominal_sr.est_translations,
                              nominal_naive.est_translations)
        assert np.array_equal(nominal_sr.est_quaternions,
                              nominal_naive.est_quaternions)
        assert np.array_equal(nominal_sr.errors, nominal_naive.errors)
        assert np.array_equal(nominal_sr.smoothed_translations,
                              nominal_naive.smoothed_translations)

    def test_naive_error_tracks_injected_bias(self, spoofed_naive):
        # Oracle: the injected bias magnitude is r * (t - t_start).
        times = spoofed_naive.times_s
        errors = spoofed_naive.errors
        bias = np.where(times > 100.0, 2.0 * (times - 100.0), 0.0)
        attacked = times >= 120.0
        corr = np.corrcoef(errors[attacked], bias[attacked])[0, 1]
        assert corr > 0.9
        assert errors[-1] >= 0.3 * bias[-1]
        # Monotone after the transient, on a coarse grid.
        coarse = errors[attacked][::200]
        assert np.all(np.diff(coarse) > -10.0)
        assert coarse[-1] > coarse[0]

    def test_sr_detects_mitigates_and_failsafes(self, spoofed_sr):
        det_t = spoofed_sr.summary["first_detection_time_s"]
        assert det_t is not None and 100.0 < det_t <= 130.0
        # Mitigation removes GPS from the window and excludes future GPS,
        # so the latch row is the last detector trial of the run.
        assert spoofed_sr.detections[-1]["time_s"] == det_t
        assert spoofed_sr.detections[-1]["decision"] == "spoof-detected"
        assert spoofed_sr.summary["failsafe"] is True
        outcomes = {row["time_s"]: row["outcome"]
                    for row in spoofed_sr.auth_events}
        assert outcomes[0.0] == "authentic"
        assert outcomes[180.0] == "failed"

    def test_sr_outperforms_naive_under_attack(self, spoofed_sr, spoofed_naive):
        assert (spoofed_sr.summary["mean_error_m"]
                < spoofed_naive.summary["mean_error_m"])


class TestCoasting:
    def test_gps_excluded_windows_coast_at_their_optimum(self, monkeypatch):
        # Nominal N 20 seed 6005 raises a false alarm, coasts, and is
        # readmitted by the authentic fix at 180 s.
        truth = gen_trajectory("circuit", 400.0, SPEED, seed=6005)
        cfg = RunConfig(scenario=Scenario(truth=truth, seed=6005), mode="sr-fgo",
                        window_size=20)
        solved, taken = [], []
        # The run's latch, followed through the two calls that set it.
        latch = SimpleNamespace(held=False)

        def decide(*args, **kwargs):
            decision = original_decide(*args, **kwargs)
            latch.held = decision == "spoof-detected"
            return decision

        def on_authentication(*args):
            result = original_on_authentication(*args)
            latch.held = result.action == "gps-excluded"
            return result

        def optimize(graph):
            solved.append(graph)
            return original_optimize(graph)

        def statistic(graph):
            taken.append((graph, latch.held))
            return window_statistic(graph)

        original_optimize = WindowGraph.optimize
        original_decide = harness.decide
        original_on_authentication = harness.on_authentication
        monkeypatch.setattr(harness, "decide", decide)
        monkeypatch.setattr(harness, "on_authentication", on_authentication)
        monkeypatch.setattr(WindowGraph, "optimize", optimize)
        monkeypatch.setattr(harness, "window_statistic", statistic)
        record = run(cfg)
        monkeypatch.undo()

        def was_solved(graph):
            return any(graph is g for g in solved)

        assert len(taken) == len(harness._batches(4000, 10, 1800))
        coasted = [graph for graph, excluded in taken if excluded]
        assert record.summary["windows_coasted"] == len(coasted) > 0
        assert (record.summary["windows_optimized"] + len(coasted)
                == len(taken))
        for graph in coasted:
            assert graph.gps_count() == 0 and not was_solved(graph)
            probe = copy.deepcopy(graph)
            report = probe.optimize()
            assert (report.status, report.iterations) == ("step-norm", 0)
            assert np.array_equal(probe.rot, graph.rot)
            assert np.array_equal(probe.t, graph.t)
        # Every other window is solved, including those after readmission.
        assert all(was_solved(graph) for graph, excluded in taken if not excluded)
        flags = [excluded for _, excluded in taken]
        assert any(before and not after for before, after in zip(flags, flags[1:]))
        assert any(row["action"] == "gps-readmitted" and row["time_s"] == 180.0
                   for row in record.auth_events)

    def test_window_counts_add_up(self, nominal_naive, spoofed_sr):
        for record in (nominal_naive, spoofed_sr):
            assert (record.summary["windows_optimized"]
                    + record.summary["windows_coasted"]
                    == len(harness._batches(2000, 10, 1800)))
        assert nominal_naive.summary["windows_coasted"] == 0
        assert spoofed_sr.summary["windows_coasted"] > 0


def reference_pose_csv_lines(times_s, translations, quaternions) -> list:
    """One row at a time, each value written as repr(float(value))."""
    lines = ["t,x,y,z,qx,qy,qz,qw"]
    for t, p, q in zip(times_s, translations, quaternions):
        lines.append(",".join(repr(float(v)) for v in (t, p[0], p[1], p[2],
                                                        q[0], q[1], q[2], q[3])))
    return lines


def reference_error_csv_lines(times_s, errors) -> list:
    return ["time_s,l2_error_m"] + [f"{float(t)!r},{float(e)!r}"
                                    for t, e in zip(times_s, errors)]


class TestSerialization:
    def test_pose_lines_match_per_value_repr(self, tmp_path, rng):
        values = rng.normal(size=(513, 8)) * 10.0 ** rng.uniform(-300, 300, (513, 8))
        values[0] = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     2.2250738585072014e-308, 1e16, 0.1]
        values[1] = np.nextafter(values[0], 1.0)
        values[2, :3] = [np.inf, -np.inf, np.nan]
        values[3, :3] = [np.nan, np.inf, -np.inf]
        path = tmp_path / "table.csv"
        # Row counts on both sides of the 256-row chunk, in the pose shape
        # and in errors.csv's two columns.
        for rows in (1, 255, 256, 257, 513):
            v = values[:rows]
            for header, columns, reference in (
                    ("t,x,y,z,qx,qy,qz,qw", (v[:, 0], v[:, 1:4], v[:, 4:]),
                     reference_pose_csv_lines),
                    ("time_s,l2_error_m", (v[:, 0], v[:, 1]), reference_error_csv_lines)):
                harness._write_table(path, header, *columns)
                assert path.read_text() == "\n".join(reference(*columns)) + "\n"
                table = np.column_stack(columns)
                assert (harness._read_float_csv(path, table.shape[1]).tobytes()
                        == table.tobytes())

    def test_run_files_match_per_value_repr(self, tmp_path, spoofed_sr):
        # trajectory.csv and errors.csv each write the time column, over
        # more than one chunk of rows.
        assert len(spoofed_sr.times_s) > 2 * harness._CSV_CHUNK_ROWS
        write_run(spoofed_sr, tmp_path / "r")
        lines = reference_pose_csv_lines(spoofed_sr.times_s, spoofed_sr.est_translations,
                                         spoofed_sr.est_quaternions)
        assert (tmp_path / "r" / "trajectory.csv").read_text() == "\n".join(lines) + "\n"
        lines = reference_error_csv_lines(spoofed_sr.times_s, spoofed_sr.errors)
        assert (tmp_path / "r" / "errors.csv").read_text() == "\n".join(lines) + "\n"

    def test_round_trip_is_lossless(self, tmp_path, spoofed_sr):
        write_run(spoofed_sr, tmp_path / "r")
        loaded = read_run(tmp_path / "r")
        assert loaded == spoofed_sr
        assert loaded.timing == spoofed_sr.timing

    def test_round_trip_nominal(self, tmp_path, nominal_sr):
        write_run(nominal_sr, tmp_path / "r")
        loaded = read_run(tmp_path / "r")
        assert loaded == nominal_sr
        assert loaded.timing == nominal_sr.timing

    def test_repeat_runs_identical(self, tmp_path, nominal_sr):
        again = run(RunConfig(scenario=make_scenario(), mode="sr-fgo"))
        assert again == nominal_sr

        a = write_run(nominal_sr, tmp_path / "a")
        b = write_run(again, tmp_path / "b")
        data_files = ["trajectory.csv", "smoothed.csv", "errors.csv",
                      "detections.csv", "auth.csv", "summary.json"]
        for name in data_files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestMonteCarlo:
    def test_summarize_runs_sorts_by_seed(self):
        records = [run(RunConfig(scenario=make_scenario(seed=seed),
                                 mode="odometry-only"))
                   for seed in (50, 51, 52)]
        shuffled = [records[2].summary, records[0].summary, records[1].summary]
        summary = summarize_runs(shuffled, mode="odometry-only", base_seed=50)
        assert summary["mean_error_m"]["per_run"] == [
            r.summary["mean_error_m"] for r in records]


class TestMemory:
    def test_live_poses_do_not_grow_with_run_length(self, monkeypatch):
        # The truth, the odometry and the GPS epochs are held as stacked
        # arrays; the only Poses alive while a window solves are views made
        # for one batch's factors and the anchor, however long the run.
        # (One Pose per step would be 4000 more here.)
        gc.collect()
        baseline = sum(isinstance(o, Pose) for o in gc.get_objects())
        calls, extra = [], []
        optimize = WindowGraph.optimize

        def counted(graph):
            calls.append(len(graph))
            if len(calls) % 25 == 0:  # a scan of the heap per 25 windows
                extra.append(sum(isinstance(o, Pose) for o in gc.get_objects())
                             - baseline)
            return optimize(graph)

        monkeypatch.setattr(WindowGraph, "optimize", counted)
        truth = gen_trajectory("circuit", 400.0, SPEED, seed=3)
        cfg = RunConfig(scenario=Scenario(truth=truth, seed=3), mode="naive-fgo",
                        window_size=20)
        record = run(cfg)
        assert len(calls) == record.summary["windows_optimized"] == 400
        assert len(extra) == 16
        assert max(extra) <= cfg.window_size
