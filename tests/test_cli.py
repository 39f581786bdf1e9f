"""Command line interface: exit codes, config merging, output contracts."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from srfgo import cli as cli_module
from srfgo.cli import build_parser, main
from srfgo.harness import read_run
from srfgo.simkit import load_trajectory

# Everything a run directory holds except wall-clock timing.
DETERMINISTIC_FILES = ("trajectory.csv", "smoothed.csv", "errors.csv",
                       "detections.csv", "auth.csv", "summary.json")


def cli(*args) -> int:
    return main([str(a) for a in args])


def tree_bytes(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "timing.json"}


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as caught:
            main(["--help"])
        assert caught.value.code == 0

    def test_unknown_subcommand(self, capsys):
        assert cli("frobnicate") == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_mode(self, capsys):
        assert cli("run", "--mode", "kalman") == 1
        assert "--mode" in capsys.readouterr().err

    def test_sweep_missing_axis(self, capsys):
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
                   "--seed", "1", "--runs", "1", "--out", "x") == 1
        assert "--window-size" in capsys.readouterr().err

    def test_sweep_missing_seed(self, capsys):
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
                   "--window-size", "100", "--runs", "1", "--out", "x") == 1
        assert "--seed" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("not json")
        assert cli("run", "--config", bad) == 1

    def test_config_unknown_key(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"bogus": 1}')
        assert cli("run", "--config", bad, "--mode", "sr-fgo") == 1

    def test_missing_trajectory_file(self, tmp_path):
        assert cli("run", "--mode", "sr-fgo",
                   "--trajectory", tmp_path / "missing.csv") == 1

    def test_domain_validation_maps_to_config_error(self):
        # Too short for one authentication epoch; rejected by the scenario.
        assert cli("run", "--mode", "sr-fgo", "--duration", "50") == 1

    def test_bad_spoof_direction(self):
        assert cli("run", "--mode", "sr-fgo", "--ramp-rate", "1",
                   "--spoof-direction", "1,2") == 1
        assert cli("run", "--mode", "sr-fgo", "--ramp-rate", "1",
                   "--spoof-direction", "0,0,0") == 1

    @pytest.mark.parametrize("text,expected", [
        ("1e-200,0,0", (1.0, 0.0, 0.0)),
        ("1e308,1e308,0", (0.7071067811865475, 0.7071067811865475, 0.0)),
        ("5e-324,0,-5e-324", (0.7071067811865475, 0.0, -0.7071067811865475))])
    def test_spoof_direction_at_float_range_edges(self, tmp_path, text, expected):
        # The plain norm under- or overflows for these; no warning may print.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_module._parse_direction(text) == expected
        assert cli("run", "--mode", "odometry-only", "--duration", "180",
                   "--ramp-rate", "1", "--spoof-direction", text, "--seed", "1",
                   "--out", tmp_path / "run") == 0

    def test_spoof_direction_bits_unchanged_in_range(self, rng):
        for vec in rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-100, 100, (200, 1)):
            text = ",".join(repr(float(v)) for v in vec)
            assert cli_module._parse_direction(text) == tuple(vec / np.linalg.norm(vec))

    def test_negative_spoof_direction_plain_or_joined(self, tmp_path):
        # A leading minus and digit make a value, not an option: both forms
        # give the same westward attack, which the fused estimate shows.
        args = ("run", "--mode", "naive-fgo", "--duration", "180", "--window-size", "20",
                "--ramp-rate", "1", "--seed", "1")
        assert cli(*args, "--spoof-direction", "-1,0,0", "--out", tmp_path / "plain") == 0
        assert cli(*args, "--spoof-direction=-1,0,0", "--out", tmp_path / "joined") == 0
        assert cli(*args, "--out", tmp_path / "east") == 0
        assert tree_bytes(tmp_path / "plain") == tree_bytes(tmp_path / "joined")
        assert tree_bytes(tmp_path / "plain") != tree_bytes(tmp_path / "east")

    def test_ramp_past_the_satellites_is_config_error(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli("run", "--mode", "naive-fgo", "--duration", "180",
                       "--window-size", "20", "--ramp-rate", "1e300",
                       "--out", tmp_path / "out") == 1
        assert "satellite orbit radius" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_ramp_rate(self, capsys):
        assert cli("run", "--mode", "sr-fgo", "--ramp-rate", "-1") == 1
        assert "ramp rate must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "-1"])
    def test_sweep_rejects_bad_ramp_rate(self, tmp_path, capsys, rate):
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", f"0,{rate}",
                   "--window-size", "20", "--runs", "1", "--seed", "1",
                   "--out", tmp_path / "sweep") == 1
        assert "ramp rate" in capsys.readouterr().err

    @pytest.mark.parametrize("modes,rates,sizes,cell", [
        ("odometry-only", "1,1.0", "20", "odometry-only-r1-N20"),
        ("odometry-only,odometry-only", "0", "20", "odometry-only-r0-N20"),
        ("odometry-only", "0", "20,020", "odometry-only-r0-N20")])
    def test_sweep_rejects_repeated_cell(self, tmp_path, capsys, modes, rates,
                                         sizes, cell):
        # Two cells of one name would share their run directories.
        assert cli("sweep", "--mode", modes, "--ramp-rate", rates,
                   "--window-size", sizes, "--runs", "1", "--seed", "1",
                   "--duration", "180", "--out", tmp_path / "sweep") == 1
        assert f"repeats cell {cell}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--mode", "naive-fgo", "--ramp-rate", "0", "--window-size", "5"],
         "shift < window size"),
        (["--mode", "odometry-only", "--ramp-rate", "0", "--window-size", "20",
          "--sigma-gps", "nan"], "sigma_gps"),
        (["--mode", "odometry-only", "--ramp-rate", "0,1", "--window-size", "20",
          "--spoof-start", "nan"], "t_start"),
        (["--mode", "naive-fgo", "--ramp-rate", "0", "--window-size", "20",
          "--sigma-gps", "1e-200"], "1/sigma_gps^2 is finite"),
        (["--mode", "naive-fgo", "--ramp-rate", "0,1e300", "--window-size", "20"],
         "satellite orbit radius")])
    def test_sweep_rejects_invalid_cell_before_any_run(self, tmp_path, capsys,
                                                       monkeypatch, flags, message):
        # The configuration error `run` reports (exit 1), before any run.
        def forbidden(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli_module, "run_pipeline", forbidden)
        assert cli("sweep", *flags, "--runs", "1", "--seed", "1", "--duration", "180",
                   "--out", tmp_path / "sweep") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("--ramp-rate", "nan", "ramp rate"), ("--ramp-rate", "inf", "ramp rate"),
        ("--spoof-direction", "nan,0,0", "spoof direction"),
        ("--spoof-direction", "inf,0,0", "spoof direction"),
        ("--spoof-start", "nan", "t_start"), ("--sigma-gps", "nan", "sigma_gps"),
        ("--speed", "nan", "speed"), ("--speed", "inf", "speed"),
        ("--duration", "inf", "duration"), ("--dt", "nan", "dt")])
    def test_non_finite_value_named(self, capsys, flag, value, name):
        # The spoofing flags only apply with a ramp.
        ramp = [] if flag == "--ramp-rate" else ["--ramp-rate", "1"]
        assert cli("run", "--mode", "sr-fgo", "--duration", "180", *ramp,
                   flag, value) == 1
        assert name in capsys.readouterr().err

    def test_sigma_whose_weight_overflows_is_config_error(self, tmp_path, capsys):
        # 1e-200 is finite, but 1 / 1e-200^2 is not.
        assert cli("run", "--mode", "naive-fgo", "--kind", "circuit", "--duration", "180",
                   "--sigma-gps", "1e-200", "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert "error: sigma_gps must be 0 or large enough" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode,speed", [("odometry-only", "1e307"),
                                            ("naive-fgo", "1e200")])
    def test_overflowing_trajectory_is_config_error(self, tmp_path, capsys, mode, speed):
        # No numpy warning may print: under "error" one would exit 2.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli("run", "--mode", mode, "--kind", "straight", "--duration", "180",
                       "--speed", speed, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert "error: truth position at step 1 must be finite and inside" in err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        assert cli("run", "--mode", "odometry-only", "--duration", "180", "--seed", "-1",
                   "--out", tmp_path / "run") == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert cli("simulate", "--kind", "random-smooth-turn", "--seed", "-1",
                   "--out", tmp_path / "sim") == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "sim").exists()

        # A sweep refuses the grid before any run.
        def forbidden(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli_module, "run_pipeline", forbidden)
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
                   "--window-size", "20", "--duration", "180", "--seed", "-1",
                   "--runs", "2", "--out", tmp_path / "sweep") == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("start", ["180", "1e9"])
    def test_spoof_onset_past_end_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                  start):
        message = (f"error: spoof t_start {float(start):g} s must lie before the last "
                   "GPS epoch, at 180 s of the 180 s trajectory")
        assert cli("run", "--mode", "sr-fgo", "--duration", "180", "--ramp-rate", "1",
                   "--spoof-start", start, "--out", tmp_path / "run") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

        # A sweep refuses the grid before any run.
        def forbidden(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli_module, "run_pipeline", forbidden)
        assert cli("sweep", "--mode", "sr-fgo", "--ramp-rate", "0,1", "--window-size", "20",
                   "--duration", "180", "--spoof-start", start, "--seed", "1",
                   "--runs", "2", "--out", tmp_path / "sweep") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_write_failure_is_runtime_failure(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert cli("run", "--mode", "odometry-only", "--seed", "1",
                   "--out", blocker / "sub") == 2


class TestConfigTypes:
    """A config entry is read as its flag's text would be."""

    COMMANDS = {"run": ("run", "--mode", "odometry-only"),
                "sweep": ("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
                          "--window-size", "20", "--seed", "1")}

    @pytest.mark.parametrize("command,key,value", [
        ("run", "seed", 3.9), ("run", "window_size", 20.7), ("run", "window_shift", 10.5),
        ("run", "dt", None), ("run", "duration", "abc"), ("run", "seed", True),
        ("run", "speed", [10.0]), ("run", "sigma_gps", False), ("run", "spoof_start", "1,2"),
        ("run", "window_size", "20.0"), ("sweep", "runs", 1.9), ("sweep", "workers", "two"),
        ("sweep", "window_shift", 2.5), ("sweep", "duration", None),
        ("run", "ramp_rate", True), ("run", "ramp_rate", [1]), ("run", "ramp_rate", "abc"),
        ("run", "out", {}), ("run", "mode", ["naive-fgo"]), ("run", "kind", 7),
        ("run", "spoof_direction", [1, 0, 0]), ("sweep", "mode", ["naive-fgo"]),
        ("sweep", "trajectory", [])])
    def test_bad_entry_is_config_error_naming_its_key(self, tmp_path, capsys, monkeypatch,
                                                      command, key, value):
        def forbidden(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli_module, "run_pipeline", forbidden)
        cfg = tmp_path / "cfg.json"
        # A run has a ramp, so that the spoofing entries apply.
        base = {"runs": 1} if command == "sweep" else {"ramp_rate": 1}
        cfg.write_text(json.dumps({**base, key: value}))
        out = tmp_path / "out"
        assert cli(*self.COMMANDS[command], "--config", cfg, "--out", out) == 1
        # Refused for its JSON type, or by its flag as that flag's text.
        flag = "--" + key.replace("_", "-")
        assert re.search(rf"error: config entry {key!r}( must be a number or text, got "
                         rf"|: argument {flag}: invalid)", capsys.readouterr().err)
        assert not out.exists()

    def test_numeric_trajectory_entry_is_a_file_name(self, tmp_path, monkeypatch):
        # The file "5", as --trajectory 5 reads it, not file descriptor 5.
        monkeypatch.chdir(tmp_path)
        assert cli("simulate", "--duration", "180", "--out", tmp_path / "sim") == 0
        (tmp_path / "sim" / "trajectory.csv").rename(tmp_path / "5")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectory": 5}))
        assert cli(*self.COMMANDS["run"], "--config", cfg, "--out", tmp_path / "entry") == 0
        assert cli(*self.COMMANDS["run"], "--trajectory", "5", "--out", tmp_path / "flag") == 0
        assert tree_bytes(tmp_path / "entry") == tree_bytes(tmp_path / "flag")

    @pytest.mark.parametrize("command,defaults", [
        ("run", cli_module.RUN_DEFAULTS), ("sweep", cli_module.SWEEP_DEFAULTS)])
    def test_config_keys_are_the_flags(self, command, defaults):
        # Every flag but --config has its config key, and every key its flag.
        flags = set(vars(build_parser().parse_args([command]))) - {"command", "parser",
                                                                   "config"}
        assert flags == set(defaults)

    def test_numeric_text_and_integral_numbers_read_as_flags(self, tmp_path):
        flags = ("--duration", "180", "--speed", "12", "--dt", "0.1", "--seed", "3",
                 "--sigma-gps", "7", "--window-size", "20", "--window-shift", "10",
                 "--mode", "naive-fgo", "--kind", "straight", "--ramp-rate", "2",
                 "--spoof-start", "120", "--spoof-direction", "0,-1,0")
        assert cli("run", *flags, "--out", tmp_path / "flags") == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration": "180", "speed": 12, "dt": "0.1", "seed": 3.0,
                                   "sigma_gps": "7", "window_size": "20",
                                   "window_shift": 10.0, "mode": "naive-fgo",
                                   "kind": "straight", "ramp_rate": 2.0,
                                   "spoof_start": 120, "spoof_direction": "0,-1,0",
                                   "out": str(tmp_path / "config")}))
        assert cli("run", "--config", cfg) == 0
        assert tree_bytes(tmp_path / "config") == tree_bytes(tmp_path / "flags")

    def test_sweep_trajectory_flag_or_entry(self, tmp_path):
        assert cli("simulate", "--duration", "180", "--out", tmp_path / "sim") == 0
        path = tmp_path / "sim" / "trajectory.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": 1, "trajectory": str(path)}))
        assert cli(*self.COMMANDS["sweep"], "--runs", "1", "--trajectory", path,
                   "--out", tmp_path / "flag") == 0
        assert cli(*self.COMMANDS["sweep"], "--config", cfg, "--out", tmp_path / "entry") == 0
        assert tree_bytes(tmp_path / "flag") == tree_bytes(tmp_path / "entry")

    def test_sweep_counts_from_text(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": "2", "workers": 1.0, "duration": 180}))
        out = tmp_path / "sweep"
        assert cli(*self.COMMANDS["sweep"], "--config", cfg, "--out", out) == 0
        assert sorted(p.name for p in (out / "odometry-only-r0-N20").glob("run-*")) == [
            "run-000", "run-001"]


class TestSimulate:
    def test_writes_trajectory_and_scenario(self, tmp_path):
        out = tmp_path / "sim"
        assert cli("simulate", "--kind", "circuit", "--duration", "200",
                   "--speed", "10", "--out", out) == 0
        poses = load_trajectory(out / "trajectory.csv")
        assert len(poses) == 2001
        meta = json.loads((out / "scenario.json").read_text())
        assert meta["kind"] == "circuit"
        assert meta["duration_s"] == 200.0

    def test_trajectory_feeds_run(self, tmp_path):
        sim = tmp_path / "sim"
        cli("simulate", "--duration", "200", "--out", sim)
        out = tmp_path / "run"
        assert cli("run", "--mode", "odometry-only", "--seed", "2",
                   "--trajectory", sim / "trajectory.csv", "--out", out) == 0
        assert (out / "summary.json").exists()

    def test_trajectory_time_column_must_match_dt(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert cli("simulate", "--duration", "400", "--dt", "0.2", "--out", sim) == 0
        args = ("run", "--mode", "naive-fgo", "--window-size", "20",
                "--trajectory", sim / "trajectory.csv")
        assert cli(*args, "--out", tmp_path / "bad") == 1
        err = capsys.readouterr().err
        assert "steps 0.2 s" in err and "dt is 0.1 s" in err
        assert not (tmp_path / "bad").exists()
        assert cli(*args, "--dt", "0.2", "--out", tmp_path / "good") == 0

    def test_trajectory_file_refuses_shape_settings(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert cli("simulate", "--duration", "180", "--out", sim) == 0
        path = str(sim / "trajectory.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed": 5}))
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps({"trajectory": path, "duration": 500}))
        for args, named in (
                (("run", "--trajectory", path, "--duration", "500", "--kind",
                  "straight"), "kind, duration"),
                (("run", "--trajectory", path, "--config", cfg), "speed"),
                (("sweep", "--config", sweep_cfg, "--ramp-rate", "0",
                  "--window-size", "20", "--seed", "1", "--runs", "1"), "duration")):
            out = tmp_path / "out"
            assert cli(*args, "--mode", "odometry-only", "--out", out) == 1
            assert f"drop {named}" in capsys.readouterr().err
            assert not out.exists()


class TestRun:
    def test_writes_run_directory(self, tmp_path):
        out = tmp_path / "run"
        assert cli("run", "--mode", "odometry-only", "--seed", "7",
                   "--out", out) == 0
        for name in DETERMINISTIC_FILES + ("timing.json",):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "odometry-only"
        assert summary["seed"] == 7

    def test_config_supplies_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "odometry-only", "seed": 3,
                                   "ramp-rate": 1.0}))
        out = tmp_path / "run"
        assert cli("run", "--config", cfg, "--seed", "9", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "odometry-only"   # from config
        assert summary["seed"] == 9                 # flag wins
        assert summary["spoof_ramp_rate_mps"] == 1.0

    def test_timing_holds_only_wall_clock(self, tmp_path):
        # The deterministic counts live in summary.json alone.
        out = tmp_path / "run"
        assert cli("run", "--mode", "odometry-only", "--seed", "7", "--out", out) == 0
        timing = json.loads((out / "timing.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert not set(timing) & set(summary)
        assert sorted(timing) == ["mean_window_optimize_s", "total_optimize_s"]

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ("run", "--mode", "odometry-only", "--seed", "11")
        assert cli(*args, "--out", tmp_path / "a") == 0
        assert cli(*args, "--out", tmp_path / "b") == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


class TestSweep:
    def test_grid_layout_and_summaries(self, tmp_path):
        out = tmp_path / "sw"
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0,1.0",
                   "--window-size", "100", "--seed", "30", "--runs", "2",
                   "--out", out) == 0
        cells = ["odometry-only-r0-N100", "odometry-only-r1-N100"]
        for cell in cells:
            for index in range(2):
                assert (out / cell / f"run-{index:03d}" / "summary.json").exists()
            cell_summary = json.loads((out / cell / "summary.json").read_text())
            assert cell_summary["runs"] == 2
            assert cell_summary["window_size"] == 100
            assert cell_summary["failures"] == []
        top = json.loads((out / "summary.json").read_text())
        assert top["base_seed"] == 30
        assert [c["ramp_rate"] for c in top["cells"]] == [0.0, 1.0]

    def test_rates_alike_to_six_digits_get_their_own_cells(self, tmp_path):
        # :g would name both rates r0.123457; each keeps its full repr.
        out = tmp_path / "sw"
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0.1234567,0.1234568",
                   "--window-size", "20", "--runs", "1", "--seed", "1",
                   "--duration", "180", "--out", out) == 0
        for rate in (0.1234567, 0.1234568):
            summary = read_run(out / f"odometry-only-r{rate!r}-N20" / "run-000").summary
            assert summary["spoof_ramp_rate_mps"] == rate

    def test_seeds_follow_base_seed(self, tmp_path):
        out = tmp_path / "sw"
        cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
            "--window-size", "100", "--seed", "50", "--runs", "3", "--out", out)
        seeds = [read_run(out / "odometry-only-r0-N100" / f"run-{i:03d}").summary["seed"]
                 for i in range(3)]
        assert seeds == [50, 51, 52]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = ("sweep", "--mode", "odometry-only", "--ramp-rate", "0,1.0",
                "--window-size", "100", "--seed", "30", "--runs", "2")
        assert cli(*args, "--out", tmp_path / "serial", "--workers", "1") == 0
        assert cli(*args, "--out", tmp_path / "pooled", "--workers", "2") == 0
        assert tree_bytes(tmp_path / "serial") == tree_bytes(tmp_path / "pooled")

    def test_failed_run_reported_others_survive(self, tmp_path, capsys):
        out = tmp_path / "sw"
        blocked = out / "odometry-only-r0-N100" / "run-000"
        blocked.parent.mkdir(parents=True)
        blocked.write_text("")  # a file where the run directory must go
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
                   "--window-size", "100", "--seed", "60", "--runs", "2",
                   "--out", out) == 2
        assert "failed" in capsys.readouterr().err
        cell_summary = json.loads(
            (out / "odometry-only-r0-N100" / "summary.json").read_text())
        assert cell_summary["runs"] == 1
        assert len(cell_summary["failures"]) == 1

    def test_failure_filed_under_its_own_cell(self, tmp_path):
        # "odometry-only-r0-N20" is a prefix of "odometry-only-r0-N200": a
        # failure in the N200 cell must not be listed by the N20 cell.
        out = tmp_path / "sw"
        blocked = out / "odometry-only-r0-N200" / "run-000"
        blocked.parent.mkdir(parents=True)
        blocked.write_text("")
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
                   "--window-size", "20,200", "--duration", "180", "--seed", "60",
                   "--runs", "1", "--out", out) == 2
        small = json.loads((out / "odometry-only-r0-N20" / "summary.json").read_text())
        large = json.loads((out / "odometry-only-r0-N200" / "summary.json").read_text())
        assert (small["runs"], small["failures"]) == (1, [])
        assert (large["runs"], large["failures"]) == (0, [str(blocked)])

    def test_cell_with_no_successful_run_still_summarized(self, tmp_path, capsys,
                                                          monkeypatch):
        def fail(cfg):
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli_module, "run_pipeline", fail)
        out = tmp_path / "sw"
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
                   "--window-size", "20", "--runs", "1",
                   "--seed", "1", "--duration", "180", "--out", out) == 2
        run_dir = out / "odometry-only-r0-N20" / "run-000"
        assert f"failed: {run_dir}: RuntimeError: run failed" in capsys.readouterr().err
        cell = json.loads((out / "odometry-only-r0-N20" / "summary.json").read_text())
        assert (cell["runs"], cell["failures"]) == (0, [str(run_dir)])
        top = json.loads((out / "summary.json").read_text())
        assert [c["runs"] for c in top["cells"]] == [0]

    def test_read_back_failure_filed_under_its_cell(self, tmp_path, capsys,
                                                      monkeypatch):
        out = tmp_path / "sw"
        bad = out / "odometry-only-r1-N20" / "run-000"
        read_run = cli_module.read_run

        def read(run_dir):
            if Path(run_dir) == bad:
                raise ValueError("unreadable run")
            return read_run(run_dir)

        monkeypatch.setattr(cli_module, "read_run", read)
        assert cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0,1",
                   "--window-size", "20", "--runs", "2", "--seed", "1",
                   "--duration", "180", "--out", out) == 2
        assert f"failed: {bad}: ValueError: unreadable run" in capsys.readouterr().err
        intact = json.loads((out / "odometry-only-r0-N20" / "summary.json").read_text())
        cell = json.loads((out / "odometry-only-r1-N20" / "summary.json").read_text())
        assert (intact["runs"], intact["failures"]) == (2, [])
        assert (cell["runs"], cell["failures"]) == (1, [str(bad)])
        kept = read_run(bad.parent / "run-001").summary
        assert cell["mean_error_m"]["per_run"] == [kept["mean_error_m"]]

    def test_config_can_supply_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "odometry-only", "ramp-rate": "0",
                                   "window-size": "100", "seed": 70,
                                   "runs": 1, "out": str(tmp_path / "sw")}))
        assert cli("sweep", "--config", cfg) == 0
        assert (tmp_path / "sw" / "summary.json").exists()


class TestReport:
    def test_aggregates_run_directories(self, tmp_path, capsys):
        out = tmp_path / "sw"
        cli("sweep", "--mode", "odometry-only", "--ramp-rate", "0",
            "--window-size", "100", "--seed", "80", "--runs", "2", "--out", out)
        capsys.readouterr()
        assert cli("report", out) == 0
        printed = capsys.readouterr().out
        assert "run-000" in printed and "run-001" in printed
        report = json.loads((out / "report.json").read_text())
        assert len(report["runs"]) == 2
        assert {row["seed"] for row in report["runs"]} == {80, 81}

    def test_rows_show_windows_not_converged(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli("run", "--mode", "odometry-only", "--duration", "180",
                   "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        # A stalled solve is counted; the report must carry the run's count.
        summary["windows_not_converged"] = 3
        (out / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert cli("report", out) == 0
        assert "windows not converged 3" in capsys.readouterr().out
        [row] = json.loads((out / "report.json").read_text())["runs"]
        assert row["windows_not_converged"] == 3

    def test_empty_directory_is_config_error(self, tmp_path):
        assert cli("report", tmp_path) == 1

    def test_missing_directory_is_config_error(self, tmp_path):
        assert cli("report", tmp_path / "nope") == 1


class TestIcpDemo:
    def test_recovers_displacement(self, tmp_path):
        out = tmp_path / "demo"
        assert cli("icp-demo", "--density", "8", "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["success"]
        assert result["translation_error_m"] < 0.05
        assert result["rotation_error_deg"] < 0.5
        assert (out / "source.csv").exists() and (out / "target.csv").exists()


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "srfgo.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for command in ("simulate", "run", "sweep", "icp-demo", "report"):
            assert command in proc.stdout


class TestRunPathImports:
    # A fresh interpreter for each case, because other tests import
    # srfgo.icp and scipy here.
    @staticmethod
    def _last_line(script: str, *args) -> str:
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_run_loads_neither_icp_nor_process_pool(self, tmp_path):
        out = tmp_path / "run"
        script = (
            "import sys\n"
            "from srfgo import cli\n"
            "cli.build_parser()\n"
            "code = cli.main(['run', '--mode', 'sr-fgo', '--duration', '180',"
            " '--window-size', '20', '--seed', '1', '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in ('srfgo.icp', 'scipy.spatial',"
            " 'scipy.special', 'concurrent.futures.process')"
            " if m in sys.modules))\n")
        assert self._last_line(script, out) == "0 []"
        assert (out / "summary.json").exists()

    def test_commands_without_a_solve_load_no_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "from srfgo import cli\n"
            "cli.build_parser()\n"
            "out = sys.argv[1]\n"
            "codes = [cli.main(['simulate', '--kind', 'circuit', '--duration', '180',"
            " '--out', out + '/sim']),\n"
            "         cli.main(['run', '--mode', 'odometry-only', '--seed', '1',"
            " '--trajectory', out + '/sim/trajectory.csv', '--out', out + '/runs/odo']),\n"
            "         cli.main(['report', out + '/runs'])]\n"
            "print(codes, sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n")
        assert self._last_line(script, tmp_path) == "[0, 0, 0] []"
        assert (tmp_path / "runs" / "report.json").exists()

    def test_graph_run_loads_scipy_linalg_alone(self, tmp_path):
        script = (
            "import sys\n"
            "from srfgo import cli\n"
            "cli.build_parser()\n"
            "before = 'scipy.linalg' in sys.modules\n"
            "code = cli.main(['run', '--mode', 'naive-fgo', '--duration', '180',"
            " '--window-size', '20', '--seed', '1', '--out', sys.argv[1]])\n"
            "print(code, before, [m in sys.modules for m in"
            " ('scipy.linalg', 'scipy.spatial', 'scipy.special')])\n")
        assert self._last_line(script, tmp_path / "run") == "0 False [True, False, False]"
