"""Command line front end: scenario files, runs, sweeps, and reports.

Every option of run and sweep can also come from a JSON config file
(--config), whose entries are parsed by the same flags; explicitly passed
flags override config entries, and config entries override built-in
defaults.  Exit codes: 0 success, 1 bad
configuration (flags, config file, or parameter validation), 2 runtime
failure during execution.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .harness import (MODES, WINDOW_SHIFT_DEFAULT, WINDOW_SIZE_DEFAULT, RunConfig,
                      read_run, run as run_pipeline, summarize_runs, write_run)
from .liegroup import Pose, PoseStack, rotation_angle
from .simkit import (DT_DEFAULT, SIGMA_GPS_DEFAULT, TRAJECTORY_KINDS, Scenario,
                     SpoofProfile, gen_trajectory, load_trajectory,
                     save_trajectory)

RUN_DEFAULTS = {
    "kind": "circuit", "duration": 200.0, "speed": 10.0, "dt": DT_DEFAULT,
    "seed": 0, "sigma_gps": SIGMA_GPS_DEFAULT, "mode": None,
    "window_size": WINDOW_SIZE_DEFAULT, "window_shift": WINDOW_SHIFT_DEFAULT,
    "ramp_rate": None, "spoof_start": 100.0, "spoof_direction": "1,0,0",
    "trajectory": None, "out": None,
}
# Sweeps have no fallback for the grid axes: mode, ramp rate, window
# size, base seed, and run count must arrive via flag or config.
SWEEP_DEFAULTS = {**RUN_DEFAULTS, "window_size": None, "seed": None,
                  "runs": None, "workers": 1}


class CliError(Exception):
    """Bad flags, bad config file, or invalid parameter values."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value that starts with a minus and a digit, such as the spoof
        # direction -1,0,0, is a value: argparse would take it for an option.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise CliError(message)


def _scenario_flags(sub) -> None:
    sub.add_argument("--kind", choices=TRAJECTORY_KINDS, default=None,
                     help="trajectory shape (default circuit)")
    sub.add_argument("--duration", type=float, default=None,
                     help="trajectory length in seconds (default 200)")
    sub.add_argument("--speed", type=float, default=None,
                     help="vehicle speed in m/s (default 10)")
    sub.add_argument("--dt", type=float, default=None,
                     help="node period in seconds (default 0.1)")
    sub.add_argument("--seed", type=int, default=None,
                     help="measurement noise seed (sweep: base seed)")


def _run_flags(sub, sweep: bool) -> None:
    # The command's own flags also parse its config entries (_settings).
    sub.set_defaults(parser=sub)
    _scenario_flags(sub)
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON file supplying any of this command's options")
    sub.add_argument("--mode", default=None,
                     help="odometry-only | naive-fgo | sr-fgo"
                          + (" (comma list for sweeps)" if sweep else ""))
    sub.add_argument("--sigma-gps", type=float, default=None,
                     help="pseudorange noise std in meters (default 7)")
    sub.add_argument("--window-size", default=None, type=None if sweep else int,
                     help="sliding window capacity N (comma list for sweeps)"
                     if sweep else "sliding window capacity N")
    sub.add_argument("--window-shift", type=int, default=None,
                     help="nodes added per window advance (default 10)")
    sub.add_argument("--ramp-rate", default=None, type=None if sweep else float,
                     help="spoofing ramp rate in m/s; 0 or omitted = nominal"
                          + (" (comma list for sweeps)" if sweep else ""))
    sub.add_argument("--spoof-start", type=float, default=None,
                     help="attack onset time in seconds (default 100)")
    sub.add_argument("--spoof-direction", default=None,
                     help="attack direction as x,y,z (normalized; default east)")
    sub.add_argument("--trajectory", type=Path, default=None,
                     help="reuse a trajectory CSV instead of generating one")
    sub.add_argument("--out", type=Path, default=None, help="output directory")
    if sweep:
        sub.add_argument("--runs", type=int, default=None,
                         help="Monte Carlo runs per grid cell")
        sub.add_argument("--workers", type=int, default=None,
                         help="parallel worker processes (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="srfgo", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="write trajectory + scenario files")
    _scenario_flags(sim)
    sim.add_argument("--out", type=Path, required=True, help="output directory")

    runp = commands.add_parser("run", help="execute a single run")
    _run_flags(runp, sweep=False)

    sweep = commands.add_parser(
        "sweep", help="Monte Carlo grid over modes x ramp rates x window sizes")
    _run_flags(sweep, sweep=True)

    demo = commands.add_parser("icp-demo", help="register synthetic wall scans")
    demo.add_argument("--displacement", type=float, default=0.5,
                      help="true forward offset in meters")
    demo.add_argument("--yaw-deg", type=float, default=3.0,
                      help="true yaw offset in degrees")
    demo.add_argument("--noise", type=float, default=0.005,
                      help="per-point Gaussian noise std in meters")
    demo.add_argument("--density", type=float, default=25.0,
                      help="sampled points per square meter")
    demo.add_argument("--seed", type=int, default=10)
    demo.add_argument("--out", type=Path, default=None,
                      help="optional directory for clouds and result JSON")

    rep = commands.add_parser("report", help="aggregate run summaries under a path")
    rep.add_argument("root", type=Path, help="run or sweep output directory")
    rep.add_argument("--out", type=Path, default=None,
                     help="report JSON path (default <root>/report.json)")
    return parser


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise CliError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise CliError(f"config {path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


def _flag_text(key: str, value) -> str:
    """A config entry as its flag's text: text as it is, a number as its
    repr, an integral number as integer text."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    if isinstance(value, str):
        return value
    raise CliError(f"config entry {key!r} must be a number or text, got {value!r}")


def _settings(args, defaults: dict) -> dict:
    """Merge precedence: explicit flag > config entry > default.  Each config
    entry is parsed by the command's own flag, as that flag's text."""
    config = _load_config(getattr(args, "config", None))
    unknown = set(config) - set(defaults)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(defaults)
    for key, value in config.items():
        text = _flag_text(key, value)
        try:
            parsed = args.parser.parse_args([f"--{key.replace('_', '-')}={text}"])
        except CliError as err:
            raise CliError(f"config entry {key!r}: {err}") from None
        merged[key] = getattr(parsed, key)
    merged.update({key: flag for key, flag in vars(args).items()
                   if key in defaults and flag is not None})
    given = [key for key in ("kind", "duration", "speed")
             if getattr(args, key, None) is not None or key in config]
    if merged.get("trajectory") and given:
        raise CliError(f"a trajectory file fixes the trajectory; drop {', '.join(given)}")
    return merged


def _parse_direction(text: str) -> tuple:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"bad direction {text!r}; expected x,y,z") from None
    if len(parts) != 3:
        raise CliError(f"bad direction {text!r}; expected three components")
    vec = np.asarray(parts, dtype=float)
    if not np.isfinite(vec).all():
        raise CliError(f"spoof direction must be finite, got {text!r}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if not 0.0 < norm < math.inf:
        # The squares under- or overflowed: scale by the largest component
        # first, only here, so that every other direction keeps its bits.
        scale = float(np.max(np.abs(vec)))
        if scale == 0.0:
            raise CliError("spoof direction must be nonzero")
        vec = vec / scale
        norm = float(np.linalg.norm(vec))
    return tuple(vec / norm)


def _parse_rate(rate: float | None) -> float | None:
    if rate is None:
        return None
    if not (math.isfinite(rate) and rate >= 0.0):
        raise CliError(f"ramp rate must be finite and >= 0, got {rate}")
    return rate if rate > 0.0 else None


def _parse_list(value, flag: str, kind) -> list:
    """Comma-separated values of one type, e.g. kind float or int."""
    try:
        return [kind(v) for v in value.split(",")]
    except ValueError:
        raise CliError(f"bad {flag} list {value!r}") from None


def _trajectory(s: dict, seed: int) -> PoseStack:
    if s.get("trajectory"):
        try:
            return load_trajectory(s["trajectory"], dt=s["dt"])
        except OSError as err:
            raise CliError(f"cannot read trajectory {s['trajectory']}: "
                           f"{err}") from None
    return gen_trajectory(s["kind"], s["duration"], s["speed"], seed=seed,
                          dt=s["dt"])


def _run_config(s: dict, seed: int, truth) -> RunConfig:
    rate = _parse_rate(s["ramp_rate"])
    spoof = None
    if rate is not None:
        spoof = SpoofProfile(t_start=s["spoof_start"], ramp_rate=rate,
                             direction=_parse_direction(s["spoof_direction"]))
    scenario = Scenario(truth=truth, dt=s["dt"], sigma_gps=s["sigma_gps"],
                        spoof=spoof, seed=seed)
    return RunConfig(scenario=scenario, mode=s["mode"],
                     window_size=s["window_size"], window_shift=s["window_shift"])


def _execute_run(s: dict, seed: int, out_dir: Path):
    record = run_pipeline(_run_config(s, seed, _trajectory(s, seed)))
    write_run(record, out_dir)
    return record


def cmd_simulate(args) -> int:
    s = _settings(args, {k: RUN_DEFAULTS[k]
                         for k in ("kind", "duration", "speed", "dt", "seed")})
    poses = gen_trajectory(s["kind"], s["duration"], s["speed"], seed=s["seed"],
                           dt=s["dt"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_trajectory(out / "trajectory.csv", poses, dt=s["dt"])
    (out / "scenario.json").write_text(json.dumps(
        {"kind": s["kind"], "duration_s": s["duration"], "speed_mps": s["speed"],
         "dt": s["dt"], "seed": s["seed"]}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(poses)} poses -> {out}")
    return 0


def cmd_run(args) -> int:
    s = _settings(args, RUN_DEFAULTS)
    if s["mode"] not in MODES:
        raise CliError(f"--mode must be one of {MODES}, got {s['mode']!r}")
    seed = s["seed"]
    out = s["out"] or Path(f"run-{s['mode']}-seed{seed}")
    record = _execute_run(s, seed, out)
    summary = record.summary
    detected = summary["first_detection_time_s"]
    extra = f" detected at {detected:.1f} s" if detected is not None else ""
    print(f"[{s['mode']}] seed {seed}: mean {summary['mean_error_m']:.3f} m "
          f"max {summary['max_error_m']:.3f} m{extra} -> {out}")
    return 0


def _sweep_task(payload: dict) -> dict:
    """Worker entry: one run, written into its own directory and read back
    from it; returns the summary read back, all the sweep keeps of a run."""
    out_dir = Path(payload["out_dir"])
    _execute_run(payload["settings"], payload["seed"], out_dir)
    return read_run(out_dir).summary


def _rate_name(rate: float) -> str:
    short = f"{rate:g}"
    return short if float(short) == rate else repr(rate)


def cmd_sweep(args) -> int:
    s = _settings(args, SWEEP_DEFAULTS)
    for key in ("mode", "ramp_rate", "window_size", "seed", "runs"):
        if s[key] is None:
            flag = "--" + key.replace("_", "-")
            raise CliError(f"sweep requires {flag} (flag or config entry)")
    if s["out"] is None:
        raise CliError("sweep requires --out")
    modes = s["mode"].split(",")
    for mode in modes:
        if mode not in MODES:
            raise CliError(f"--mode must list values from {MODES}, got {mode!r}")
    rates = _parse_list(s["ramp_rate"], "--ramp-rate", float)
    sizes = _parse_list(s["window_size"], "--window-size", int)
    runs, workers = s["runs"], s["workers"]
    if runs < 1 or workers < 1:
        raise CliError("--runs and --workers must be >= 1")
    base_seed = s["seed"]
    # Cells named alike (rates 1 and 1.0, a mode or size listed twice) would
    # share run directories.  A rate is named by :g unless that loses digits.
    grid = [(f"{mode}-r{_rate_name(rate)}-N{size}", mode, rate, size)
            for mode in modes for rate in rates for size in sizes]
    names = [name for name, *_ in grid]
    for name in names:
        if names.count(name) > 1:
            raise CliError(f"sweep grid repeats cell {name}")
    out = s["out"]

    # Each run is paired with its cell, so a failure, of the run or of its
    # read-back, is filed under that cell only; workers receive the payload
    # alone.  Every cell is checked before any run starts, on one
    # trajectory: no check depends on the seed.
    truth = _trajectory(s, base_seed)
    cells, tasks = [], []
    for name, mode, rate, size in grid:
        cell = {"name": name, "mode": mode, "ramp_rate": rate,
                "window_size": size, "failures": {}, "summaries": [],
                "run_dirs": [str(out / name / f"run-{i:03d}") for i in range(runs)]}
        settings = dict(s, mode=mode, ramp_rate=rate, window_size=size)
        _run_config(settings, base_seed, truth)
        cells.append(cell)
        tasks += [(cell, {"settings": settings, "seed": base_seed + i,
                          "out_dir": run_dir})
                  for i, run_dir in enumerate(cell["run_dirs"])]
    del truth  # the runs build their own; freed, it adds nothing to peak memory
    out.mkdir(parents=True, exist_ok=True)
    # Graph-mode runs first: the short odometry-only ones then fill the
    # pool's tail.  A cell's runs keep their order.
    tasks.sort(key=lambda task: task[0]["mode"] == "odometry-only")

    def attempt(cell: dict, payload: dict, call) -> None:
        try:
            cell["summaries"].append(call())
        except Exception as err:  # noqa: BLE001 - sweep survives one bad run
            cell["failures"][payload["out_dir"]] = f"{type(err).__name__}: {err}"

    if workers == 1:
        for cell, payload in tasks:
            attempt(cell, payload, lambda: _sweep_task(payload))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(cell, payload, pool.submit(_sweep_task, payload))
                       for cell, payload in tasks]
            for cell, payload, future in futures:
                attempt(cell, payload, future.result)

    cell_summaries = []
    for cell in cells:
        summary = summarize_runs(cell["summaries"], mode=cell["mode"],
                                 base_seed=base_seed)
        summary["ramp_rate"] = cell["ramp_rate"]
        summary["window_size"] = cell["window_size"]
        summary["failures"] = sorted(cell["failures"])
        # A cell whose every run failed before write_run has no directory yet.
        (out / cell["name"]).mkdir(exist_ok=True)
        (out / cell["name"] / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
        cell_summaries.append(summary)
        mean = summary["mean_error_m"]["mean"]
        print(f"{cell['name']}: runs {summary['runs']} "
              f"mean-of-means {mean:.3f} m" if mean is not None
              else f"{cell['name']}: no successful runs")

    (out / "summary.json").write_text(json.dumps(
        {"base_seed": base_seed, "runs_per_cell": runs,
         "cells": cell_summaries}, indent=2, sort_keys=True) + "\n")
    failures = [item for cell in cells for item in cell["failures"].items()]
    for run_dir, error in failures:
        print(f"failed: {run_dir}: {error}", file=sys.stderr)
    return 2 if failures else 0


def cmd_icp_demo(args) -> int:
    # Imported here so that the other commands never load scipy.spatial.
    from .icp import estimate_normals, gen_scene_cloud, register, save_cloud, two_wall_scene

    yaw = math.radians(args.yaw_deg)
    c, v = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -v, 0.0], [v, c, 0.0], [0.0, 0.0, 1.0]])
    truth = Pose(rot, np.array([args.displacement, 0.0, 0.0]))

    scene = two_wall_scene()
    target = gen_scene_cloud(scene, Pose.identity(), args.density, args.noise,
                             seed=args.seed)
    source = gen_scene_cloud(scene, truth, args.density, args.noise,
                             seed=args.seed + 1)
    target = estimate_normals(target, 10)
    pose, report = register(source, target)

    err_t = float(np.linalg.norm(pose.translation - truth.translation))
    err_r = math.degrees(rotation_angle(pose.rotation.T @ truth.rotation))
    print(f"true: forward {args.displacement:.3f} m yaw {args.yaw_deg:.2f} deg")
    print(f"recovered: t {np.round(pose.translation, 4)} "
          f"(err {err_t * 1000.0:.1f} mm, {err_r:.3f} deg) "
          f"in {report.iterations} iterations")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_cloud(out / "source.csv", source)
        save_cloud(out / "target.csv", target)
        (out / "result.json").write_text(json.dumps(
            {"success": report.reason == "converged", "iterations": report.iterations,
             "translation": [float(x) for x in pose.translation],
             "translation_error_m": err_t, "rotation_error_deg": err_r,
             "objective_history": [float(x) for x in report.objective_history]},
            indent=2, sort_keys=True) + "\n")
    if report.reason != "converged":
        print(f"registration failed: {report.reason}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    root = Path(args.root)
    if not root.is_dir():
        raise CliError(f"{root} is not a directory")
    run_summaries = sorted(p for p in root.rglob("summary.json")
                           if (p.parent / "trajectory.csv").exists())
    if not run_summaries:
        raise CliError(f"no run summaries under {root}")
    rows = []
    for path in run_summaries:
        summary = json.loads(path.read_text())
        rows.append({"dir": str(path.parent.relative_to(root)),
                     "mode": summary["mode"], "seed": summary["seed"],
                     "spoof_ramp_rate_mps": summary["spoof_ramp_rate_mps"],
                     "window_size": summary["window_size"],
                     "mean_error_m": summary["mean_error_m"],
                     "max_error_m": summary["max_error_m"],
                     "first_detection_time_s": summary["first_detection_time_s"],
                     "failsafe": summary["failsafe"],
                     "windows_not_converged": summary["windows_not_converged"]})
    for row in rows:
        print(f"{row['dir']}: [{row['mode']}] seed {row['seed']} "
              f"mean {row['mean_error_m']:.3f} m max {row['max_error_m']:.3f} m "
              f"windows not converged {row['windows_not_converged']}")
    out = Path(args.out) if args.out else root / "report.json"
    out.write_text(json.dumps({"root": str(root), "runs": rows},
                              indent=2, sort_keys=True) + "\n")
    print(f"{len(rows)} runs -> {out}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "icp-demo": cmd_icp_demo,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        # Domain validation (Scenario, RunConfig, trajectory files) rejects
        # bad parameter values; that is still a configuration problem.
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
