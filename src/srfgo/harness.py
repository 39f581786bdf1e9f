"""Experiment pipeline: mode wiring, metrics, and run serialization.

A run advances the sliding window one batch of nodes at a time.  Each
window is optimized, except while sr-fgo coasts on odometry with GPS
excluded: such a window holds only the dead-reckoned odometry chain and its
anchor, already at their optimum, so it keeps its estimates unsolved
(summary.json counts windows_optimized and windows_coasted, which add up to
the batch count, and windows_not_converged, the optimized windows whose
solve ended short of convergence: stalled, cholesky-failure or
max-iterations).  Then the spoofing detector takes one trial, and at every
authentication epoch sr-fgo applies the outcome to the window, mitigation
dead-reckoning it unsolved like a coasting window; then the batch estimates
are recorded (causal estimates: what the vehicle would have reported at
that moment).  The estimates are arrays, rotations (n+1, 3, 3)
and translations (n+1, 3), one row per time step, like the truth and the
odometry they are read against: the run takes rows straight from those
stacks and from the GPS epoch arrays, and makes a Pose view only for a
factor, the anchor or a dead-reckoning step.  Every mode writes the
same authentication log: one row per epoch step from step 0 on, with the
outcome the spoofer forces and action "none"; sr-fgo alone acts on each
outcome and fills in its action.  Modes:

- odometry-only: dead-reckon by composing odometry from the initial fix.
- naive-fgo: sliding-window fusion of GPS and odometry, no detector.
- sr-fgo: naive-fgo plus chi-squared detection, mitigation, and
  authentication handling.

Run outputs are plain CSV/JSON; every float is written with repr precision
so records round-trip losslessly and repeated runs are byte-identical.  The
numeric CSV files (trajectory.csv, errors.csv, smoothed.csv) are written by
simkit's table writer from column stacks, every value as %r, and parsed back
as whole arrays, with Python's own repr and float on every value.
Wall-clock timing goes to a separate timing.json, which is the only
non-deterministic output and holds nothing else: the mean and the total
wall time of the window solves (mean_window_optimize_s, total_optimize_s).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import factors as fmod
from .chimera import AuthEvent, on_authentication, slow_channel
from .detector import ALPHA, decide, mitigate, threshold
from .detector import test_statistic as window_statistic
from .factors import AnchorFactor, GpsFactor, OdometryFactor
from .liegroup import compose, rotation_to_quaternion
from .simkit import (TRAJECTORY_HEADER, MeasurementStream, Scenario,
                     build_measurements, write_table)
from .solver import WindowGraph

MODES = ("odometry-only", "naive-fgo", "sr-fgo")

WINDOW_SIZE_DEFAULT = 100
WINDOW_SHIFT_DEFAULT = 10


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    mode: str
    window_size: int = WINDOW_SIZE_DEFAULT
    window_shift: int = WINDOW_SHIFT_DEFAULT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # The first batch joins the one-node initial window, so a shift of N
        # would overflow it by one node with nothing left to evict.
        if not 1 <= self.window_shift < self.window_size:
            raise ValueError(
                f"need 1 <= shift < window size, got shift={self.window_shift} "
                f"N={self.window_size}")


@dataclass
class RunRecord:
    """Everything a run produced, in serialization-ready arrays: the
    estimates and errors have one row per times_s entry, the smoothed
    estimates one per smoothed_times_s entry."""

    times_s: np.ndarray
    est_translations: np.ndarray
    est_quaternions: np.ndarray
    errors: np.ndarray
    detections: list
    auth_events: list
    smoothed_times_s: np.ndarray
    smoothed_translations: np.ndarray
    smoothed_quaternions: np.ndarray
    summary: dict
    timing: dict

    def __post_init__(self):
        for times, names in (("times_s", ("est_translations", "est_quaternions", "errors")),
                             ("smoothed_times_s", ("smoothed_translations",
                                                   "smoothed_quaternions"))):
            rows = len(getattr(self, times))
            for name in names:
                if len(getattr(self, name)) != rows:
                    raise ValueError(f"{name} has {len(getattr(self, name))} rows, "
                                     f"expected one per {times} entry ({rows})")

    def __eq__(self, other) -> bool:
        # Equality covers the deterministic data products; the wall-clock
        # timing dict is excluded so repeated runs compare equal.
        if not isinstance(other, RunRecord):
            return NotImplemented
        arrays = all(np.array_equal(getattr(self, name), getattr(other, name))
                     for name in ("times_s", "est_translations", "est_quaternions",
                                  "errors", "smoothed_times_s",
                                  "smoothed_translations", "smoothed_quaternions"))
        return (arrays and self.detections == other.detections
                and self.auth_events == other.auth_events
                and self.summary == other.summary)


def l2_errors(est: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-step Euclidean distance between aligned (n, 3) position series."""
    if est.shape != ref.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {ref.shape}")
    return np.linalg.norm(ref - est, axis=1)


def summarize(series) -> tuple[float, float]:
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty error series")
    return float(arr.mean()), float(arr.max())


class DetectionStats(NamedTuple):
    mean_time_to_detect: Optional[float]


def detection_stats(records) -> DetectionStats:
    """Mean detection delay over the spoofed records: from the onset to the
    first raw threshold crossing (q > tau) at or after it.  summarize_runs
    counts the trials and crossings of any records, false alarms included.
    """
    delays = []
    for record in records:
        if record.summary["spoofed"]:
            t_start = record.summary["spoof_t_start_s"]
            post = [row["time_s"] for row in record.detections
                    if row["q"] > row["tau"] and row["time_s"] >= t_start]
            if post:
                delays.append(post[0] - t_start)
    return DetectionStats(float(np.mean(delays)) if delays else None)


def _auth_outcome(scenario: Scenario, t: float) -> str:
    """Authentication fails exactly while a ramping spoofer is active."""
    spoof = scenario.spoof
    active = spoof is not None and spoof.ramp_rate > 0.0 and t > spoof.t_start
    return "failed" if active else "authentic"


def _gps_factors_at(step: int, stream: MeasurementStream, every: int):
    """GPS factors of the step's epoch, which lies every `every` steps; none
    on a step without one."""
    if step % every:
        return []
    j = step // every
    return [GpsFactor(step, sat, rho)
            for sat, rho in zip(stream.gps_sats[j], stream.gps_ranges[j].tolist())]


def _batches(n_steps: int, shift: int, epoch: int) -> list:
    """Steps 1..n_steps split into the batches the window takes one at a
    time; a batch ends every shift steps, at every authentication epoch
    and at the end."""
    ends = sorted({*range(shift, n_steps, shift), *range(epoch, n_steps, epoch), n_steps})
    return [list(range(start + 1, end + 1)) for start, end in zip([0] + ends, ends)]


def run(cfg: RunConfig) -> RunRecord:
    """Execute one simulation run and return its record."""
    scenario = cfg.scenario
    stream = build_measurements(scenario)
    truth = scenario.truth
    n_steps = scenario.steps
    dt = scenario.dt
    epoch = slow_channel(dt)
    gps_every = scenario.gps_every_steps

    rot = np.empty((n_steps + 1, 3, 3))
    t = np.empty((n_steps + 1, 3))
    rot[0], t[0] = truth.rotation[0], truth.translation[0]  # authenticated initial fix
    auth_rows = [{"time_s": step * dt, "outcome": _auth_outcome(scenario, step * dt),
                  "action": "none"} for step in range(0, n_steps + 1, epoch)]
    detections: list = []
    opt_seconds: list = []
    iteration_counts: list = []
    windows_coasted = 0
    windows_not_converged = 0

    if cfg.mode == "odometry-only":
        pose = truth[0]
        for k in range(1, n_steps + 1):
            pose = compose(pose, stream.odometry[k - 1])
            rot[k], t[k] = pose.rotation, pose.translation
        smoothed_rot, smoothed_t = rot[-cfg.window_size:], t[-cfg.window_size:]
    else:
        sr_mode = cfg.mode == "sr-fgo"

        # A noiseless stream (sigma 0) still needs a finite weight; unit
        # sigma turns its terms into plain least squares.
        sigma_gps, *sigma_icp = (s if s > 0.0 else 1.0
                                 for s in (scenario.sigma_gps, *scenario.sigma_icp))
        initial_factors = [AnchorFactor(0, truth[0], fmod.anchor_information()),
                           *_gps_factors_at(0, stream, gps_every)]
        graph = WindowGraph([(0, truth[0])], initial_factors, cfg.window_size,
                            fmod.default_odometry_information(sigma_icp), sigma_gps)

        def authenticate(step: int, graph: WindowGraph) -> tuple[WindowGraph, int, bool]:
            row = auth_rows[step // epoch]
            result = on_authentication(AuthEvent(step, row["outcome"]), graph, epoch)
            row["action"] = result.action
            return result.graph, result.trust_until, result.action == "gps-excluded"

        # The spoofing latch: a detection or a failed authentication sets
        # it, an authentic one clears it.  While it holds, sr mode keeps GPS
        # out of the window.
        graph, trust_until, latched = (authenticate(0, graph) if sr_mode
                                       else (graph, -1, False))
        for batch in _batches(n_steps, cfg.window_shift, epoch):
            k_end = batch[-1]
            excluded = sr_mode and latched
            new_factors = []
            for i in batch:
                new_factors.append(OdometryFactor(i - 1, i, stream.odometry[i - 1]))
                if not excluded:
                    new_factors += _gps_factors_at(i, stream, gps_every)

            overflow = len(graph) + len(batch) - cfg.window_size
            if overflow > 0:
                graph = graph.slide(new_factors, overflow)
            else:
                graph = graph.append(new_factors)

            # A window taken while GPS is excluded holds only the odometry
            # chain and its anchor, which dead reckoning already satisfies:
            # it coasts on its estimates unsolved.
            if excluded:
                windows_coasted += 1
            else:
                started = time.perf_counter()
                report = graph.optimize()
                opt_seconds.append(time.perf_counter() - started)
                iteration_counts.append(report.iterations)
                windows_not_converged += not report.converged

            # The monitor runs in both graph modes so naive runs still log
            # an unmitigated trial sequence; only sr mode acts on a latch.
            stat = window_statistic(graph)
            if stat is not None:
                q, n = stat
                tau = threshold(n)
                decision = decide(q, tau, latched, monitoring=k_end > trust_until)
                detections.append({"time_s": k_end * dt, "q": q, "tau": tau,
                                   "n": n, "decision": decision})
                latched = decision == "spoof-detected"
                # sr mode strips GPS on a latch, so no trial runs latched.
                if sr_mode and latched:
                    graph = mitigate(graph)

            if sr_mode and k_end % epoch == 0:
                graph, trust_until, latched = authenticate(k_end, graph)
            # The batch is the newest nodes of the window.
            rot[batch], t[batch] = graph.rot[-len(batch):], graph.t[-len(batch):]

        smoothed_rot, smoothed_t = graph.rot, graph.t

    times_s = np.arange(n_steps + 1) * dt
    errors = l2_errors(t, truth.translation)
    mean_error, max_error = summarize(errors)
    detected = [row["time_s"] for row in detections if row["decision"] == "spoof-detected"]
    summary = {
        "mode": cfg.mode,
        "seed": scenario.seed,
        "dt": dt,
        "steps": n_steps,
        "window_size": cfg.window_size,
        "window_shift": cfg.window_shift,
        "alpha": ALPHA,
        "spoofed": scenario.spoof is not None and scenario.spoof.ramp_rate > 0.0,
        "spoof_t_start_s": scenario.spoof.t_start if scenario.spoof else None,
        "spoof_ramp_rate_mps": scenario.spoof.ramp_rate if scenario.spoof else None,
        "mean_error_m": mean_error,
        "max_error_m": max_error,
        "detector_trials": len(detections),
        "detector_crossings": sum(row["q"] > row["tau"] for row in detections),
        "first_detection_time_s": detected[0] if detected else None,
        "failsafe": any(row["action"] == "gps-excluded" for row in auth_rows),
        "windows_optimized": len(opt_seconds),
        "windows_coasted": windows_coasted,
        "windows_not_converged": windows_not_converged,
        # Mean over the solved windows; a coasted window takes no iteration.
        "mean_solver_iterations": (float(np.mean(iteration_counts))
                                   if iteration_counts else 0.0),
    }
    # Wall clock only; the window counts are in the summary.
    timing = {
        "mean_window_optimize_s": (float(np.mean(opt_seconds))
                                   if opt_seconds else 0.0),
        "total_optimize_s": float(np.sum(opt_seconds)),
    }

    return RunRecord(
        times_s=times_s,
        est_translations=t,
        est_quaternions=rotation_to_quaternion(rot),
        errors=errors,
        detections=detections,
        auth_events=auth_rows,
        smoothed_times_s=times_s[-len(smoothed_t):],
        smoothed_translations=smoothed_t,
        smoothed_quaternions=rotation_to_quaternion(smoothed_rot),
        summary=summary,
        timing=timing,
    )


def summarize_runs(summaries, mode: str = None, base_seed: int = None) -> dict:
    """Aggregate the summary dicts of runs (order-independent: sorted by
    seed)."""
    summaries = sorted(summaries, key=lambda summary: summary["seed"])
    means = [summary["mean_error_m"] for summary in summaries]
    maxes = [summary["max_error_m"] for summary in summaries]
    trials = sum(summary["detector_trials"] for summary in summaries)
    crossings = sum(summary["detector_crossings"] for summary in summaries)

    def stats(values):
        if not values:
            return {"mean": None, "std": None, "per_run": []}
        return {"mean": float(np.mean(values)), "std": float(np.std(values)),
                "per_run": [float(v) for v in values]}

    return {
        "mode": mode,
        "base_seed": base_seed,
        "runs": len(summaries),
        "mean_error_m": stats(means),
        "max_error_m": stats(maxes),
        "detector_trials": trials,
        "detector_crossings": crossings,
        "runs_with_crossing": sum(1 for summary in summaries
                                  if summary["detector_crossings"] > 0),
        "failsafe_runs": sum(1 for summary in summaries if summary["failsafe"]),
        "first_detection_times_s": [summary["first_detection_time_s"]
                                    for summary in summaries],
    }


# ---------------------------------------------------------------------------
# Serialization.  All floats are written with repr() so parsing returns the
# exact same values; only timing.json varies between identical runs.

def _fmt(value) -> str:
    return repr(float(value))


def _write_lines(path: Path, lines) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_run(record: RunRecord, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_table(out / "trajectory.csv", TRAJECTORY_HEADER, record.times_s,
                record.est_translations, record.est_quaternions, fmt="%r")
    write_table(out / "errors.csv", "time_s,l2_error_m", record.times_s, record.errors,
                fmt="%r")
    write_table(out / "smoothed.csv", TRAJECTORY_HEADER, record.smoothed_times_s,
                record.smoothed_translations, record.smoothed_quaternions, fmt="%r")

    det_lines = ["time_s,q,tau,n,decision"]
    det_lines += [f"{_fmt(r['time_s'])},{_fmt(r['q'])},{_fmt(r['tau'])},"
                  f"{r['n']},{r['decision']}" for r in record.detections]
    _write_lines(out / "detections.csv", det_lines)

    auth_lines = ["time_s,outcome,action"]
    auth_lines += [f"{_fmt(r['time_s'])},{r['outcome']},{r['action']}"
                   for r in record.auth_events]
    _write_lines(out / "auth.csv", auth_lines)

    (out / "summary.json").write_text(
        json.dumps(record.summary, indent=2, sort_keys=True) + "\n")
    (out / "timing.json").write_text(
        json.dumps(record.timing, indent=2, sort_keys=True) + "\n")
    return out


def _read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _read_float_csv(path: Path, width: int) -> np.ndarray:
    """(rows, width) values of a CSV of floats, its header line skipped."""
    fields = path.read_text().partition("\n")[2].replace(",", " ").split()
    if len(fields) % width:
        raise ValueError(f"{path}: expected {width} values per row")
    return np.array(list(map(float, fields))).reshape(-1, width)


def read_run(run_dir) -> RunRecord:
    run_dir = Path(run_dir)
    summary = json.loads((run_dir / "summary.json").read_text())
    timing = json.loads((run_dir / "timing.json").read_text())

    traj = _read_float_csv(run_dir / "trajectory.csv", 8)
    times, trans, quats = traj[:, 0], traj[:, 1:4], traj[:, 4:8]
    smooth = _read_float_csv(run_dir / "smoothed.csv", 8)
    s_times, s_trans, s_quats = smooth[:, 0], smooth[:, 1:4], smooth[:, 4:8]
    error_table = _read_float_csv(run_dir / "errors.csv", 2)
    if not np.array_equal(error_table[:, 0], times):
        raise ValueError(f"{run_dir / 'errors.csv'}: expected one row per trajectory.csv "
                         f"row at the same times, got {len(error_table)} rows "
                         f"against {len(times)}")
    errors = error_table[:, 1]

    _, det_rows = _read_csv(run_dir / "detections.csv")
    detections = [{"time_s": float(r[0]), "q": float(r[1]), "tau": float(r[2]),
                   "n": int(r[3]), "decision": r[4]} for r in det_rows]

    _, auth_csv_rows = _read_csv(run_dir / "auth.csv")
    auth_events = [{"time_s": float(r[0]), "outcome": r[1], "action": r[2]}
                   for r in auth_csv_rows]

    return RunRecord(
        times_s=times, est_translations=trans, est_quaternions=quats,
        errors=errors, detections=detections, auth_events=auth_events,
        smoothed_times_s=s_times, smoothed_translations=s_trans,
        smoothed_quaternions=s_quats, summary=summary, timing=timing)
