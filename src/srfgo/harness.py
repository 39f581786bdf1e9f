"""Experiment pipeline: mode wiring, metrics, and run serialization.

A run advances the sliding window one batch of nodes at a time.  After each
optimization the spoofing detector takes one trial, and at every
authentication epoch sr-fgo applies the outcome to the window; then the
batch estimates are recorded (causal estimates: what the vehicle would have
reported at that moment).  The estimates are arrays, rotations (n+1, 3, 3)
and translations (n+1, 3), one row per time step.  Every mode writes the
same authentication log: one row per epoch step from step 0 on, with the
outcome the spoofer forces and action "none"; sr-fgo alone acts on each
outcome and fills in its action.  Modes:

- odometry-only: dead-reckon by composing odometry from the initial fix.
- naive-fgo: sliding-window fusion of GPS and odometry, no detector.
- sr-fgo: naive-fgo plus chi-squared detection, mitigation, and
  authentication handling.

Run outputs are plain CSV/JSON; every float is written with repr precision
so records round-trip losslessly and repeated runs are byte-identical.
Wall-clock timing goes to a separate timing.json, which is the only
non-deterministic output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import factors as fmod
from .chimera import AuthEvent, AuthSchedule, on_authentication, slow_channel
from .detector import DetectorConfig, DetectorState, decide, mitigate, threshold
from .detector import test_statistic as window_statistic
from .factors import AnchorFactor, GpsFactor, OdometryFactor
from .liegroup import compose, rotation_to_quaternion
from .simkit import MeasurementStream, Scenario, build_measurements
from .solver import SolverParams, WindowGraph

MODES = ("odometry-only", "naive-fgo", "sr-fgo")

WINDOW_SIZE_DEFAULT = 100
WINDOW_SHIFT_DEFAULT = 10


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    mode: str
    window_size: int = WINDOW_SIZE_DEFAULT
    window_shift: int = WINDOW_SHIFT_DEFAULT
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    solver: Optional[SolverParams] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # The first batch joins the one-node initial window, so a shift of N
        # would overflow it by one node with nothing left to evict.
        if not 1 <= self.window_shift < self.window_size:
            raise ValueError(
                f"need 1 <= shift < window size, got shift={self.window_shift} "
                f"N={self.window_size}")

    @property
    def auth_schedule(self) -> AuthSchedule:
        return slow_channel(self.scenario.dt)


@dataclass
class RunRecord:
    """Everything a run produced, in serialization-ready arrays."""

    mode: str
    seed: int
    dt: float
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

    def __eq__(self, other) -> bool:
        # Equality covers the deterministic data products; the wall-clock
        # timing dict is excluded so repeated runs compare equal.
        if not isinstance(other, RunRecord):
            return NotImplemented
        scalar = (self.mode == other.mode and self.seed == other.seed
                  and self.dt == other.dt)
        arrays = all(np.array_equal(getattr(self, name), getattr(other, name))
                     for name in ("times_s", "est_translations", "est_quaternions",
                                  "errors", "smoothed_times_s",
                                  "smoothed_translations", "smoothed_quaternions"))
        return (scalar and arrays and self.detections == other.detections
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


def epoch_false_alarm_probability(alpha: float, trials: int) -> float:
    """Probability of at least one false alarm over independent trials."""
    return 1.0 - (1.0 - alpha) ** trials


class DetectionStats(NamedTuple):
    per_trial_fa_rate: float
    per_run_fa_rate: float
    mean_time_to_detect: Optional[float]


def detection_stats(records) -> DetectionStats:
    """False-alarm rates over nominal records, detection delay over spoofed.

    False alarms count raw threshold crossings (q > tau) so the rate keeps
    its per-trial meaning; the latched decision column additionally marks
    everything after the first crossing as spoof-detected.
    """
    nominal_trials = 0
    nominal_crossings = 0
    nominal_runs = 0
    runs_with_crossing = 0
    delays = []
    for record in records:
        crossings = [row for row in record.detections if row["q"] > row["tau"]]
        if record.summary["spoofed"]:
            t_start = record.summary["spoof_t_start_s"]
            post = [row["time_s"] for row in crossings if row["time_s"] >= t_start]
            if post:
                delays.append(post[0] - t_start)
        else:
            nominal_runs += 1
            nominal_trials += len(record.detections)
            nominal_crossings += len(crossings)
            runs_with_crossing += bool(crossings)
    per_trial = nominal_crossings / nominal_trials if nominal_trials else 0.0
    per_run = runs_with_crossing / nominal_runs if nominal_runs else 0.0
    ttd = float(np.mean(delays)) if delays else None
    return DetectionStats(per_trial, per_run, ttd)


def _auth_outcome(scenario: Scenario, t: float) -> str:
    """Authentication fails exactly while a ramping spoofer is active."""
    spoof = scenario.spoof
    active = spoof is not None and spoof.ramp_rate > 0.0 and t > spoof.t_start
    return "failed" if active else "authentic"


def _gps_factors_at(step: int, stream: MeasurementStream, sigma: float):
    """GPS factors of the step's epoch; none on a step without one."""
    sats, ranges = stream.gps_epochs.get(step, ((), ()))
    # A noiseless scenario (sigma 0) still needs a finite factor weight;
    # unit sigma turns the GPS terms into plain least squares.
    weight_sigma = sigma if sigma > 0.0 else 1.0
    return [GpsFactor(step, sat, float(rho), weight_sigma)
            for sat, rho in zip(sats, ranges)]


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
    epoch = cfg.auth_schedule.epoch_length_steps

    rot = np.empty((n_steps + 1, 3, 3))
    t = np.empty((n_steps + 1, 3))
    rot[0], t[0] = truth[0].rotation, truth[0].translation  # authenticated initial fix
    auth_rows = [{"time_s": step * dt, "outcome": _auth_outcome(scenario, step * dt),
                  "action": "none"} for step in range(0, n_steps + 1, epoch)]
    detections: list = []
    opt_seconds: list = []
    iteration_counts: list = []
    iteration_seconds: list = []

    if cfg.mode == "odometry-only":
        pose = truth[0]
        for k in range(1, n_steps + 1):
            pose = compose(pose, stream.odometry[k - 1])
            rot[k], t[k] = pose.rotation, pose.translation
        smoothed_rot, smoothed_t = rot[-cfg.window_size:], t[-cfg.window_size:]
    else:
        det_state = DetectorState()
        # Same unit-weight fallback as GPS: a noiseless run still needs a
        # finite information matrix on the odometry chain.
        odo_sigmas = tuple(s if s > 0.0 else 1.0 for s in scenario.sigma_icp)
        odo_info = fmod.default_odometry_information(odo_sigmas)
        sr_mode = cfg.mode == "sr-fgo"

        initial_factors = [AnchorFactor(0, truth[0], fmod.anchor_information()),
                           *_gps_factors_at(0, stream, scenario.sigma_gps)]
        graph = WindowGraph([(0, truth[0])], initial_factors, cfg.window_size)

        def authenticate(step: int, graph: WindowGraph) -> tuple[WindowGraph, int]:
            row = auth_rows[step // epoch]
            result = on_authentication(AuthEvent(step, row["outcome"]), det_state,
                                       graph, cfg.auth_schedule, cfg.solver)
            row["action"] = result.action
            return result.graph, result.trust_until

        graph, trust_until = authenticate(0, graph) if sr_mode else (graph, -1)
        for batch in _batches(n_steps, cfg.window_shift, epoch):
            k_end = batch[-1]
            new_factors = []
            for i in batch:
                new_factors.append(OdometryFactor(i - 1, i, stream.odometry[i - 1],
                                                  odo_info))
                if not det_state.gps_excluded:
                    new_factors += _gps_factors_at(i, stream, scenario.sigma_gps)

            overflow = len(graph) + len(batch) - cfg.window_size
            if overflow > 0:
                graph = graph.slide(batch, new_factors, overflow)
            else:
                graph = graph.append(batch, new_factors)

            started = time.perf_counter()
            report = graph.optimize(cfg.solver)
            opt_seconds.append(time.perf_counter() - started)
            iteration_counts.append(report.iterations)
            iteration_seconds.append(report.iteration_seconds)

            # The monitor runs in both graph modes so naive runs still log
            # an unmitigated trial sequence; only sr mode acts on a latch.
            stat = window_statistic(graph)
            if stat is not None:
                q, n = stat
                tau = threshold(cfg.detector, n)
                decision = decide(q, tau, det_state, monitoring=k_end > trust_until)
                detections.append({"time_s": k_end * dt, "q": q, "tau": tau,
                                   "n": n, "decision": decision})
                # sr mode strips GPS on a latch, so no trial runs latched.
                if sr_mode and decision == "spoof-detected":
                    graph = mitigate(graph, det_state, cfg.solver)

            if sr_mode and k_end % epoch == 0:
                graph, trust_until = authenticate(k_end, graph)
            # The batch is the newest nodes of the window.
            rot[batch], t[batch] = graph.rot[-len(batch):], graph.t[-len(batch):]

        smoothed_rot, smoothed_t = graph.rot, graph.t

    times_s = np.arange(n_steps + 1) * dt
    errors = l2_errors(t, np.array([p.translation for p in truth]))
    mean_error, max_error = summarize(errors)
    latched = [row["time_s"] for row in detections if row["decision"] == "spoof-detected"]
    summary = {
        "mode": cfg.mode,
        "seed": scenario.seed,
        "dt": dt,
        "steps": n_steps,
        "window_size": cfg.window_size,
        "window_shift": cfg.window_shift,
        "alpha": cfg.detector.alpha,
        "spoofed": scenario.spoof is not None and scenario.spoof.ramp_rate > 0.0,
        "spoof_t_start_s": scenario.spoof.t_start if scenario.spoof else None,
        "spoof_ramp_rate_mps": scenario.spoof.ramp_rate if scenario.spoof else None,
        "mean_error_m": mean_error,
        "max_error_m": max_error,
        "detector_trials": len(detections),
        "detector_crossings": sum(row["q"] > row["tau"] for row in detections),
        "first_detection_time_s": latched[0] if latched else None,
        "failsafe": any(row["action"] == "gps-excluded" for row in auth_rows),
        "windows_optimized": len(opt_seconds),
        "mean_solver_iterations": (float(np.mean(iteration_counts))
                                   if iteration_counts else 0.0),
    }
    total_iterations = int(np.sum(iteration_counts))
    timing = {
        "windows_optimized": len(opt_seconds),
        "mean_window_optimize_s": (float(np.mean(opt_seconds))
                                   if opt_seconds else 0.0),
        "total_optimize_s": float(np.sum(opt_seconds)),
        # Mean time per accepted solver iteration, measured inside the
        # iteration loop so per-call setup does not pollute the scaling.
        "mean_iteration_s": (float(np.sum(iteration_seconds)) / total_iterations
                             if total_iterations else 0.0),
    }

    return RunRecord(
        mode=cfg.mode,
        seed=scenario.seed,
        dt=dt,
        times_s=times_s,
        est_translations=t,
        est_quaternions=np.array([rotation_to_quaternion(r) for r in rot]),
        errors=errors,
        detections=detections,
        auth_events=auth_rows,
        smoothed_times_s=times_s[-len(smoothed_t):],
        smoothed_translations=smoothed_t,
        smoothed_quaternions=np.array([rotation_to_quaternion(r)
                                       for r in smoothed_rot]),
        summary=summary,
        timing=timing,
    )


def summarize_runs(records, mode: str = None, base_seed: int = None) -> dict:
    """Aggregate per-run summaries (order-independent: sorted by seed)."""
    records = sorted(records, key=lambda r: r.seed)
    means = [r.summary["mean_error_m"] for r in records]
    maxes = [r.summary["max_error_m"] for r in records]
    trials = sum(r.summary["detector_trials"] for r in records)
    crossings = sum(r.summary["detector_crossings"] for r in records)

    def stats(values):
        if not values:
            return {"mean": None, "std": None, "per_run": []}
        return {"mean": float(np.mean(values)), "std": float(np.std(values)),
                "per_run": [float(v) for v in values]}

    return {
        "mode": mode,
        "base_seed": base_seed,
        "runs": len(records),
        "mean_error_m": stats(means),
        "max_error_m": stats(maxes),
        "detector_trials": trials,
        "detector_crossings": crossings,
        "runs_with_crossing": sum(1 for r in records
                                  if r.summary["detector_crossings"] > 0),
        "failsafe_runs": sum(1 for r in records if r.summary["failsafe"]),
        "first_detection_times_s": [r.summary["first_detection_time_s"]
                                    for r in records],
    }


# ---------------------------------------------------------------------------
# Serialization.  All floats are written with repr() so parsing returns the
# exact same values; only timing.json varies between identical runs.

def _fmt(value) -> str:
    return repr(float(value))


def _pose_csv_lines(times_s, translations, quaternions):
    lines = ["t,x,y,z,qx,qy,qz,qw"]
    for t, p, q in zip(times_s, translations, quaternions):
        lines.append(",".join(_fmt(v) for v in (t, p[0], p[1], p[2],
                                                q[0], q[1], q[2], q[3])))
    return lines


def write_run(record: RunRecord, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    (out / "trajectory.csv").write_text("\n".join(_pose_csv_lines(
        record.times_s, record.est_translations, record.est_quaternions)) + "\n")
    (out / "smoothed.csv").write_text("\n".join(_pose_csv_lines(
        record.smoothed_times_s, record.smoothed_translations,
        record.smoothed_quaternions)) + "\n")

    err_lines = ["time_s,l2_error_m"]
    err_lines += [f"{_fmt(t)},{_fmt(e)}"
                  for t, e in zip(record.times_s, record.errors)]
    (out / "errors.csv").write_text("\n".join(err_lines) + "\n")

    det_lines = ["time_s,q,tau,n,decision"]
    det_lines += [f"{_fmt(r['time_s'])},{_fmt(r['q'])},{_fmt(r['tau'])},"
                  f"{r['n']},{r['decision']}" for r in record.detections]
    (out / "detections.csv").write_text("\n".join(det_lines) + "\n")

    auth_lines = ["time_s,outcome,action"]
    auth_lines += [f"{_fmt(r['time_s'])},{r['outcome']},{r['action']}"
                   for r in record.auth_events]
    (out / "auth.csv").write_text("\n".join(auth_lines) + "\n")

    (out / "summary.json").write_text(
        json.dumps(record.summary, indent=2, sort_keys=True) + "\n")
    (out / "timing.json").write_text(
        json.dumps(record.timing, indent=2, sort_keys=True) + "\n")
    return out


def _read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def read_run(run_dir) -> RunRecord:
    run_dir = Path(run_dir)
    summary = json.loads((run_dir / "summary.json").read_text())
    timing = json.loads((run_dir / "timing.json").read_text())

    _, traj_rows = _read_csv(run_dir / "trajectory.csv")
    times = np.array([float(r[0]) for r in traj_rows])
    trans = np.array([[float(v) for v in r[1:4]] for r in traj_rows])
    quats = np.array([[float(v) for v in r[4:8]] for r in traj_rows])

    _, smooth_rows = _read_csv(run_dir / "smoothed.csv")
    s_times = np.array([float(r[0]) for r in smooth_rows])
    s_trans = np.array([[float(v) for v in r[1:4]] for r in smooth_rows])
    s_quats = np.array([[float(v) for v in r[4:8]] for r in smooth_rows])

    _, err_rows = _read_csv(run_dir / "errors.csv")
    errors = np.array([float(r[1]) for r in err_rows])

    _, det_rows = _read_csv(run_dir / "detections.csv")
    detections = [{"time_s": float(r[0]), "q": float(r[1]), "tau": float(r[2]),
                   "n": int(r[3]), "decision": r[4]} for r in det_rows]

    _, auth_csv_rows = _read_csv(run_dir / "auth.csv")
    auth_events = [{"time_s": float(r[0]), "outcome": r[1], "action": r[2]}
                   for r in auth_csv_rows]

    return RunRecord(
        mode=summary["mode"], seed=summary["seed"], dt=summary["dt"],
        times_s=times, est_translations=trans, est_quaternions=quats,
        errors=errors, detections=detections, auth_events=auth_events,
        smoothed_times_s=s_times, smoothed_translations=s_trans,
        smoothed_quaternions=s_quats, summary=summary, timing=timing)
