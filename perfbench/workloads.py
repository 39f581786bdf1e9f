"""The benchmark's workloads: the srfgo commands one pass runs, and the
checks its output directory must pass.

Every workload is a closed loop in one process: a pass issues its commands
one after another through ``srfgo.cli.main``, each waiting for the last.
Every pass of one benchmark run uses the same seed, so every pass must
write the same deterministic files as the first.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Wall-clock data; the only run file allowed to differ between passes.
NONDETERMINISTIC_FILES = {"timing.json"}

SWEEP_MODES = ("odometry-only", "naive-fgo")
SWEEP_RAMP_RATES = ("0", "1.0")

FULL_SIZES = {
    "attack_duration": 200, "spoof_start": 100, "attack_window": 100,
    "nominal_duration": 300, "nominal_window": 300,
    "sweep_duration": 200, "sweep_runs": 3, "sweep_window": 20,
    "sweep_workers": 2,
}
# Smallest scenarios srfgo accepts (one 180 s authentication epoch); used
# by the smoke test only.
TINY_SIZES = {
    "attack_duration": 180, "spoof_start": 60, "attack_window": 100,
    "nominal_duration": 180, "nominal_window": 60,
    "sweep_duration": 180, "sweep_runs": 1, "sweep_window": 20,
    "sweep_workers": 2,
}


@dataclass(frozen=True)
class Workload:
    name: str
    runs: int                  # pipeline runs per pass
    sim_seconds: float         # simulated seconds per pass
    # (seed, output directory, traced run) -> argv list, one per command
    commands: Callable[[int, Path, bool], list]
    # output directory -> list of failed checks (empty when all pass)
    check: Callable[[Path], list]


def workloads(tiny: bool = False) -> dict:
    s = TINY_SIZES if tiny else FULL_SIZES
    found = [_attack_circuit(s), _nominal_wide(s), _sweep(s)]
    return {w.name: w for w in found}


def _attack_circuit(s: dict) -> Workload:
    def commands(seed, out, traced_run):
        return [["run", "--mode", "sr-fgo", "--kind", "circuit",
                 "--duration", str(s["attack_duration"]), "--ramp-rate", "1.0",
                 "--spoof-start", str(s["spoof_start"]),
                 "--window-size", str(s["attack_window"]),
                 "--seed", str(seed), "--out", str(out / "run")]]

    def check(out):
        return check_runs(out) + check_detection_after_onset(out)

    # Solver-heavy; the only workload with detection, mitigation and a
    # failed authentication.
    return Workload("attack-circuit", 1, float(s["attack_duration"]),
                    commands, check)


def _nominal_wide(s: dict) -> Workload:
    def commands(seed, out, traced_run):
        return [["run", "--mode", "sr-fgo", "--kind", "random-smooth-turn",
                 "--duration", str(s["nominal_duration"]),
                 "--window-size", str(s["nominal_window"]),
                 "--seed", str(seed), "--out", str(out / "run")]]

    # The largest normal equations per solve; no mitigation, authentic
    # readmission.
    return Workload("nominal-wide", 1, float(s["nominal_duration"]),
                    commands, check_runs)


def _sweep(s: dict) -> Workload:
    runs = s["sweep_runs"]
    cells = len(SWEEP_MODES) * len(SWEEP_RAMP_RATES)

    def commands(seed, out, traced_run):
        # Worker processes keep their spans, so every pass of a traced run
        # sweeps in-process, untraced passes too, to compare like with like.
        workers = 1 if traced_run else s["sweep_workers"]
        return [["sweep", "--mode", ",".join(SWEEP_MODES),
                 "--ramp-rate", ",".join(SWEEP_RAMP_RATES),
                 "--window-size", str(s["sweep_window"]),
                 "--workers", str(workers), "--kind", "circuit",
                 "--duration", str(s["sweep_duration"]), "--runs", str(runs),
                 "--seed", str(seed), "--out", str(out / "sweep")],
                ["report", str(out / "sweep")]]

    def check(out):
        return check_runs(out) + check_sweep_complete(out / "sweep", cells, runs)

    # Many short small-window runs in a process pool, then a report:
    # measurement synthesis and run I/O dominate, not the solver.
    return Workload("sweep", cells * runs,
                    float(cells * runs * s["sweep_duration"]), commands, check)


# ---------------------------------------------------------------------------
# Output checks and the quality figures read from the same files.

def run_dirs(out: Path) -> list:
    return sorted(p.parent for p in out.rglob("trajectory.csv"))


def _csv_rows(path: Path) -> list:
    lines = path.read_text().strip().split("\n")
    return [line.split(",") for line in lines[1:]]


def _summary(run_dir: Path) -> dict:
    return json.loads((run_dir / "summary.json").read_text())


def check_runs(out: Path) -> list:
    """At least one run was written and every position error is finite."""
    dirs = run_dirs(out)
    if not dirs:
        return [f"no run directories under {out}"]
    failures = []
    for run_dir in dirs:
        errors = [float(row[1]) for row in _csv_rows(run_dir / "errors.csv")]
        summary = _summary(run_dir)
        values = errors + [summary["mean_error_m"], summary["max_error_m"]]
        if not errors or not all(math.isfinite(v) for v in values):
            failures.append(f"{run_dir.name}: non-finite or missing errors")
    return failures


def detection_after_onset(run_dir: Path):
    """Time of the first threshold crossing at or after the attack onset
    on which the detector is latched, or None."""
    onset = _summary(run_dir)["spoof_t_start_s"]
    for row in _csv_rows(run_dir / "detections.csv"):
        t, q, tau, decision = float(row[0]), float(row[1]), float(row[2]), row[4]
        if t >= onset and q > tau and decision == "spoof-detected":
            return t
    return None


def latched_after_onset(run_dir: Path) -> bool:
    """The detector is latched at some time at or after the attack onset:
    a latched trial after it, or a latch before it (a false alarm, which
    excludes GPS and so stops the trials) that no successful
    authentication cleared by the onset."""
    onset = _summary(run_dir)["spoof_t_start_s"]
    latched = [float(row[0]) for row in _csv_rows(run_dir / "detections.csv")
               if row[4] == "spoof-detected"]
    if any(t >= onset for t in latched):
        return True
    cleared = [float(row[0]) for row in _csv_rows(run_dir / "auth.csv")
               if row[1] == "authentic"]
    return bool(latched) and not any(max(latched) < t <= onset for t in cleared)


def check_detection_after_onset(out: Path) -> list:
    return [f"{d.name}: detector not latched after the attack onset"
            for d in run_dirs(out) if not latched_after_onset(d)]


def check_sweep_complete(sweep: Path, cells: int, runs: int) -> list:
    """Every cell holds all its runs in summary.json and in the report."""
    failures = []
    summary = json.loads((sweep / "summary.json").read_text())
    if len(summary["cells"]) != cells:
        failures.append(f"summary.json has {len(summary['cells'])} cells, "
                        f"expected {cells}")
    report = json.loads((sweep / "report.json").read_text())
    for cell in summary["cells"]:
        name = (f"{cell['mode']}-r{cell['ramp_rate']:g}-"
                f"N{cell['window_size']}")
        reported = sum(1 for row in report["runs"]
                       if Path(row["dir"]).parts[0] == name)
        if cell["runs"] != runs or cell["failures"] or reported != runs:
            failures.append(f"{name}: {cell['runs']} runs in summary.json, "
                            f"{reported} in the report, expected {runs}")
    return failures


def quality(out: Path) -> dict:
    """Accuracy figures: mean of run mean errors, largest run max error,
    and the mean delay from onset to detection over spoofed sr-fgo runs."""
    summaries = [(d, _summary(d)) for d in run_dirs(out)]
    figures = {
        "mean_error_m": sum(s["mean_error_m"] for _, s in summaries) / len(summaries),
        "max_error_m": max(s["max_error_m"] for _, s in summaries),
    }
    delays = []
    for run_dir, summary in summaries:
        # Only sr-fgo acts on a detection; naive-fgo keeps any early latch.
        acts = summary["spoofed"] and summary["mode"] == "sr-fgo"
        detected = detection_after_onset(run_dir) if acts else None
        if detected is not None:
            delays.append(detected - summary["spoof_t_start_s"])
    if delays:
        figures["detection_delay_s"] = sum(delays) / len(delays)
    return figures


def output_digest(out: Path) -> dict:
    """sha256 of every deterministic file, keyed by path under out."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name not in NONDETERMINISTIC_FILES}
