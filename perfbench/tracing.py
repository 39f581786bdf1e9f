"""Spans around srfgo's public functions, recorded from outside the program.

Each patch point replaces one name in the namespace where its caller looks
it up (``srfgo.harness.build_measurements``, ``WindowGraph.optimize``,
``scipy.linalg.solveh_banded`` ...) with a wrapper that records a span:
name, start, end, parent span and run id.  ``installed`` puts every
wrapper in place and restores every original on exit.  Spans stay in
memory until the benchmark writes them out.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        """fn recording one span per call; on_result(counter, args, result)
        adds counts taken at the same boundary."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counters[self.run_id], args, result)
            return result

        return traced

    def run_spans(self, run_id: str) -> list:
        """(span, self seconds) for every span of one run."""
        cover = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                cover[span.parent].append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            if span.run == run_id:
                out.append((span, span.end - span.start
                            - _covered(span, cover.get(index, ()))))
        return out

    def records(self) -> list:
        """[id, name, start, end, parent id, run id] for every span."""
        return [[i, s.name, s.start, s.end, s.parent, s.run]
                for i, s in enumerate(self.spans)]


def _covered(span: Span, intervals) -> float:
    """Length of the union of intervals, clipped to the span."""
    total, reach = 0.0, span.start
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


# -- counts taken at span boundaries ---------------------------------------

def _solve_report(counter, args, report):
    counter["solver.iterations"] += report.iterations
    counter["solver.not_converged"] += not report.converged


def _decision(counter, args, result):
    q, tau = args[0], args[1]
    counter["detector.crossings"] += q > tau


def _authentication(counter, args, result):
    counter["chimera.auth_failed"] += args[0].outcome == "failed"


def _written(counter, args, out_dir):
    counter["harness.bytes_written"] += sum(
        p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def patch_points(cli, harness, simkit, solver, chimera, liegroup, scipy_linalg):
    """(namespace, attribute, span name, count hook) for every traced call."""
    graph = solver.WindowGraph
    return [
        (cli, "main", "cli.main", None),
        (cli, "gen_trajectory", "simkit.gen_trajectory", None),
        (cli, "run_pipeline", "harness.run", None),
        (cli, "write_run", "harness.write_run", _written),
        (cli, "read_run", "harness.read_run", None),
        (harness, "build_measurements", "simkit.build_measurements", None),
        (harness, "compose", "liegroup.compose", None),
        (simkit, "compose", "liegroup.compose", None),
        (liegroup, "compose", "liegroup.compose", None),
        (liegroup, "se3_log_arrays", "liegroup.se3_log_arrays", None),
        (liegroup, "se3_left_jacobian_inv", "liegroup.se3_left_jacobian_inv", None),
        (harness, "OdometryFactor", "factors.OdometryFactor", None),
        (harness, "GpsFactor", "factors.GpsFactor", None),
        (graph, "optimize", "solver.optimize", _solve_report),
        (graph, "append", "solver.append", None),
        (graph, "slide", "solver.slide", None),
        (graph, "strip_gps", "solver.strip_gps", None),
        (graph, "gps_residuals", "solver.gps_residuals", None),
        (scipy_linalg, "solveh_banded", "solver.solveh_banded", None),
        (harness, "window_statistic", "detector.test_statistic", None),
        (harness, "threshold", "detector.threshold", None),
        (harness, "decide", "detector.decide", _decision),
        (harness, "mitigate", "detector.mitigate", None),
        (chimera, "mitigate", "detector.mitigate", None),
        (harness, "on_authentication", "chimera.on_authentication", _authentication),
    ]


@contextmanager
def installed(tracer: Tracer, points):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in points]
    try:
        for (owner, attr, name, hook), (_, _, fn) in zip(points, originals):
            setattr(owner, attr, tracer.wrap(name, fn, hook))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def unrestored(points, originals) -> list:
    """Patch points whose current value is not the original object."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr, _, _), fn in zip(points, originals)
            if getattr(owner, attr) is not fn]


# -- per-layer metrics -----------------------------------------------------

# (metric, unit, repeats exactly between passes).  Times are seconds per
# pass, inclusive of child spans unless the name says self.
LAYER_METRICS = [
    ("simkit.gen_trajectory_s", "s", False),
    ("simkit.build_measurements_s", "s", False),
    ("simkit.build_measurements_calls", "count", True),
    ("liegroup.compose_calls", "count", True),
    ("liegroup.compose_s", "s", False),
    ("liegroup.se3_log_arrays_calls", "count", True),
    ("liegroup.se3_log_arrays_s", "s", False),
    ("liegroup.se3_left_jacobian_inv_s", "s", False),
    ("factors.odometry_factors", "count", True),
    ("factors.gps_factors", "count", True),
    ("factors.construct_s", "s", False),
    ("solver.windows", "count", True),
    ("solver.optimize_s", "s", False),
    ("solver.optimize_self_s", "s", False),
    ("solver.optimize_p50_ms", "ms", False),
    ("solver.optimize_p95_ms", "ms", False),
    ("solver.iterations", "count", True),
    ("solver.banded_solves", "count", True),
    ("solver.banded_solve_s", "s", False),
    ("solver.accept_ratio", "ratio", True),
    ("solver.not_converged", "count", True),
    ("solver.window_update_s", "s", False),
    ("solver.gps_residuals_s", "s", False),
    ("detector.trials", "count", True),
    ("detector.crossings", "count", True),
    ("detector.trial_s", "s", False),
    ("detector.mitigations", "count", True),
    ("detector.mitigate_s", "s", False),
    ("chimera.auth_events", "count", True),
    ("chimera.auth_failed", "count", True),
    ("chimera.on_authentication_s", "s", False),
    ("harness.runs", "count", True),
    ("harness.run_self_s", "s", False),
    ("harness.write_run_s", "s", False),
    ("harness.read_run_s", "s", False),
    ("harness.bytes_written", "B", False),  # timing.json's length varies
    ("cli.command_s", "s", False),
    ("cli.self_s", "s", False),
]


def pass_metrics(tracer: Tracer, run_id: str) -> tuple[dict, list]:
    """Per-layer values of one traced pass, and its optimize durations."""
    spans = tracer.run_spans(run_id)
    calls, total, own = Counter(), Counter(), Counter()
    optimize_ms = []
    for span, self_s in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        own[span.name] += self_s
        if span.name == "solver.optimize":
            optimize_ms.append(1000.0 * duration)
    counts = tracer.counters[run_id]
    banded = calls["solver.solveh_banded"]
    values = {
        "simkit.gen_trajectory_s": total["simkit.gen_trajectory"],
        "simkit.build_measurements_s": total["simkit.build_measurements"],
        "simkit.build_measurements_calls": calls["simkit.build_measurements"],
        "liegroup.compose_calls": calls["liegroup.compose"],
        "liegroup.compose_s": total["liegroup.compose"],
        "liegroup.se3_log_arrays_calls": calls["liegroup.se3_log_arrays"],
        "liegroup.se3_log_arrays_s": total["liegroup.se3_log_arrays"],
        "liegroup.se3_left_jacobian_inv_s": total["liegroup.se3_left_jacobian_inv"],
        "factors.odometry_factors": calls["factors.OdometryFactor"],
        "factors.gps_factors": calls["factors.GpsFactor"],
        "factors.construct_s": (total["factors.OdometryFactor"]
                                + total["factors.GpsFactor"]),
        "solver.windows": calls["solver.optimize"],
        "solver.optimize_s": total["solver.optimize"],
        "solver.optimize_self_s": own["solver.optimize"],
        "solver.iterations": counts["solver.iterations"],
        "solver.banded_solves": banded,
        "solver.banded_solve_s": total["solver.solveh_banded"],
        "solver.accept_ratio": counts["solver.iterations"] / banded if banded else 0.0,
        "solver.not_converged": counts["solver.not_converged"],
        "solver.window_update_s": (total["solver.append"] + total["solver.slide"]
                                   + total["solver.strip_gps"]),
        "solver.gps_residuals_s": total["solver.gps_residuals"],
        "detector.trials": calls["detector.decide"],
        "detector.crossings": counts["detector.crossings"],
        "detector.trial_s": (total["detector.test_statistic"]
                             + total["detector.threshold"] + total["detector.decide"]),
        "detector.mitigations": calls["detector.mitigate"],
        "detector.mitigate_s": total["detector.mitigate"],
        "chimera.auth_events": calls["chimera.on_authentication"],
        "chimera.auth_failed": counts["chimera.auth_failed"],
        "chimera.on_authentication_s": total["chimera.on_authentication"],
        "harness.runs": calls["harness.run"],
        "harness.run_self_s": own["harness.run"],
        "harness.write_run_s": total["harness.write_run"],
        "harness.read_run_s": total["harness.read_run"],
        "harness.bytes_written": counts["harness.bytes_written"],
        "cli.command_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
    }
    values["self_total_s"] = sum(self_s for _, self_s in spans)
    return values, optimize_ms


def combine_passes(per_pass: list, optimize_ms: list) -> tuple[dict, list]:
    """Exact metrics must repeat across passes; the rest take the median."""
    failures = []
    combined = {}
    for name, _, exact in LAYER_METRICS:
        values = [p[name] for p in per_pass if name in p]
        if exact:
            if len(set(values)) > 1:
                failures.append(f"{name} differs between traced passes: {values}")
            combined[name] = values[0]
        elif values:
            combined[name] = statistics.median(values)
    quartiles = statistics.quantiles(optimize_ms, n=20) if len(optimize_ms) > 1 else None
    combined["solver.optimize_p50_ms"] = statistics.median(optimize_ms) if optimize_ms else 0.0
    combined["solver.optimize_p95_ms"] = quartiles[18] if quartiles else combined["solver.optimize_p50_ms"]
    return combined, failures
