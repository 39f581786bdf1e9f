"""srfgo benchmark: run one workload through ``srfgo.cli.main`` in-process.

    python3 perfbench/run.py --workload attack-circuit --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; srfgo is imported from ``src/``.
A run repeats passes of the workload, all on the same seed, for about
``--seconds`` (three passes at least, the first a warm-up that is not
timed), checks every pass's
output, and prints one JSON object as its last line of output:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics taken from the
traced ones, plus the tracing overhead.  The result, with the machine
block, goes to ``perfbench/out/result-<workload>-trace<0|1>.json`` and the
traced spans to ``perfbench/out/spans-<workload>.jsonl``.

Exit codes: 0 all checks passed, 1 a check failed (the JSON line is still
printed), 2 the benchmark could not start (no srfgo source, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import output_digest, quality, workloads  # noqa: E402

# Interpreter starts timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
# Passes per run at least: the first warms caches and lazy imports, is not
# timed, and is the reference the others' outputs must equal.
MIN_PASSES = 3
READY = "import srfgo.cli as cli; cli.build_parser()"

E2E_UNITS = {"setup_s": "s", "realtime_factor": "s/s", "runs_per_s": "1/s",
             "peak_rss_mb": "MB"}
QUALITY_UNITS = {"mean_error_m": "m", "max_error_m": "m", "detection_delay_s": "s"}
TRACE_UNITS = {"trace.realtime_factor_untraced": "s/s",
               "trace.realtime_factor_traced": "s/s",
               "trace.overhead": "s/s", "trace.unaccounted_s": "s"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_srfgo():
    """srfgo's modules, imported from this checkout's src/ and nowhere else."""
    if not (SRC / "srfgo" / "cli.py").is_file():
        raise BenchError(f"no srfgo source at {SRC / 'srfgo'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scipy.linalg
    from srfgo import chimera, cli, harness, liegroup, simkit, solver
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"srfgo imported from {cli.__file__}, not {SRC}")
    return {"cli": cli, "harness": harness, "simkit": simkit, "solver": solver,
            "chimera": chimera, "liegroup": liegroup,
            "scipy_linalg": scipy.linalg}


def git_commit() -> str:
    """HEAD of this checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name,
            "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "platform": platform.platform(), "git_commit": git_commit(),
            "seed": seed}


def setup_seconds(repeats: int) -> float:
    """Median wall time from a fresh interpreter to srfgo.cli ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", READY], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_pass(cli, workload, seed: int, work: Path, traced_run: bool) -> dict:
    """One pass of the workload into a fresh work directory."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wall, failures = 0.0, []
    commands = workload.commands(seed, work, traced_run)
    for argv in commands:
        captured = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)  # looked up per call: the traced pass wraps it
        except Exception as err:  # noqa: BLE001 - counted as a failed operation
            code = f"{type(err).__name__}: {err}"
        wall += time.perf_counter() - started
        if code != 0:
            failures.append(f"srfgo {argv[0]} exited {code}: {captured.getvalue()[-500:]}")
    failed_ops = len(failures)
    digest, figures = None, {}
    if not failures:
        try:
            failures = workload.check(work)
            digest, figures = output_digest(work), quality(work)
        except (OSError, ValueError, KeyError, IndexError) as err:
            failures = [f"unreadable output: {type(err).__name__}: {err}"]
        failed_ops = 1 if failures else 0
    return {"wall_s": wall, "ops": len(commands), "failed_ops": failed_ops,
            "failures": failures, "digest": digest, "quality": figures}


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, out: Path = OUT) -> dict:
    """Run one workload for `seconds` and return its result record."""
    modules = import_srfgo()
    cli = modules["cli"]
    workload = workloads(tiny)[name]
    work = out / "work" / name
    result = {"workload": name, "trace": int(trace), "machine": machine(seed),
              "seconds": seconds}
    setup = setup_seconds(2 if tiny else SETUP_REPEATS) if not trace else None

    tracer = tracing.Tracer()
    points = tracing.patch_points(**modules)
    originals = [getattr(owner, attr) for owner, attr, _, _ in points]
    passes, failures = [], []
    started = time.perf_counter()
    # Stop at the pass count whose total lies nearest `seconds`, so a run
    # takes about `seconds` however long one pass is.
    while len(passes) < MIN_PASSES or (
            (elapsed := time.perf_counter() - started)
            + 0.5 * elapsed / len(passes) < seconds):
        # In a traced run, odd passes are traced, even passes untraced.
        traced_pass = trace and len(passes) % 2 == 1
        tracer.run_id = f"{name}/pass{len(passes)}"
        if traced_pass:
            with tracing.installed(tracer, points):
                record = run_pass(cli, workload, seed, work, trace)
            failures += [f"not restored after tracing: {p}"
                         for p in tracing.unrestored(points, originals)]
        else:
            record = run_pass(cli, workload, seed, work, trace)
        record["traced"] = traced_pass
        first = passes[0]["digest"] if passes else None
        if first and record["digest"] and record["digest"] != first:
            record["failures"].append("outputs differ from the first pass")
            record["failed_ops"] = max(record["failed_ops"], 1)
        failures += record["failures"]
        passes.append(record)
    shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes[1:] if not p["traced"]]
    rtf = statistics.median(workload.sim_seconds / p["wall_s"] for p in untraced)
    if trace:
        metrics, trace_failures = _layer_metrics(tracer, passes, workload, rtf)
        failures += trace_failures
        units = {**{n: u for n, u, _ in tracing.LAYER_METRICS}, **TRACE_UNITS}
    else:
        metrics = {"setup_s": setup, "realtime_factor": rtf,
                   "runs_per_s": statistics.median(
                       workload.runs / p["wall_s"] for p in untraced),
                   "peak_rss_mb": peak_rss_mb()}
        units = E2E_UNITS
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed_ops"] for p in passes)
    if failures and not failed:  # a trace check failed, not a pass
        failed = 1
    result.update({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "quality": {k: {"value": v, "unit": QUALITY_UNITS[k]}
                    for k, v in passes[0]["quality"].items()},
        "passes": [{k: p[k] for k in ("wall_s", "traced", "ops", "failed_ops")}
                   for p in passes],
    })
    if trace:
        result["spans"] = tracer.records()
    return result


def _layer_metrics(tracer, passes, workload, untraced_rtf):
    traced = [(i, p) for i, p in enumerate(passes) if p["traced"]]
    per_pass, optimize_ms = [], []
    for index, record in traced:
        values, durations = tracing.pass_metrics(tracer, f"{workload.name}/pass{index}")
        values["unaccounted_s"] = record["wall_s"] - values["self_total_s"]
        per_pass.append(values)
        optimize_ms += durations
    metrics, failures = tracing.combine_passes(per_pass, optimize_ms)
    traced_rtf = statistics.median(workload.sim_seconds / p["wall_s"]
                                   for _, p in traced)
    unaccounted = statistics.median(v["unaccounted_s"] for v in per_pass)
    metrics.update({"trace.realtime_factor_untraced": untraced_rtf,
                    "trace.realtime_factor_traced": traced_rtf,
                    "trace.overhead": untraced_rtf - traced_rtf,
                    "trace.unaccounted_s": unaccounted})
    # Self times of a traced pass must add up to its wall time, within the
    # tracing overhead in seconds (or 1% of wall when noise hides it).
    untraced_wall = statistics.median(p["wall_s"] for p in passes[1:] if not p["traced"])
    for values, (_, record) in zip(per_pass, traced):
        allowed = max(record["wall_s"] - untraced_wall, 0.01 * record["wall_s"])
        if abs(values["unaccounted_s"]) > allowed:
            failures.append(f"self times {values['self_total_s']:.4f} s do not "
                            f"reconcile with wall {record['wall_s']:.4f} s")
    return metrics, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # One file per workload and mode, replaced by each run, so disk use
    # stays bounded however many seeds are run.
    spans = result.pop("spans", None)
    if spans is not None:
        with open(OUT / f"spans-{args.workload}.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")

    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"passes: {len(result['passes'])} "
          f"({sum(p['traced'] for p in result['passes'])} traced)")
    if args.trace and args.workload == "sweep":
        print("note: the traced sweep runs its grid with 1 worker; "
              "worker processes do not send spans back")
    for group in ("metrics", "quality"):
        for key, metric in result[group].items():
            print(f"{key}: {metric['value']} {metric['unit']}")
    print(f"error_rate: {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in result["metrics"].items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
