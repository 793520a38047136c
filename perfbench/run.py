"""Benchmark of the pirings command line: ring, zonoid and mc workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ring --seed 1 --seconds 30 --trace 0

Load shape: one client in a closed loop.  This process starts the jobs
of the workload one after another, each as a fresh `python -m
pirings.cli` subprocess, so interpreter start and imports count as they
do for a user.  BLAS is pinned to one thread in the job environment.
The job list is repeated until the next repetition would overrun
--seconds (at least once); every output is checked against references
that do not use pirings.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 replays the same jobs in this process through
`pirings.cli.main`, alternating untraced and traced replays, and reports
the per-layer metrics of `tracing.py` plus the tracing overhead.

Standard output ends with one line holding the full report and then one
line holding {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import io
import json
import os
from pathlib import Path
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import NamedTuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"
SETUP_PER_REP = 3
MC_RSE_TARGET = 1e-3
JOB_TIMEOUT_S = 120  # a job still running then is killed and fails

# name, unit, better (the metrics of BENCHMARK.json's end_to_end list)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# reported next to them; not bounded because they are 0 or undefined
# on some workloads
REPORT_ONLY = [
    ("fail_ratio", "ratio", "lower"),
    ("mc_samples_per_s", "1/s", "higher"),
    ("mc_time_to_rse_1e-3_s", "s", "lower"),
]


def job_env():
    env = {k: v for k, v in os.environ.items() if k != "ZONOID_SEED"}
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


class Result(NamedTuple):
    """Outcome of one job: exit code, output and its cost."""
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0


def run_subprocess(argv, env):
    """One `python -m pirings.cli argv` run, timed; rusage from wait4."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pirings.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                  wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_in_process(argv, tracer=None, job_name=None):
    """One `pirings.cli.main(argv)` call in this process, output captured."""
    from pirings import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                tracer.job = job_name
                code = tracer.call(tracing.MAIN, cli.main, (list(argv),), {})[1]
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the replay goes on; the job counts as failed
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return Result(code, out.getvalue().encode(), err.getvalue().encode(), wall)


def run_list(jobs, runner):
    """Run and check every job once; returns the figures of the repetition."""
    rep = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "failed": 0, "wrong": 0,
           "samples": 0, "rse_time": 0.0, "jobs": {}, "errors": []}
    prior = {}
    for job in jobs:
        res = runner(job)
        rep["wall"] += res.wall
        rep["cpu"] += res.cpu
        rep["rss"] = max(rep["rss"], res.rss_mb)
        rep["jobs"][job.name] = res.wall
        if res.code != 0:
            rep["failed"] += 1
            msg = res.stderr.decode(errors="replace").strip().splitlines()
            rep["errors"].append(f"{job.name}: exit {res.code}: "
                                 f"{msg[-1] if msg else ''}")
            continue
        out, errs = workloads.check_output(job, res.stdout.decode(), prior)
        if errs:
            rep["failed"] += 1
            rep["wrong"] += 1
            rep["errors"] += [f"{job.name}: {e}" for e in errs]
            continue
        prior[job.name] = out
        if job.mc is not None:
            samples, mean, se = job.mc(out)
            rep["samples"] += samples
            rep["rse_time"] += res.wall * (se / abs(mean) / MC_RSE_TARGET) ** 2
    return rep


def repeat(seconds, once):
    """Call once() until the next call would end after `seconds` (>= 1 call)."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def time_help(env):
    """Wall of a fresh `python -m pirings.cli --help`: the set-up cost."""
    res = run_subprocess(["--help"], env)
    if res.code != 0:
        raise RuntimeError(f"--help exited {res.code}")
    return res.wall


def provenance(seed):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS},
        "git_commit": commit,
        "workload_seed": seed,
        "load": "closed loop, one client, jobs run one at a time",
    }


def _metric_values(names, values):
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in names}


def end_to_end(jobs, seconds, env):
    time_help(env)  # compiles bytecode once, untimed
    setup_walls = []

    def once():
        # set-up samples are spread over the window like the job lists
        setup_walls.extend(time_help(env) for _ in range(SETUP_PER_REP))
        return run_list(jobs, lambda j: run_subprocess(j.argv, env))

    reps = repeat(seconds, once)

    def med(key):
        return statistics.median(r[key] for r in reps)
    values = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": med("wall"),
        "cpu_s": med("cpu"),
        "peak_rss_mb": med("rss"),
        "fail_ratio": sum(r["failed"] for r in reps) / (len(jobs) * len(reps)),
    }
    report = {"repetitions": len(reps),
              "setup_wall_s": setup_walls,
              "list_wall_s": [r["wall"] for r in reps],
              "job_wall_s": {j.name: [r["jobs"][j.name] for r in reps]
                             for j in jobs}}
    if any(j.mc for j in jobs):
        values["mc_samples_per_s"] = statistics.median(
            r["samples"] / r["wall"] for r in reps)
        values["mc_time_to_rse_1e-3_s"] = med("rse_time")
    reported = [m for m in REPORT_ONLY if m[0] in values]
    report["metrics"] = _metric_values(END_TO_END + reported, values)
    return reps, report, _metric_values(END_TO_END, values)


def traced(jobs, seconds):
    sys.path.insert(0, str(SRC))
    import pirings.cli  # noqa: F401  (import cost stays out of both replays)
    untraced_walls, traced_walls, layer_runs = [], [], []
    absent = []

    def once():
        # one untraced and one traced replay of the whole list
        rep = run_list(jobs, lambda j: run_in_process(j.argv))
        untraced_walls.append(rep["wall"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rep_t = run_list(jobs, lambda j: run_in_process(j.argv, tracer, j.name))
        finally:
            tracer.uninstall()
        traced_walls.append(rep_t["wall"])
        values, absent[:] = tracer.layer_metrics()
        layer_runs.append(values)
        return rep_t

    reps = repeat(seconds, once)
    values = {name: statistics.median(run[name] for run in layer_runs)
              for name in layer_runs[0]}
    values["trace.traced_wall_s"] = statistics.median(traced_walls)
    values["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    values["trace.overhead_s"] = (values["trace.traced_wall_s"]
                                  - values["trace.untraced_wall_s"])
    metrics = _metric_values(tracing.PER_LAYER, values)
    report = {"repetitions": len(reps), "absent_metrics": absent,
              "metrics": metrics}
    return reps, report, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pirings" / "cli.py").is_file():
        print(f"error: no pirings sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ZONOID_SEED", None)
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        jobs = workloads.build_jobs(args.workload, args.seed, WORK)
        if args.trace:
            reps, report, metrics = traced(jobs, args.seconds)
        else:
            reps, report, metrics = end_to_end(jobs, args.seconds, job_env())
        errors = sorted({e for r in reps for e in r["errors"]})
        report = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "jobs": len(jobs), **report,
                  "errors": errors, "provenance": provenance(args.seed)}
        result = {"correct": not any(r["wrong"] for r in reps),
                  "attempted": len(jobs) * len(reps),
                  "failed": sum(r["failed"] for r in reps),
                  "metrics": metrics}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for e in errors:
        print(f"{args.workload}: {e}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
