"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about two minutes: every job of every workload runs once as a
subprocess and once traced in this process.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SEED = 7
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# every metric the benchmark's definition names, with the workloads that
# must report it
ISSUE_END_TO_END = {
    "setup_s": workloads.WORKLOADS, "wall_s": workloads.WORKLOADS,
    "cpu_s": workloads.WORKLOADS, "peak_rss_mb": workloads.WORKLOADS,
    "fail_ratio": workloads.WORKLOADS,
    "mc_samples_per_s": ("mc",), "mc_time_to_rse_1e-3_s": ("mc",),
}
ISSUE_PER_LAYER = [
    "exact.bareiss_det.calls", "exact.bareiss_det.self_s",
    "exact.bareiss_det.order_mean", "exact.bareiss_solve.calls",
    "exact.bareiss_solve.self_s",
    "exterior.wedge_norm.calls", "exterior.wedge_norm.self_s",
    "exterior.wedge_inner.calls", "exterior.wedge_inner.self_s",
    "exterior.expand.calls", "exterior.expand.self_s",
    "zonoid.wedge.calls", "zonoid.wedge.self_s", "zonoid.wedge.products_tried",
    "zonoid.wedge.atoms_kept", "zonoid.wedge.kept_ratio",
    "zonoid.length.self_s", "zonoid.pairing.self_s",
    "zonoid.mixed_volume.self_s", "zonoid.crofton_evaluate.self_s",
    "zonoid.from_json.self_s", "zonoid.from_json.atoms",
    "cpn_ring.reduce_monomial.calls", "cpn_ring.reduce_monomial.distinct",
    "cpn_ring.reduce_monomial.distinct_ratio",
    "cpn_ring.reduce_monomial.self_s", "cpn_ring.multiply.calls",
    "cpn_ring.multiply.self_s", "cpn_ring.relations.self_s",
    "cpn_ring.self_intersection_via_ring.self_s",
    "cpn_ring.mc_tasaki_kernel_d2.self_s",
    "sampling.haar_orthogonal.matrices", "sampling.haar_orthogonal.self_s",
    "sampling.haar_unitary_realified.matrices",
    "sampling.haar_unitary_realified.self_s", "sampling.draw.self_s",
    "sampling.block.calls", "sampling.block.self_s",
    "sampling.run_blocks.self_s", "sampling.run_blocks.samples",
    "sampling.run_blocks.worker_busy_ratio",
    "schubert.mc_schubert_shape.self_s", "schubert.edeg22_calibrated.self_s",
    "sphere_ring.ball_wedge_length.self_s",
    "cli.parse_s", "cli.dispatch_s", "cli.emit_s", "trace.overhead_s",
]


@pytest.fixture
def workdir(monkeypatch):
    path = run.ROOT / ".perfbench_work" / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    monkeypatch.setattr(run, "WORK", path)
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.delenv("ZONOID_SEED", raising=False)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return report, result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_replay_prints_what_the_subprocess_prints(workload, workdir):
    env = run.job_env()
    jobs = workloads.build_jobs(workload, SEED, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job in jobs:
            sub = run.run_subprocess(job.argv, env)
            traced = run.run_in_process(job.argv, tracer, job.name)
            assert traced.code == sub.code, job.name
            assert traced.stdout == sub.stdout, job.name
    finally:
        tracer.uninstall()
    assert tracer.spans


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_a_unit(workload, workdir):
    readme = {j.name for j in workloads.build_jobs(workload, SEED, workdir)
              if workloads.README_EXPR in " ".join(j.argv)}
    report, result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    for name, wanted in ISSUE_END_TO_END.items():
        if workload in wanted:
            assert report["metrics"][name]["unit"], name
    for metric in result["metrics"].values():
        assert metric["unit"] and metric["value"] > 0
    # the README's mixed-pi expression is the only job allowed to fail
    assert all(e.split(":")[0] in readme for e in report["errors"])
    assert result["failed"] <= len(readme) * result["attempted"] / report["jobs"]

    report, result = _bench(workload, 1)
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == names
    assert set(ISSUE_PER_LAYER) <= names
    assert all(m["unit"] for m in result["metrics"].values())
    assert report["absent_metrics"] == []


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
            ] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
            ] == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_missing_wrap_target_is_reported_absent(workdir, monkeypatch):
    import pirings.sampling
    monkeypatch.delattr(pirings.sampling, "haar_unitary_realified")
    jobs = workloads.build_jobs("mc", SEED, workdir)
    tasaki = next(j for j in jobs if j.name == "tasaki_n2")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run.run_in_process(tasaki.argv, tracer, tasaki.name).code == 0
    finally:
        tracer.uninstall()
    values, absent = tracer.layer_metrics()
    assert absent == ["sampling.haar_unitary_realified.matrices",
                      "sampling.haar_unitary_realified.self_s"]
    assert values["sampling.block.calls"] > 0


def test_tracing_leaves_no_wrapper_behind(workdir):
    import pirings.cli
    import pirings.exterior
    before = (pirings.exterior.bareiss_det, dict(pirings.cli.DISPATCH))
    tracer = tracing.Tracer()
    tracer.install()
    assert pirings.exterior.bareiss_det is not before[0]
    tracer.uninstall()
    assert (pirings.exterior.bareiss_det, pirings.cli.DISPATCH) == before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
