"""Tests of the benchmark itself: job lists, oracles, weak cold/warm
identity, traced/untraced identity and the metric names it declares.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from realeig import exactdensity, montecarlo, weakregime
from workloads import Job, PassContext

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_seed_deterministic(workload):
    a = [j.to_dict() for j in workloads.make_jobs(workload, 7)]
    b = [j.to_dict() for j in workloads.make_jobs(workload, 7)]
    c = [j.to_dict() for j in workloads.make_jobs(workload, 8)]
    assert a == b
    assert a != c
    assert len({j["id"] for j in a}) == len(a)


def test_job_parameters_stay_in_their_menus():
    for seed in range(50):
        for job in workloads.make_jobs("mc", seed):
            p = job.params
            if job.cls == "small":
                assert 4 <= p["N"] <= 12 and 1 <= p["L"] <= 4 and p["m"] in (1, 2)
            elif p["kind"] == "real-ginibre":
                assert 40 <= p["N"] <= 60 and p["m"] == 1
            else:
                assert 32 <= p["N"] == p["L"] <= 64 and p["hist"]
            assert p["trials"] >= 100
        kernel = workloads.make_jobs("kernel", seed)
        curves = [j.params["N"] for j in kernel if j.cls == "curve"]
        assert sum(n % 2 == 1 and n >= 25 for n in curves) == 1
        assert len(set(curves)) == len(curves) == 4
        assert len([j for j in kernel if j.cls == "gin"]) == 2
        assert sum(j.params["N"] for j in kernel if j.cls == "mid") == 40
        for job in kernel:
            p = job.params
            if job.cls == "nested":
                assert 4 <= p["N"] <= 12 and 1 <= p["L"] <= 3
                assert (p["L"] == 1) == (p["m"] == 2)
            elif job.cls == "mid":
                assert 16 <= p["N"] == p["L"] <= 24
            elif job.cls == "gin":
                assert p["N"] in (6, 8, 10, 12)
            else:
                assert 16 <= p["N"] == p["L"] <= 40
        weak = workloads.make_jobs("weak", seed)
        assert {(j.params["L"], j.params["m"]) for j in weak} == set(workloads.WEAK_MENU)
        for job in weak:
            ns = job.params["N_list"]
            assert ns == sorted(set(ns)) and ns[-1] == workloads.WEAK_TOP_N
            assert all(n % 2 == 0 and n >= 64 for n in ns)


def test_eks_oracle_matches_ginibre_quadrature():
    quad = exactdensity.gin_expected_real_quadrature(10, 1, workloads.KERNEL_SPEC)
    assert math.isclose(workloads.eks_expected_real(10), quad, rel_tol=1e-12)


def _weak_sweep(L, m, ns):
    params = {"sweep": f"L{L}m{m}", "L": L, "m": m, "N_list": ns}
    return [Job(f"L{L}m{m}-{phase}", phase, params) for phase in ("cold", "warm")]


def test_weak_warm_rows_match_cold_rows(tmp_path):
    jobs = _weak_sweep(2, 1, [64, 128, 256, 512])
    refs = workloads.setup("weak", jobs)
    ctx = PassContext(workdir=tmp_path)
    cold, warm = (workloads.run_job("weak", j, refs[j.id], ctx) for j in jobs)
    assert cold.status == warm.status == "ok", (cold.detail, warm.detail)
    assert cold.result == warm.result
    assert cold.result[0] == 0 and len(cold.result[1]) > 0
    assert list(tmp_path.iterdir()) == []


def test_weak_reports_known_nonconvergence_as_error(tmp_path):
    jobs = _weak_sweep(1, 1, [64, 128])
    refs = workloads.setup("weak", jobs)
    ctx = PassContext(workdir=tmp_path)
    outcomes = [workloads.run_job("weak", j, refs[j.id], ctx) for j in jobs]
    assert [o.status for o in outcomes] == ["error", "error"]
    assert [o.result for o in outcomes] == [(3, ()), (3, ())]


def _mixed_jobs():
    mc = [j for j in workloads.make_jobs("mc", 3)]
    small = [Job(j.id, j.cls, dict(j.params, trials=100)) for j in mc if j.cls == "small"][:2]
    large = [Job(j.id, j.cls, dict(j.params, trials=100)) for j in mc if j.cls == "large"]
    large = [large[0], large[-1]]
    kernel = [Job("nested-00", "nested", {"N": 4, "L": 2, "m": 1, "rel_tol": 3e-9}),
              Job("curve-01", "curve", {"N": 17, "L": 17, "m": 1, "rel_tol": 3e-9})]
    return [("mc", j) for j in small + large] + [("kernel", j) for j in kernel] + \
        [("weak", j) for j in _weak_sweep(2, 1, [64, 128, 256])]


def _run_all(jobs, refs, workdir, tracer=None):
    ctx = PassContext(workdir=workdir)
    out = []
    for workload, job in jobs:
        if tracer is not None:
            tracer.set_tag(job.cls)
        out.append(workloads.run_job(workload, job, refs[job.id], ctx))
    return out


def test_traced_and_untraced_results_are_bit_identical(tmp_path):
    jobs = _mixed_jobs()
    refs = {}
    for workload in ("mc", "kernel", "weak"):
        refs.update(workloads.setup(workload, [j for w, j in jobs if w == workload]))
    originals = (montecarlo._run_trials, exactdensity.density_rho,
                 weakregime.GjTable.ensure)
    plain = _run_all(jobs, refs, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run_all(jobs, refs, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert (montecarlo._run_trials, exactdensity.density_rho,
            weakregime.GjTable.ensure) == originals
    assert all(o.status == "ok" for o in plain), [o.detail for o in plain]
    assert [o.result for o in plain] == [o.result for o in traced]

    spans = tracing.SpanTable(tracer)
    assert spans.count("montecarlo.stream_setup", ["small"]) == 200
    assert spans.count("cli.main") == 2
    assert spans.work("cache.gj_load") == 1.0
    # self times partition the traced time: no span's children outlast it
    assert (spans.self_time >= -1e-6).all()
    tags = {j.cls for _, j in jobs}
    layers = tracing.layer_metrics(spans, tags, 1, {"small": 200, "large": 200}, 0)
    assert layers["weakregime.gj_coeffs"][0] == 255.0
    assert layers["exactdensity.density_rho.calls"][0] > 0


def test_benchmark_declares_the_metrics_it_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    spans = tracing.SpanTable(tracing.Tracer())
    reported = {k: u for k, (_, u) in tracing.layer_metrics(spans, [], 1, {}, 0).items()}
    reported["trace.overhead_s"] = "s"
    assert declared == reported
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "ok_frac",
                                                      "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
