"""realeig cross-route benchmark.

    python3 perfbench/run.py --workload {mc,kernel,weak} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
./src.  The job list is drawn from --seed; set-up (import, reference
values, weight tables) is timed, then passes over the job list repeat for
--seconds.  Every job is checked against an independent route.

--trace 0 prints the end-to-end metrics: setup_s (median of three set-ups,
two of them in fresh child processes), wall_s (one pass, as the sum of each
job's median time over the passes), ok_frac and peak_rss_mb.  --trace 1
spends a third of --seconds on untraced passes and the rest on traced
passes with span shims installed (at least one of each), and prints the
per-layer metrics plus trace.overhead_s.  The last line of standard output
is the JSON result; a run record, the job outcomes and (traced) the spans
go to .perfbench_out/.  See README.md.
"""
from __future__ import annotations

import time

# setup_s counts from here, so it includes importing numpy, scipy and realeig
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# Monte Carlo jobs run at threads=1; one BLAS thread keeps the process at
# one compute thread (two OpenBLAS threads on a 2-core box are both slower
# and noisier at these matrix sizes).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("mc", "kernel", "weak"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for "
                        "the repeated set-up measurements)")
    return p.parse_args(argv)


def import_program():
    """Import realeig from ./src of this checkout, never from elsewhere."""
    if not (SRC / "realeig" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no realeig source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import realeig
    if Path(realeig.__file__).resolve().parent != SRC / "realeig":
        raise SystemExit(f"perfbench: realeig imported from {realeig.__file__}")


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_pass(workload, jobs, refs, workdir, tracer=None):
    import workloads
    ctx = workloads.PassContext(workdir=workdir)
    outcomes = []
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.set_tag(job.cls)
        t = time.perf_counter()
        out = workloads.run_job(workload, job, refs[job.id], ctx)
        out.seconds = time.perf_counter() - t
        outcomes.append(out)
    return time.perf_counter() - t0, outcomes


def run_passes(workload, jobs, refs, workdir, budget_s, tracer=None):
    """Run one pass, then more while a pass of median length still fits the
    budget, so the time measured stays within budget_s after the first pass."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workload, jobs, refs, workdir, tracer))
        median = statistics.median(p[0] for p in passes)
        if time.perf_counter() - t0 + median > budget_s:
            return passes


def _openblas_threads():
    import ctypes
    import glob
    import numpy
    site = Path(numpy.__file__).resolve().parent.parent
    found = {}
    for lib in sorted(glob.glob(str(site / "*.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                found[Path(lib).parent.name] = int(getattr(handle, sym)())
                break
    return found


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def run_record(args, load_before):
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": list(os.getloadavg()),
        "git_commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = list(os.getloadavg())
    import_program()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        import workloads
        jobs = workloads.make_jobs(args.workload, args.seed)
        refs = workloads.setup(args.workload, jobs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.trace:
            result = traced_run(args, jobs, refs, workdir, tracer)
        else:
            result = untraced_run(args, jobs, refs, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args, load_before)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes = result.pop("passes")
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result,
                   "pass_s": [p[0] for p in passes],
                   "job_s": [[o.seconds for o in outs] for _, outs in passes],
                   "jobs": [dict(j.to_dict(), status=o.status, detail=o.detail,
                                 seconds=o.seconds)
                            for j, o in zip(jobs, passes[-1][1])]},
                  fh, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.npz")
    print_summary(args, jobs, passes, result, record)
    print(json.dumps(result))
    return 0


def pass_seconds(passes) -> float:
    """One pass's wall time: the sum over jobs of each job's median time
    across the passes run, so a slow spell in part of one pass moves it less
    than it moves that pass's total."""
    per_job = zip(*[[o.seconds for o in outs] for _, outs in passes])
    return sum(statistics.median(times) for times in per_job)


def _tally(passes):
    """(attempted, failed, correct).  Every pass, traced or not, must repeat
    the first pass's job results bit for bit."""
    outcomes = [o for _, outs in passes for o in outs]
    failed = sum(o.failed for o in outcomes)
    wrong = sum(o.status == "wrong" for o in outcomes)
    first = [o.result for o in passes[0][1]]
    repeatable = all([o.result for o in outs] == first for _, outs in passes[1:])
    return len(outcomes), failed, wrong == 0 and repeatable


def untraced_run(args, jobs, refs, workdir, setup_s):
    setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    passes = run_passes(args.workload, jobs, refs, workdir, args.seconds)
    attempted, failed, correct = _tally(passes)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": pass_seconds(passes), "unit": "s"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "passes": passes}


def traced_run(args, jobs, refs, workdir, tracer):
    import tracing
    t0 = time.perf_counter()
    plain = run_passes(args.workload, jobs, refs, workdir, args.seconds / 3)
    tracer.install()
    try:
        traced = run_passes(args.workload, jobs, refs, workdir,
                            args.seconds - (time.perf_counter() - t0), tracer)
    finally:
        tracer.uninstall()
    passes = plain + traced
    attempted, failed, correct = _tally(passes)
    trials = {}
    for job in jobs:
        if "trials" in job.params:
            trials[job.cls] = trials.get(job.cls, 0) + job.params["trials"]
    schur = sum(o.stats.get("schur_failures", 0) for _, outs in traced for o in outs)
    spans = tracing.SpanTable(tracer)
    layers = tracing.layer_metrics(spans, {j.cls for j in jobs}, len(traced),
                                   trials, schur)
    layers["trace.overhead_s"] = (pass_seconds(traced) - pass_seconds(plain), "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "passes": passes}


def print_summary(args, jobs, passes, result, record):
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} passes={len(passes)} correct={result['correct']}")
    print(f"  python {record['python']} numpy {record['numpy']} scipy {record['scipy']} "
          f"blas {record['blas']} threads {record['blas_threads']} nproc {record['nproc']} "
          f"load {record['loadavg_before'][0]:.2f}->{record['loadavg_after'][0]:.2f}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':48s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for job, out in zip(jobs, passes[-1][1]):
        if out.failed:
            print(f"  FAILED {job.id} {job.params}: {out.detail}")


if __name__ == "__main__":
    sys.exit(main())
