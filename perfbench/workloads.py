"""Seeded job lists, set-up, job execution and oracle checks.

Three workloads, each a fixed list of cross-validated quantities drawn from
the workload seed and driven only through realeig's public entry points:

* ``mc``: Monte Carlo expected counts (``estimate_expected_real``).
* ``kernel``: exact-density quadrature masses, Ginibre masses and density
  curves (``expected_real_quadrature``, ``gin_expected_real_quadrature``,
  ``build_density_curve``).
* ``weak``: ``realeig weak`` sweeps run in-process through ``cli.main``,
  each cold (empty cache directory) and then warm (same directory).

Every result is checked against a route other than the one being timed, so
speed bought by a looser tolerance shows up as a failed job.  See
README.md for why each workload and class exists.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from realeig import cli, exactdensity, montecarlo, weakregime, weights
from realeig.errors import (DomainError, NonConvergentError, PrecisionLossError,
                            SchurNoConvergenceError, SlowConvergenceError)
from realeig.montecarlo import EnsembleKind, EnsembleSpec
from realeig.quadrature import QuadratureSpec, Rule
from realeig.reports import ComparisonReport
from realeig.series import SeriesParams

WORKLOADS = ("mc", "kernel", "weak")

# Errors through which realeig reports a computation it could not finish.
TYPED_ERRORS = (NonConvergentError, PrecisionLossError, SchurNoConvergenceError,
                SlowConvergenceError, DomainError)

# A correct engine exceeds 5 sigma with probability 5.7e-7 per job.
MC_Z_BOUND = 5.0
EXACT_REL_TOL = 1e-5
CURVE_REL_TOL = 1e-6
SLOPE_REL_TOL = 0.10

# The library default of the exact-density route, passed explicitly so the
# weight tables built in set-up carry exactly the spec the jobs pass.
KERNEL_SPEC = QuadratureSpec(rel_tol=3e-9, abs_tol=0.0, max_depth=16,
                             rule=Rule.TANH_SINH)
MID_SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=0.0, max_depth=16,
                          rule=Rule.TANH_SINH)
HIST_EDGES = np.linspace(-1.0, 1.0, 41)
CURVE_EDGES = np.linspace(-1.0, 1.0, 65)
CURVE_MIDS = 0.5 * (CURVE_EDGES[:-1] + CURVE_EDGES[1:])

# Monte Carlo trial counts spread each class's time evenly over its jobs,
# so a pass costs about the same for every seed.  The per-trial costs are
# rough fits measured at the seed commit (one BLAS thread); they set trial
# counts, which are part of a job's input, and nothing else.
SMALL_JOB_US = 225_000.0
LARGE_JOB_US = 450_000.0

WEAK_MENU = ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2))
WEAK_TOP_N = 512


@dataclass
class Job:
    id: str
    cls: str
    params: dict

    def to_dict(self) -> dict:
        return {"id": self.id, "cls": self.cls, **self.params}


@dataclass
class Outcome:
    """One job's result.

    status is "ok", "error" (the program reported that it could not finish:
    a typed error or a non-zero exit) or "wrong" (the program returned a
    value its oracle rejects, or failed in an unforeseen way).  result is
    compared bit for bit across passes and between traced and untraced runs.
    """

    status: str
    result: tuple
    detail: str = ""
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status != "ok"


@dataclass
class PassContext:
    """State shared by the jobs of one pass (the weak cold/warm hand-off)."""

    workdir: Path
    sweeps: dict = field(default_factory=dict)


# ---------------------------------------------------------------- job lists

def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"perfbench/{workload}/{seed}")
    return {"mc": _mc_jobs, "kernel": _kernel_jobs, "weak": _weak_jobs}[workload](rng)


def _small_cost_us(N: int, m: int) -> float:
    return (75.0 + 7.0 * N) * (1.0 + 0.5 * (m - 1))


def _large_cost_us(kind: str, N: int, m: int) -> float:
    if kind == EnsembleKind.TRUNCATED_ORTHOGONAL.value:
        return 3300.0 * (N / 64.0) ** 2.0 if m == 1 else 4400.0 * (N / 64.0) ** 1.75
    return 1530.0 * (N / 60.0) ** 2.3


def _trials(budget_us: float, cost_us: float) -> int:
    return max(100, round(budget_us / cost_us))


def _mc_jobs(rng: random.Random) -> list[Job]:
    """Few jobs, so that a pass is short and a run holds many; N is drawn
    from strata, so what the cost fits get wrong differs little by seed."""
    jobs = []
    to = EnsembleKind.TRUNCATED_ORTHOGONAL.value
    gin = EnsembleKind.REAL_GINIBRE.value

    def strata(lo, hi, k):
        return [lo + int((i + rng.random()) * (hi - lo + 1) / k) for i in range(k)]

    # small: at each m, N from each third of 4..12 and L cycling over 1..4
    for m in (1, 2):
        phase = rng.randrange(4)
        for i, n in enumerate(strata(4, 12, 3)):
            jobs.append(Job(f"small-{len(jobs):02d}", "small", {
                "kind": to, "N": n, "L": 1 + (i + phase) % 4, "m": m, "hist": False,
                "trials": _trials(SMALL_JOB_US, _small_cost_us(n, m)),
                "seed": rng.getrandbits(63)}))
    # large: N = L from each half of 32..64 with a histogram, one half at
    # m = 1 and the other at m = 2
    ns = strata(32, 64, 2)
    rng.shuffle(ns)
    for m, n in zip((1, 2), ns):
        jobs.append(Job(f"large-{len(jobs):02d}", "large", {
            "kind": to, "N": n, "L": n, "m": m, "hist": True,
            "trials": _trials(LARGE_JOB_US, _large_cost_us(to, n, m)),
            "seed": rng.getrandbits(63)}))
    # large: real Ginibre, m = 1, N in 40..60 (no QR stage)
    n = rng.randint(40, 60)
    jobs.append(Job(f"large-{len(jobs):02d}", "large", {
        "kind": gin, "N": n, "L": 0, "m": 1, "hist": False,
        "trials": _trials(LARGE_JOB_US, _large_cost_us(gin, n, 1)),
        "seed": rng.getrandbits(63)}))
    return jobs


def _kernel_jobs(rng: random.Random) -> list[Job]:
    jobs = []

    def add(cls, **params):
        jobs.append(Job(f"{cls}-{len(jobs):02d}", cls, params))

    # A pass is one run's worth of work (a mid mass alone takes 6-8 s), so
    # every class is drawn so that its cost barely depends on the seed.
    # nested masses, m = 1: one N from each third of 4..12, L alternating
    # over 2..3 (L = 1 at m = 1 takes 22-92 s per mass; see README.md)
    phase = rng.randrange(2)
    for i, lo in enumerate((4, 7, 10)):
        add("nested", N=rng.randint(lo, lo + 2), L=2 + (i + phase) % 2, m=1,
            rel_tol=KERNEL_SPEC.rel_tol)
    # m = 2 at L = 1: 1.6-1.8 s over N 4..8, where L = 2 takes 4.7-8.7 s
    add("nested", N=rng.randint(4, 8), L=1, m=2, rel_tol=KERNEL_SPEC.rel_tol)
    # antithetic pairs: mid masses (N, 40 - N), Ginibre masses (N, 18 - N)
    # and curves (N, 57 - N), whose costs are close to linear in N
    c = rng.randint(16, 19)
    for n in (c, 40 - c):
        add("mid", N=n, L=n, m=1, rel_tol=MID_SPEC.rel_tol)
    g = rng.choice((6, 8))
    for n in (g, 18 - g):
        add("gin", N=n, m=1, rel_tol=KERNEL_SPEC.rel_tol)
    # one curve pair (even 18..24, odd 33..39) and one (odd 17..23, even
    # 34..40); odd N >= 25 fails at the seed commit and is kept so the
    # failure shows at a fixed share, one curve in four
    for lo, hi in ((18, 24), (17, 23)):
        c = rng.randrange(lo, hi + 1, 2)
        for n in (c, 57 - c):
            add("curve", N=n, L=n, m=1, rel_tol=KERNEL_SPEC.rel_tol)
    return jobs


def _weak_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    menu = list(WEAK_MENU)
    rng.shuffle(menu)
    for L, m in menu:
        # one even N per octave from 64 up, then the fixed top N: the top
        # sets the coefficient-table size, so every sweep costs the same
        # for every seed
        ns = [2 * rng.randrange(32 << k, 64 << k) for k in range(3)] + [WEAK_TOP_N]
        sweep = f"L{L}m{m}"
        for phase in ("cold", "warm"):
            jobs.append(Job(f"{sweep}-{phase}", phase,
                            {"sweep": sweep, "L": L, "m": m, "N_list": ns}))
    return jobs


# ---------------------------------------------------------------- set-up

def eks_expected_real(N: int) -> float:
    """Expected real-eigenvalue count of one N x N real Ginibre matrix.

    Closed form of Edelman, Kostlan and Shub, J. Amer. Math. Soc. 7 (1994):
    1/2 + sqrt(2) 2F1(1, -1/2; N; 1/2) / B(N, 1/2).
    """
    return 0.5 + math.sqrt(2.0) * special.hyp2f1(1.0, -0.5, N, 0.5) / special.beta(N, 0.5)


def setup(workload: str, jobs: list[Job]) -> dict:
    """Reference values by job id, plus the weight tables the jobs will use."""
    refs = {}
    for job in jobs:
        p = job.params
        if workload == "weak":
            refs[job.id] = 1.0 / math.exp(special.betaln(p["m"] * p["L"] / 2.0, 0.5))
        elif p.get("kind") == EnsembleKind.REAL_GINIBRE.value or job.cls == "gin":
            refs[job.id] = eks_expected_real(p["N"])
        elif job.cls == "curve":
            refs[job.id] = weakregime.expected_real_sum(p["N"], p["L"], p["m"]) - p["N"] % 2
        else:
            refs[job.id] = weakregime.expected_real_sum(p["N"], p["L"], p["m"])
    if workload == "kernel":
        for L in sorted({j.params["L"] for j in jobs if j.params["m"] > 1}):
            weights.weight_table(L, 2, KERNEL_SPEC)
    return refs


# ---------------------------------------------------------------- execution

def run_job(workload: str, job: Job, ref: float, ctx: PassContext) -> Outcome:
    run = {"mc": _run_mc, "kernel": _run_kernel, "weak": _run_weak}[workload]
    try:
        return run(job, ref, ctx)
    except TYPED_ERRORS as exc:
        return Outcome("error", (type(exc).__name__,), f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # job boundary: record it, keep running the pass
        return Outcome("wrong", (type(exc).__name__,), f"{type(exc).__name__}: {exc}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _run_mc(job: Job, ref: float, ctx: PassContext) -> Outcome:
    p = job.params
    spec = EnsembleSpec(p["N"], p["L"], p["m"], EnsembleKind(p["kind"]))
    est = montecarlo.estimate_expected_real(spec, p["trials"], p["seed"], threads=1,
                                            bins=HIST_EDGES if p["hist"] else None)
    result = (est.mean.hex(), est.stderr.hex(), est.schur_failures)
    z = abs(est.mean - ref) / est.stderr
    detail = f"mean {est.mean:.6f} vs {ref:.6f}: {z:.2f} sigma"
    ok = z <= MC_Z_BOUND
    if p["hist"]:
        counts = est.histogram.counts
        result += (tuple(int(c) for c in counts),)
        # every real eigenvalue of a contraction lies in [-1, 1]
        total = round(est.mean * (est.trials - est.schur_failures))
        if int(counts.sum()) != total:
            ok = False
            detail += f"; histogram holds {int(counts.sum())} of {total} eigenvalues"
    return Outcome("ok" if ok else "wrong", result, detail,
                   stats={"schur_failures": est.schur_failures})


def _run_kernel(job: Job, ref: float, ctx: PassContext) -> Outcome:
    p = job.params
    spec = MID_SPEC if job.cls == "mid" else KERNEL_SPEC
    if job.cls == "gin":
        value = exactdensity.gin_expected_real_quadrature(p["N"], p["m"], spec)
        tol = EXACT_REL_TOL
    elif job.cls == "curve":
        curve = exactdensity.build_density_curve(
            EnsembleSpec(p["N"], p["L"], p["m"]), CURVE_MIDS, spec, normalized=False)
        value = float(curve.values.sum() * (CURVE_EDGES[1] - CURVE_EDGES[0]))
        tol = CURVE_REL_TOL
    else:
        value = exactdensity.expected_real_quadrature(SeriesParams(p["N"], p["L"], p["m"]), spec)
        tol = EXACT_REL_TOL
    rel = _rel(value, ref)
    detail = f"{value:.12g} vs {ref:.12g}: rel {rel:.1e} (tol {tol:.0e})"
    return Outcome("ok" if rel <= tol else "wrong", (float(value).hex(),), detail)


def _run_weak(job: Job, ref: float, ctx: PassContext) -> Outcome:
    p = job.params
    if job.cls == "cold":
        cache_dir = Path(tempfile.mkdtemp(prefix=p["sweep"] + "-", dir=ctx.workdir))
        ctx.sweeps[p["sweep"]] = {"dir": cache_dir}
    sweep = ctx.sweeps[p["sweep"]]
    cache_dir = sweep["dir"]
    report_path = cache_dir / f"weak-{job.cls}.csv"
    argv = ["weak", "--L", str(p["L"]), "--m", str(p["m"]),
            "--N-list", ",".join(map(str, p["N_list"])),
            "--cache-dir", str(cache_dir), "--out", str(report_path)]
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        rows = ()
        if code == 0:
            report = ComparisonReport.from_csv_text(report_path.read_text(encoding="utf-8"))
            rows = tuple((r.quantity, r.method, r.value.hex(), r.err_est.hex())
                         for r in report.rows)
    finally:
        if job.cls == "warm":
            shutil.rmtree(cache_dir, ignore_errors=True)
    result = (code, rows)
    if code != 0:
        last = err.getvalue().strip().splitlines()[-1:]
        return Outcome("error", result, f"exit {code}: {' '.join(last)}")
    values = {q: float.fromhex(v) for q, _, v, _ in rows}
    slope = values["fitted_slope_top_half"]
    rel = _rel(slope, ref)
    detail = f"slope {slope:.6f} vs {ref:.6f}: rel {rel:.1e}"
    ok = rel <= SLOPE_REL_TOL
    if job.cls == "cold":
        sweep["rows"] = rows
        if not any(cache_dir.glob("gj_*.npz")):
            ok = False
            detail += "; no coefficient table was written"
    elif rows != sweep.get("rows"):
        ok = False
        detail += "; warm rows differ from cold rows"
    return Outcome("ok" if ok else "wrong", result, detail)
