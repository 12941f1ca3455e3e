"""Command-line front end.

Subcommands: expected, density, weak, gj, alm, sample, verify.
Exit codes: 0 success, 2 tolerance violation, 3 numerical non-convergence,
4 bad arguments.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import cache
from .errors import (DomainError, NonConvergentError, PrecisionLossError,
                     SchurNoConvergenceError, SlowConvergenceError)
from .exactdensity import (asympt_expected, build_density_curve,
                           expected_real_quadrature, gin_asympt_expected,
                           gin_expected_real_quadrature,
                           gin_limiting_density_cdf, limiting_density_cdf)
from .gammafns import log_beta
from .montecarlo import (EnsembleKind, EnsembleSpec, estimate_expected_real,
                         histogram_csv_lines)
from .quadrature import QuadratureSpec
from .reports import ComparisonReport
from .series import SeriesParams
from .verify import available_checks, run_verify
from .weakregime import (GjTable, _sum_terms, a_lm_closed, a_lm_mc,
                         expected_real_sum, g_j_contour, g_j_mc, g_j_sym,
                         weak_asymptotic)
from .weights import weight_table

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_NONCONVERGENT = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching, so an unknown option never passes as a longer
        # one; add_parser builds the subcommand parsers through this class
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


_OPTIONS = {
    "N": dict(type=int, default=None),
    "L": dict(type=int, default=None),
    "m": dict(type=int, default=1),
    "ensemble": dict(choices=["truncated-orthogonal", "real-ginibre"],
                     default="truncated-orthogonal"),
    "trials": dict(type=int, default=100000),
    "seed": dict(type=int, default=20260808),
    "threads": dict(type=int, default=1),
    "rel-tol": dict(type=float, default=None),
    "abs-tol": dict(type=float, default=0.0),
    "out": dict(type=str, default=None),
    "format": dict(choices=["csv", "json"], default="csv"),
    "cache-dir": dict(type=str, default=None),
}


def _add_options(p, names):
    """Add the named shared options; each subcommand takes only those it reads."""
    for name in names.split():
        p.add_argument(f"--{name}", **_OPTIONS[name])


@functools.cache
def build_parser():
    """The realeig parser, built once per process; parse_args keeps no state
    in it, so every call starts from the defaults."""
    parser = _Parser(prog="realeig",
                     description="Real-eigenvalue statistics of random matrix "
                                 "products: simulation, exact formulas, and "
                                 "asymptotic laws, cross-validated.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expected", help="expected number of real eigenvalues "
                                        "by the selected methods")
    _add_options(p, "N L m ensemble trials seed threads rel-tol abs-tol out "
                    "format cache-dir")
    p.add_argument("--methods", type=str, default="quadrature,sum,asymptotic")
    p.add_argument("--tol-rel", type=float, default=1e-5,
                   help="relative tolerance for quadrature vs sum")
    p.add_argument("--tol-sigma", type=float, default=3.0,
                   help="sigma tolerance for simulation comparisons")
    p.add_argument("--tol-asy", type=float, default=2.0,
                   help="absolute tolerance for exact vs leading-order law")

    p = sub.add_parser("density", help="exact, simulated, and limiting density "
                                       "on a shared grid")
    _add_options(p, "N L m ensemble trials seed threads rel-tol abs-tol out "
                    "cache-dir")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--bins", type=int, default=None,
                   help="histogram bins (defaults to the grid resolution)")

    p = sub.add_parser("weak", help="fixed-L sweep of the expected count "
                                    "against the log-law")
    _add_options(p, "L m seed threads rel-tol out format cache-dir")
    p.add_argument("--N-list", type=str, default="256,512,1024,2048,4096,8192")

    p = sub.add_parser("gj", help="contour coefficients with their oracles")
    _add_options(p, "L m seed out format")
    p.add_argument("--j-list", type=str, default="0,1,2,5")
    p.add_argument("--mc-samples", type=int, default=200000)

    p = sub.add_parser("alm", help="splitting constant: closed form vs Monte Carlo")
    _add_options(p, "L m seed out format")
    p.add_argument("--mc-samples", type=int, default=1000000)

    p = sub.add_parser("sample", help="simulate the ensemble and write the "
                                      "estimate (and histogram)")
    _add_options(p, "N L m ensemble trials seed threads out")
    p.add_argument("--bins", type=int, default=None)

    p = sub.add_parser("verify", help="run the invariant battery")
    _add_options(p, "seed threads")
    p.add_argument("--only", type=str, default=None,
                   help=f"comma list from: {','.join(available_checks())}")
    return parser


def _quad_spec(args, default_rel=3e-9):
    rel = args.rel_tol if args.rel_tol is not None else default_rel
    return QuadratureSpec(rel_tol=rel, abs_tol=args.abs_tol)


def _load_weight(args, ginibre):
    """Load the requested ensemble's weight (m > 1) into the registry, where
    the kernel routes read it: from the disk cache, or built and saved
    there."""
    if args.m > 1:
        cdir = cache.resolve_cache_dir(args.cache_dir)
        weight_table(1 if ginibre else args.L, args.m,
                     kind="ginibre" if ginibre else "truncated", cache_dir=cdir)


def _gj_table(args, L, j_max):
    """The disk-cached g_j table for (L, --m), extended to j_max and saved
    back when that added coefficients; --rel-tol, when given, is its
    tolerance."""
    table = GjTable(L, args.m) if args.rel_tol is None else GjTable(L, args.m, args.rel_tol)
    cdir = cache.resolve_cache_dir(args.cache_dir)
    cached = cache.load_gj_table(cdir, L, args.m, table.rel_tol)
    if cached is not None:
        table = cached
    size = len(table)
    table.ensure(j_max, threads=args.threads)
    if len(table) > size:
        cache.save_gj_table(cdir, table)
    return table


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for this command")


def _ensemble(args):
    """The --ensemble kind and L (0 when --L is not given), requiring --N,
    and --L for the truncated ensemble."""
    kind = EnsembleKind(args.ensemble)
    _require(args, "N")
    if kind is EnsembleKind.TRUNCATED_ORTHOGONAL:
        _require(args, "L")
    return kind, args.L if args.L is not None else 0


def _config_dict(args):
    skip = {"command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_report(report, args, default_stem):
    out = args.out or f"{default_stem}.{args.format}"
    report.write(out, args.format)
    print(f"wrote {out}")


def cmd_expected(args) -> int:
    methods = [s.strip() for s in args.methods.split(",") if s.strip()]
    bad = set(methods) - {"quadrature", "sum", "montecarlo", "asymptotic"}
    if bad:
        raise UsageError(f"unknown methods: {sorted(bad)}")
    kind, L = _ensemble(args)
    ensemble = EnsembleSpec(args.N, L, args.m, kind)
    ginibre = kind is EnsembleKind.REAL_GINIBRE
    if ginibre and "sum" in methods:
        raise UsageError("the sum route applies to the truncated-orthogonal "
                         "ensemble only")
    t0 = time.time()
    spec = _quad_spec(args)
    report = ComparisonReport(rows=[], config=_config_dict(args), seed=args.seed)
    values = {}
    errs = {}
    for method in methods:
        if method == "quadrature":
            _load_weight(args, ginibre)
            if ginibre:
                values[method], errs[method] = gin_expected_real_quadrature(
                    args.N, args.m, spec, return_err=True)
            else:
                values[method], errs[method] = expected_real_quadrature(
                    SeriesParams(args.N, L, args.m), spec, return_err=True)
        elif method == "sum":
            values[method], errs[method] = expected_real_sum(
                args.N, L, args.m, table=_gj_table(args, L, args.N - 2),
                threads=args.threads, return_err=True)
        elif method == "montecarlo":
            est = estimate_expected_real(ensemble, args.trials, args.seed, args.threads)
            values[method] = est.mean
            errs[method] = est.stderr
        else:
            values[method] = (gin_asympt_expected(args.N, args.m) if ginibre
                              else asympt_expected(args.N, L, args.m))
            errs[method] = 0.0
        report.add("expected_real_count", method, values[method], errs[method])
    report.wall_time_s = time.time() - t0
    _write_report(report, args, "expected")

    failures = []
    exact = [k for k in ("quadrature", "sum") if k in values]
    if len(exact) == 2:
        a, b = values["quadrature"], values["sum"]
        if abs(a - b) > args.tol_rel * max(abs(a), abs(b)):
            failures.append(f"quadrature vs sum gap {abs(a - b):.3e} "
                            f"exceeds {args.tol_rel} relative")
    if "montecarlo" in values and exact:
        ref = values[exact[0]]
        gap = abs(values["montecarlo"] - ref)
        sig = max(errs["montecarlo"], 1e-300)
        if gap > args.tol_sigma * sig:
            failures.append(f"montecarlo vs {exact[0]} gap {gap:.3e} exceeds "
                            f"{args.tol_sigma} sigma ({sig:.3e})")
    if "asymptotic" in values and exact:
        gap = abs(values[exact[0]] - values["asymptotic"])
        if gap > args.tol_asy:
            failures.append(f"{exact[0]} vs asymptotic gap {gap:.3f} exceeds "
                            f"{args.tol_asy}")
    for row in report.rows:
        print(f"  {row.quantity:22s} {row.method:12s} {row.value:.10g} "
              f"(err {row.err_est:.2e})")
    if failures:
        for f in failures:
            print("TOLERANCE:", f, file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_density(args) -> int:
    kind, L = _ensemble(args)
    ginibre = kind is EnsembleKind.REAL_GINIBRE
    if args.grid < 16:
        raise UsageError("--grid must be at least 16")
    m = args.m
    spec = _quad_spec(args, default_rel=1e-7)
    t0 = time.time()
    # shared symmetric grid of bin midpoints; avoids x = 0 and the endpoints
    nbins = args.bins or args.grid
    lim = 1.5 if ginibre else 1.0
    edges = np.linspace(-lim, lim, nbins + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = mids != 0.0
    mids = mids[keep]

    if ginibre:
        if args.N % 2 == 1:
            raise UsageError("the exact Ginibre route requires even N")
        cdf = lambda x: gin_limiting_density_cdf(x, m)
    else:
        alpha_t = 1.0 / (1.0 + L / args.N)
        cdf = lambda x: limiting_density_cdf(x, m, alpha_t)
    ensemble = EnsembleSpec(args.N, L, m, kind)
    _load_weight(args, ginibre)
    exact = build_density_curve(ensemble, mids, spec, normalized=True).values
    # the limit column carries cell averages (bin mass / width) so that it
    # is directly comparable to the histogram column and its trapezoid sum
    # reproduces unit mass despite the jump at the support edge
    widths = np.diff(edges)
    limit = (np.array([cdf(b) - cdf(a) for a, b in zip(edges[:-1], edges[1:])])
             / widths)[keep]

    est = estimate_expected_real(ensemble, args.trials, args.seed, args.threads,
                                 bins=edges)
    counts = est.histogram.counts.astype(float)
    total = counts.sum()
    mc = (counts / (total * widths))[keep]
    mc_err = (np.sqrt(np.maximum(counts, 1.0)) / (total * widths))[keep]

    out = Path(args.out or "density.csv")
    try:
        lines = ["x,exact,mc,mc_err,limit"]
        for i, x in enumerate(mids):
            lines.append(f"{float(x)!r},{float(exact[i])!r},{float(mc[i])!r},"
                         f"{float(mc_err[i])!r},{float(limit[i])!r}")
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except BaseException:
        out.unlink(missing_ok=True)
        raise
    print(f"wrote {out} ({len(mids)} rows; wall {time.time() - t0:.1f}s)")
    return EXIT_OK


def cmd_weak(args) -> int:
    _require(args, "L")
    Ns = sorted({int(s) for s in args.N_list.split(",") if s.strip()})
    if len(Ns) < 2:
        raise UsageError("--N-list needs at least two values")
    t0 = time.time()
    table = _gj_table(args, args.L, max(Ns) - 2)
    report = ComparisonReport(rows=[], config=_config_dict(args), seed=args.seed)
    values = {}
    for N in Ns:
        values[N], err = expected_real_sum(N, args.L, args.m, table=table,
                                           return_err=True)
        report.add(f"expected_real_count[N={N}]", "sum", values[N], err)
        report.add(f"log_law[N={N}]", "asymptotic",
                   weak_asymptotic(N, args.L, args.m))
    # increments and the slope are sums w_i E(N_i) over one table: term j
    # enters with weight sum_{i: j < N_i - 1} w_i, so the terms the counts
    # share carry their error once, cancelled by that weight
    term_err = np.abs(_sum_terms(table, Ns[-1])) * table.rel_err[:Ns[-1] - 1]

    def combined_err(weighted):
        w = np.zeros(len(term_err))
        for N, wi in weighted:
            w[:N - 1] += wi
        return float((np.abs(w) * term_err).sum())

    for a, b in zip(Ns[:-1], Ns[1:]):
        report.add(f"increment[{a}->{b}]", "sum", values[b] - values[a],
                   combined_err([(a, -1.0), (b, 1.0)]))
    top = Ns[len(Ns) // 2:]
    if len(top) < 2:
        top = Ns
    lx = np.log(top)
    dx = lx - lx.mean()
    ly = np.array([values[N] for N in top])
    slope = float((dx * (ly - ly.mean())).sum() / (dx ** 2).sum())
    # the slope is sum_i w_i E(N_i) with w_i = dx_i / sum dx^2
    slope_err = combined_err(zip(top, dx / (dx ** 2).sum()))
    report.add("fitted_slope_top_half", "sum", slope, slope_err)
    report.add("slope_target", "asymptotic",
               1.0 / math.exp(log_beta(args.m * args.L / 2.0, 0.5)))
    report.wall_time_s = time.time() - t0
    _write_report(report, args, "weak")
    for row in report.rows:
        print(f"  {row.quantity:28s} {row.method:12s} {row.value:.8g}")
    return EXIT_OK


def cmd_gj(args) -> int:
    _require(args, "L")
    js = sorted({int(s) for s in args.j_list.split(",") if s.strip()})
    rng = np.random.default_rng(args.seed)
    t0 = time.time()
    report = ComparisonReport(rows=[], config=_config_dict(args), seed=args.seed)
    worst = 0.0
    for j in js:
        gv = g_j_contour(j, args.L, args.m)
        mc, se = g_j_mc(j, args.L, args.m, args.mc_samples, rng)
        report.add(f"g[{j}]", "quadrature", gv.value, gv.err_est)
        report.add(f"g[{j}]", "montecarlo", mc, se)
        report.add(f"g[{j}]", "asymptotic", g_j_sym(j, args.L, args.m))
        if se > 0:
            worst = max(worst, abs(gv.value - mc) / se)
    report.wall_time_s = time.time() - t0
    _write_report(report, args, "gj")
    print(f"  worst contour-vs-mc deviation: {worst:.2f} sigma")
    return EXIT_OK if worst <= 3.0 else EXIT_TOLERANCE


def cmd_alm(args) -> int:
    _require(args, "L")
    rng = np.random.default_rng(args.seed)
    t0 = time.time()
    closed = a_lm_closed(args.L, args.m)
    mean, se = a_lm_mc(args.L, args.m, args.mc_samples, rng)
    report = ComparisonReport(rows=[], config=_config_dict(args), seed=args.seed)
    report.add("splitting_constant", "sum", closed)
    report.add("splitting_constant", "montecarlo", mean, se)
    report.wall_time_s = time.time() - t0
    _write_report(report, args, "alm")
    z = abs(mean - closed) / se
    print(f"  closed {closed!r}  mc {mean!r} +- {se:.2e}  ({z:.2f} sigma)")
    return EXIT_OK if z <= 3.0 else EXIT_TOLERANCE


def cmd_sample(args) -> int:
    kind, L = _ensemble(args)
    bins = None
    if args.bins:
        lim = 1.5 if kind is EnsembleKind.REAL_GINIBRE else 1.0
        bins = np.linspace(-lim, lim, args.bins + 1)
    est = estimate_expected_real(EnsembleSpec(args.N, L, args.m, kind),
                                 args.trials, args.seed, args.threads, bins=bins)
    out = Path(args.out or "sample.json")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(est.to_json() + "\n")
    print(f"wrote {out}")
    if bins is not None:
        hist_path = out.with_suffix(".hist.csv")
        with open(hist_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(histogram_csv_lines(est)) + "\n")
        print(f"wrote {hist_path}")
    print(f"  mean {est.mean!r} +- {est.stderr:.4e} over {est.trials} trials")
    return EXIT_OK


def cmd_verify(args) -> int:
    only = [s.strip() for s in args.only.split(",")] if args.only else None
    try:
        results = run_verify(only=only, seed=args.seed, threads=args.threads)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"  {r.name:{width}s}  {status}  {r.detail}")
        failures += not r.passed
    return EXIT_OK if failures == 0 else EXIT_TOLERANCE


_COMMANDS = {
    "expected": cmd_expected,
    "density": cmd_density,
    "weak": cmd_weak,
    "gj": cmd_gj,
    "alm": cmd_alm,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonConvergentError, PrecisionLossError, SlowConvergenceError,
            SchurNoConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT


if __name__ == "__main__":
    sys.exit(main())
