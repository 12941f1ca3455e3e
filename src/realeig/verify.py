"""Invariant battery behind the `verify` CLI subcommand.

Each check runs at a pinned seed and returns a pass/fail line; the battery
is the run-anywhere smoke version of the full pytest suite.  This registry
is the only home of these checks: the acceptance gate draws its property
battery (criterion 9) from it, and every check runs on the production
engines.  A check's detail never depends on the thread budget.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactdensity import _DEFAULT_SPEC, _gin_mass, _trunc_mass, density_rho
from .montecarlo import (EnsembleSpec, estimate_expected_real,
                         sample_haar_orthogonal, trial_rng)
from .quadrature import QuadratureSpec
from .series import SeriesParams
from .weakregime import a_lm_closed, a_lm_mc, g_j_contour, g_j_mc
from .weights import DEFAULT_SPEC, _mass_check, weight_table


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_gaussian_bound(seed, threads):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, 10 ** 5)
    v = rng.uniform(0.0, 1.0, 10 ** 5)
    lhs = (1 - u ** 2) * (1 - v ** 2) / (1 - u * v) ** 2
    rhs = np.exp(-(u - v) ** 2)
    bad = int((lhs > rhs * (1 + 1e-12)).sum())
    return CheckResult("gaussian-bound", bad == 0,
                       f"violations {bad}/100000")


def _check_mass(seed, threads):
    tables = [weight_table(L, m) for (L, m) in ((1, 2), (2, 2), (3, 2), (2, 3))]
    tables.append(weight_table(1, 3, kind="ginibre"))
    worst = max(_mass_check(t, DEFAULT_SPEC) for t in tables)
    return CheckResult("mass", worst <= 1e-6, f"max relative mass gap {worst:.2e}")


def _check_alm(seed, threads):
    rng = np.random.default_rng(seed)
    mean, se = a_lm_mc(2, 1, 10 ** 6, rng)
    target = a_lm_closed(2, 1)
    z = abs(mean - target) / se
    return CheckResult("alm", z <= 3.0,
                       f"|mc - {target}| = {abs(mean - target):.2e} ({z:.2f} sigma)")


def _check_gj(seed, threads):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for (j, L, m) in ((0, 2, 1), (3, 1, 2), (4, 2, 2), (2, 4, 1)):
        mc, se = g_j_mc(j, L, m, 300000, rng)
        ct = g_j_contour(j, L, m).value
        worst = max(worst, abs(ct - mc) / se)
    return CheckResult("gj", worst <= 3.0, f"max deviation {worst:.2f} sigma")


def _check_parity(seed, threads):
    # the engine raises on any trial whose count breaks parity or exceeds N
    try:
        est = estimate_expected_real(EnsembleSpec(5, 2, 1), 20000, seed, threads)
    except AssertionError as exc:
        return CheckResult("parity", False, str(exc))
    return CheckResult("parity", est.schur_failures == 0,
                       f"violations 0/20000, Schur failures {est.schur_failures}")


def _check_haar(seed, threads):
    worst = 0.0
    worst_det = 0.0
    for t in range(100):
        rng = trial_rng(seed, t)
        q = sample_haar_orthogonal(30, rng)
        worst = max(worst, float(np.abs(q.T @ q - np.eye(30)).max()))
        worst_det = max(worst_det, abs(abs(np.linalg.det(q)) - 1.0))
    ok = worst <= 1e-12 and worst_det <= 1e-10
    return CheckResult("haar", ok,
                       f"orthogonality residual {worst:.2e}, |det|-1 {worst_det:.2e}")


def _check_evenness(seed, threads):
    worst = 0.0
    for p, spec, xs in (
            (SeriesParams(6, 2, 1), None, (0.15, 0.4, 0.75)),
            (SeriesParams(8, 2, 2), QuadratureSpec(rel_tol=1e-8),
             (0.2, 0.45, 0.7))):
        for x in xs:
            a = density_rho(x, p, spec)
            b = density_rho(-x, p, spec)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    return CheckResult("evenness", worst <= 1e-8, f"max relative gap {worst:.2e}")


# |wedge mass - density-row mass| <= WEDGE_K * (err_wedge + err_rows); the
# worst measured ratio over these cases and the Tier-1 test's is 0.24
WEDGE_K = 1.0


def wedge_ratio(case) -> float:
    """|gap| / (err_a + err_b) between a mass over the wedge x >= |y| and
    the same mass over the density rows; case is (N, L, m) or
    ("ginibre", N, m)."""
    if case[0] == "ginibre":
        mass = lambda wedge: _gin_mass(case[1], case[2], _DEFAULT_SPEC, wedge)
    else:
        mass = lambda wedge: _trunc_mass(SeriesParams(*case), _DEFAULT_SPEC, wedge)
    (a, err_a), (b, err_b) = mass(True), mass(False)
    return abs(a - b) / (err_a + err_b) if a != b else 0.0


def _check_wedge(seed, threads):
    worst = max(wedge_ratio(c) for c in ((6, 2, 1), (8, 2, 2), ("ginibre", 4, 1)))
    return CheckResult("wedge", worst <= WEDGE_K,
                       f"max |wedge - rows| / (err_a + err_b) = {worst:.2e} (tol {WEDGE_K:g})")


def _check_determinism(seed, threads):
    spec = EnsembleSpec(3, 2, 1)
    runs = {estimate_expected_real(spec, 500, seed, threads=k).to_json()
            for k in sorted({1, 4, 16, threads})}
    ok = len(runs) == 1
    return CheckResult("determinism", ok,
                       "bit-identical across thread counts" if ok
                       else "thread count changed the output")


_CHECKS = {
    "gaussian-bound": _check_gaussian_bound,
    "mass": _check_mass,
    "alm": _check_alm,
    "gj": _check_gj,
    "parity": _check_parity,
    "haar": _check_haar,
    "evenness": _check_evenness,
    "wedge": _check_wedge,
    "determinism": _check_determinism,
}


def available_checks():
    return list(_CHECKS)


def run_verify(only=None, seed: int = 20260808, threads: int = 1):
    names = available_checks() if not only else list(only)
    results = []
    for name in names:
        if name not in _CHECKS:
            raise KeyError(f"unknown check {name!r}; available: {available_checks()}")
        results.append(_CHECKS[name](seed, threads))
    return results
