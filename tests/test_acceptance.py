"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one pass/fail line.  Heavy shared computations come from session fixtures."""
import math

import numpy as np
import pytest

from realeig import (EnsembleKind, EnsembleSpec, QuadratureSpec, Rule,
                     SeriesParams, a_lm_closed, a_lm_mc, asympt_expected,
                     density_rho, estimate_expected_real,
                     expected_real_quadrature, expected_real_sum,
                     g_j_contour, g_j_mc, gin_asympt_expected,
                     gin_limiting_density, limiting_density)
from realeig.gammafns import log_beta
from realeig.quadrature import gauss_kronrod_adaptive
from realeig.verify import run_verify
from conftest import SEED

FAST = QuadratureSpec(rel_tol=1e-8, rule=Rule.TANH_SINH)


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_cross_route_identity():
    worst = 0.0
    for (N, L, m) in ((6, 2, 1), (10, 2, 1), (8, 2, 2)):
        quad = expected_real_quadrature(SeriesParams(N, L, m), FAST)
        ssum = expected_real_sum(N, L, m)
        worst = max(worst, abs(quad - ssum) / max(abs(quad), abs(ssum)))
    report("1 (route identity)", worst <= 1e-5,
           f"max relative gap quadrature vs sum = {worst:.2e} (tol 1e-5)")


def test_criterion_2_simulation_agreement():
    details = []
    ok = True
    for (N, L, m) in ((2, 2, 1), (8, 2, 2)):
        est = estimate_expected_real(EnsembleSpec(N, L, m), trials=10 ** 5,
                                     seed=SEED)
        exact = expected_real_sum(N, L, m)
        z = abs(est.mean - exact) / est.stderr
        ok &= z <= 3.0
        details.append(f"(N={N},L={L},m={m}): {z:.2f} sigma")
    report("2 (simulation agreement)", ok, "; ".join(details) + " (tol 3 sigma)")


def test_criterion_3_sqrt_arctanh_remainder():
    spot = asympt_expected(100, 100, 1)
    ok = abs(spot - 7.03227) <= 1e-4
    worst = 0.0
    for m in (1, 2):
        for N in (20, 40, 80, 160):
            exact = expected_real_sum(N, N, m)
            lead = math.sqrt(2.0 * m * N / math.pi) * math.atanh(math.sqrt(0.5))
            worst = max(worst, abs(exact - lead))
    ok &= worst <= 2.0
    report("3 (remainder of the arctanh law)", ok,
           f"max |exact - leading| = {worst:.4f} (tol 2.0); "
           f"spot value {spot:.6f} vs 7.03227")


def test_criterion_4_limiting_density(limit_masses):
    lim = limiting_density(0.3, 1, 0.5)
    gaps = []
    for N in (25, 50, 100, 200):
        p = SeriesParams(N, N, 1)
        mass = limit_masses[N]
        rho_n = density_rho(0.3, p, QuadratureSpec(rel_tol=1e-8,
                                                   rule=Rule.TANH_SINH)) / mass
        gaps.append(abs(rho_n - lim) / lim)
    trend_ok = all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
    final_ok = gaps[-1] <= 0.05

    mass_ok = True
    for m in (1, 2, 3):
        edge = 0.5 ** (m / 2.0)

        def f(u, m=m):
            vals = np.array([limiting_density(float(v) ** m, m, 0.5)
                             for v in u])
            return vals * m * u ** (m - 1)

        v, _, _ = gauss_kronrod_adaptive(f, 1e-14, edge ** (1.0 / m) - 1e-14,
                                         QuadratureSpec(rel_tol=1e-10,
                                                        max_depth=30))
        mass_ok &= abs(2.0 * v - 1.0) <= 1e-8
    report("4 (limiting density)", trend_ok and final_ok and mass_ok,
           f"gaps at N=25..200: {[f'{g:.3f}' for g in gaps]} "
           f"(final tol 0.05, decreasing), unit mass to 1e-8: {mass_ok}")


def test_criterion_5_log_law_slope(gj_table_21):
    Ns = [256, 512, 1024, 2048, 4096, 8192]
    vals = [expected_real_sum(N, 2, 1, table=gj_table_21) for N in Ns]
    slope = float(np.polyfit(np.log(Ns), vals, 1)[0])
    target = 1.0 / math.exp(log_beta(1.0, 0.5))
    ok = abs(slope - target) <= 0.1 * target
    report("5 (log-law slope)", ok,
           f"fitted slope {slope:.6f} vs {target} (tol 10%)")


def test_criterion_6_splitting_constant():
    rng = np.random.default_rng(SEED)
    ok = True
    details = []
    for (L, m, closed) in ((2, 1, 0.375), (4, 1, 0.6875), (2, 2, 0.6875)):
        assert a_lm_closed(L, m) == pytest.approx(closed, rel=1e-13)
        mean, se = a_lm_mc(L, m, 10 ** 6, rng)
        z = abs(mean - closed) / se
        ok &= z <= 3.0
        details.append(f"(L={L},m={m}): {z:.2f} sigma")
    report("6 (splitting constant)", ok, "; ".join(details) + " (tol 3 sigma)")


def test_criterion_7_coefficient_cross_representation():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    count = 0
    for j in (0, 1, 2, 5):
        for L in (1, 2, 4):
            for m in (1, 2):
                mc, se = g_j_mc(j, L, m, 10 ** 6, rng)
                ct = g_j_contour(j, L, m).value
                worst = max(worst, abs(ct - mc) / se)
                count += 1
    report("7 (coefficient cross-representation)", worst <= 3.0,
           f"worst of {count} combinations: {worst:.2f} sigma (tol 3)")


def test_criterion_8_ginibre_law():
    ok = True
    details = []
    for m in (1, 2):
        est = estimate_expected_real(
            EnsembleSpec(50, 0, m, EnsembleKind.REAL_GINIBRE),
            trials=10 ** 4, seed=SEED + m)
        target = gin_asympt_expected(50, m)
        gap = abs(est.mean - target)
        tol = max(3.0 * est.stderr, 1.0)
        ok &= gap <= tol
        details.append(f"m={m}: |{est.mean:.3f} - {target:.3f}| = {gap:.3f} "
                       f"(tol {tol:.3f})")
    for m in (1, 2, 3):
        def f(u, m=m):
            vals = np.array([gin_limiting_density(float(v) ** m, m) for v in u])
            return vals * m * u ** (m - 1)

        v, _, _ = gauss_kronrod_adaptive(f, 1e-14, 1.0 - 1e-14,
                                         QuadratureSpec(rel_tol=1e-12,
                                                        max_depth=30))
        ok &= abs(2.0 * v - 1.0) <= 1e-10
    report("8 (Ginibre square-root law)", ok,
           "; ".join(details) + "; limit mass to 1e-10")


def test_criterion_9_property_suite(million_trials_821):
    # parity over one million trials (asserted per-trial by the sampler)
    manifest_ok = million_trials_821.trials == 10 ** 6 \
        and million_trials_821.schur_failures == 0
    results = run_verify(only=("parity", "haar", "mass", "evenness",
                               "gaussian-bound", "determinism"), seed=SEED)
    details = ["parity 0 violations in manifest 1e6 trials"]
    details += [f"{r.name} {'PASS' if r.passed else 'FAIL'}: {r.detail}"
                for r in results]
    report("9 (property suite)",
           manifest_ok and all(r.passed for r in results), "; ".join(details))
