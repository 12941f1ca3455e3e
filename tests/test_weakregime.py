import math

import numpy as np
import pytest

from realeig import (GjTable, QuadratureSpec, Rule, SeriesParams, a_lm_closed,
                     a_lm_mc, expected_real_quadrature, expected_real_sum,
                     g_j_contour, g_j_even_odd_asy, g_j_mc, g_j_sym,
                     weak_asymptotic)
from realeig import weakregime
from realeig.errors import DomainError
from realeig.gammafns import log_gamma_complex_array
from realeig.quadrature import GK_NODES, GK_WEIGHTS_G, GK_WEIGHTS_K
from realeig.weakregime import log_2q
from conftest import SEED

FAST = QuadratureSpec(rel_tol=1e-8, rule=Rule.TANH_SINH)


def test_g0_closed_form():
    # small-index values reduce to rational residue sums
    assert g_j_contour(0, 2, 1).value == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert g_j_contour(0, 1, 1).value == pytest.approx(4.0 / math.pi, rel=1e-9)


def test_gj_positive_on_parameter_grid():
    for L in (1, 2, 3, 4):
        for m in (1, 2, 3):
            for j in (0, 1, 2, 5, 10):
                gv = g_j_contour(j, L, m)
                assert gv.sign == 1
                assert gv.value > 0.0 or gv.log_value < -700


def test_gj_eventually_nonincreasing_in_j():
    table = GjTable(2, 1)
    table.ensure(24)
    vals = np.exp(table.log_g[2:25])
    assert np.all(np.diff(vals) <= 1e-15)


def test_gj_contour_vs_mc_cross_representation():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    cases = [(j, L, m) for j in (0, 1, 2, 5) for L in (1, 2, 4) for m in (1, 2)]
    # mL = 1 reaches the largest |Im s| on the contour
    cases += [(j, 1, 1) for j in (37, 150, 500, 2000)]
    for j, L, m in cases:
        mc, se = g_j_mc(j, L, m, 10 ** 6, rng)
        ct = g_j_contour(j, L, m).value
        z = abs(ct - mc) / se
        worst = max(worst, z)
        assert z <= 3.0, (j, L, m, ct, mc, se)
    assert worst > 0.0


def test_gj_mc_stderr_scales_like_sqrt_n():
    rng = np.random.default_rng(SEED + 2)
    _, se1 = g_j_mc(2, 2, 1, 10 ** 4, rng)
    _, se16 = g_j_mc(2, 2, 1, 16 * 10 ** 4, rng)
    assert se16 == pytest.approx(se1 / 4.0, rel=0.3)


def test_g_j_sym_values():
    assert g_j_sym(0, 2, 1) == pytest.approx(0.5, rel=1e-13)
    assert g_j_sym(0, 4, 1) == pytest.approx(0.125, rel=1e-13)
    vals = [g_j_sym(j, 2, 1) for j in range(21)]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))


def test_a_lm_closed_values():
    assert a_lm_closed(2, 1) == pytest.approx(0.375, rel=1e-13)
    assert a_lm_closed(2, 2) == pytest.approx(0.6875, rel=1e-13)
    assert a_lm_closed(4, 1) == pytest.approx(0.6875, rel=1e-13)


@pytest.mark.parametrize("L,m,target", [(2, 1, 0.375), (4, 1, 0.6875),
                                        (2, 2, 0.6875)])
def test_a_lm_mc_matches_closed_form(L, m, target):
    rng = np.random.default_rng(SEED + L * 10 + m)
    mean, se = a_lm_mc(L, m, 10 ** 6, rng)
    assert abs(mean - target) <= 3.0 * se


def test_a_lm_mc_exchangeability_baseline():
    # replacing the weight by 1/2 estimates P(sum r < sum t)/2 = 1/4
    rng = np.random.default_rng(SEED)
    t = rng.standard_gamma(1.0, size=(10 ** 6, 1)).sum(axis=1)
    r = rng.standard_gamma(1.0, size=(10 ** 6, 1)).sum(axis=1)
    stat = 0.5 * (r < t)
    assert stat.mean() == pytest.approx(0.25, abs=3 * stat.std() / 1000.0)


def test_even_odd_asymptotics_structure():
    even, odd = g_j_even_odd_asy(5, 2, 1)
    assert 0.5 * (even + odd) == pytest.approx(g_j_sym(5, 2, 1), rel=1e-14)
    assert even > odd
    with pytest.raises(DomainError):
        g_j_even_odd_asy(0, 2, 1)


def test_even_odd_difference_against_contour(gj_table_21):
    # j^{mL} (g_{2j} - g_{2j+1}) -> 2 A / j, approaching from below
    A = a_lm_closed(2, 1)
    ratios = []
    for j in (8, 16, 32):
        d = (math.exp(gj_table_21.log_g[2 * j])
             - math.exp(gj_table_21.log_g[2 * j + 1]))
        ratios.append(j ** 2 * d / (2.0 * A / j))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] == pytest.approx(1.0, abs=0.15)


def test_asymptotic_vs_contour_at_moderate_index():
    even, odd = g_j_even_odd_asy(10, 2, 1)
    assert g_j_contour(20, 2, 1).value == pytest.approx(even, rel=0.05)
    assert g_j_contour(21, 2, 1).value == pytest.approx(odd, rel=0.05)


def test_prefactor_value():
    # 2 q at (L, m) = (2, 1) equals 1, i.e. q = 1/2
    assert math.exp(log_2q(2, 1)) == pytest.approx(1.0, rel=1e-13)


def test_sum_route_smallest_case():
    # single term: 2 q C(2,0)^m g_0 = 4/3
    assert expected_real_sum(2, 2, 1) == pytest.approx(4.0 / 3.0, rel=1e-9)


@pytest.mark.parametrize("N,L,m", [(6, 2, 1), (10, 2, 1), (8, 2, 2)])
def test_sum_equals_quadrature(N, L, m):
    a = expected_real_sum(N, L, m)
    b = expected_real_quadrature(SeriesParams(N, L, m), FAST)
    assert abs(a - b) <= 1e-5 * max(abs(a), abs(b))


@pytest.mark.parametrize("N", [5, 7])
def test_sum_equals_quadrature_odd_sizes(N):
    a = expected_real_sum(N, 2, 1)
    b = expected_real_quadrature(SeriesParams(N, 2, 1), FAST)
    assert abs(a - b) <= 1e-5 * max(abs(a), abs(b))
    assert a >= 1.0


def test_increment_approaches_half_log_two(gj_table_21):
    e2048 = expected_real_sum(2048, 2, 1, table=gj_table_21)
    e4096 = expected_real_sum(4096, 2, 1, table=gj_table_21)
    d = e4096 - e2048
    target = 0.5 * math.log(2.0)
    assert abs(d - target) <= 0.1 * target


def test_log_law_slope_at_mL_one():
    # the criterion-5 fit at (L, m) = (1, 1), where the slope is 1/pi
    table = GjTable(1, 1)
    table.ensure(8190)
    Ns = [256, 512, 1024, 2048, 4096, 8192]
    vals = [expected_real_sum(N, 1, 1, table=table) for N in Ns]
    slope = float(np.polyfit(np.log(Ns), vals, 1)[0])
    assert abs(slope - 1.0 / math.pi) <= 0.1 / math.pi


def _g_batch_full_line(js, L, m, rel_tol, density):
    """Reference rule: the whole line -U..U, every (j, node) pair evaluated
    and the nodes past each index's cut-off masked afterwards."""
    js = np.asarray(js, dtype=float)
    sig, tau, U = weakregime._contour_line(js, L, m, rel_tol)
    cj = np.ceil(js / 2.0)
    edges = weakregime._BASE_EDGES
    if density > 1:
        refined = [0.0]
        for a, b in zip(edges[:-1], edges[1:]):
            refined.extend(np.linspace(a, b, density + 1)[1:])
        edges = np.array(refined)
    edges = np.concatenate([-edges[::-1], edges[1:]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * GK_NODES[None, :]).ravel()
    s = sig[:, None] + 1j * tau[:, None] * np.sinh(u)[None, :]
    jc = js[:, None]
    lg = log_gamma_complex_array
    logf = (m * (lg(0.5 + s) + lg(jc + 1.0 - s) - lg((L + 1) / 2.0 + s)
                 - lg(L / 2.0 + 1.0 + jc - s)) - np.log(cj[:, None] - s))
    s0 = weakregime._log_integrand_real(sig, js, L, m)
    live = np.abs(u)[None, :] <= U[:, None]
    z = np.where(live, logf - s0[:, None], -np.inf)
    vals = (np.exp(z.real) * np.cos(z.imag)) * (tau[:, None] * np.cosh(u)[None, :])
    vals = vals.reshape(len(js), len(mid), 15)
    ik = (vals * GK_WEIGHTS_K).sum(axis=2) * half
    ig = (vals[:, :, 1::2] * GK_WEIGHTS_G).sum(axis=2) * half
    total = ik.sum(axis=1)
    rel = np.abs(ik - ig).sum(axis=1) / np.abs(total)
    return np.sign(total), s0 + np.log(np.abs(total)) - math.log(2.0 * math.pi), rel


@pytest.mark.parametrize("density", [1, 4])
@pytest.mark.parametrize("L,m", [(2, 1), (1, 2), (3, 2)])
def test_half_line_rule_matches_full_line_reference(L, m, density):
    js = np.arange(301)
    sign, logg, rel = weakregime._g_batch(js, L, m, 1e-11, density=density)
    ref_sign, ref_logg, ref_rel = _g_batch_full_line(js, L, m, 1e-11, density)
    assert np.array_equal(sign, ref_sign)
    assert np.max(np.abs(logg - ref_logg)) <= 1e-12
    assert np.max(np.abs(rel - ref_rel)) <= 1e-12


@pytest.mark.parametrize("L,m", [(1, 1), (3, 2), (2, 1)])
def test_g_values_do_not_depend_on_blocks_or_threads(monkeypatch, L, m):
    js = np.arange(700)
    ref = weakregime._g_values(js, L, m)
    runs = [weakregime._g_values(js, L, m, chunk=96, threads=3)]
    # node blocks that cut indices apart, down to one pair at a time (on
    # the first 120 indices only: a pair per call is slow)
    for block, n in ((97, 700), (1, 120)):
        monkeypatch.setattr(weakregime, "_BLOCK_PAIRS", block)
        runs.append(weakregime._g_values(js[:n], L, m))
    for got in runs:
        for a, b in zip(ref, got):
            assert np.array_equal(a[:len(b)], b)


@pytest.mark.parametrize("L", [2, 4, 6])
def test_even_L_gamma_ratio_matches_mpmath(L):
    mpmath = pytest.importorskip("mpmath")
    ts = np.array([0.0, 1.0, 1e3, 1e8, 1e13])
    with mpmath.workdps(30):
        for j in (0, 1, 37, 510):
            # the saddle line and lines next to either pole fence
            saddle = weakregime._saddle_points(np.array([float(j)]), L, 1)[0]
            right = min(math.ceil(j / 2), j + 1)
            for sg in (-0.5 + 1e-3, saddle, right - 1e-3):
                got = weakregime._log_gamma_ratio(sg + 1j * ts, j, L)
                for t, g in zip(ts, got):
                    z = mpmath.mpc(sg, t)
                    want = (mpmath.loggamma(0.5 + z) + mpmath.loggamma(j + 1 - z)
                            - mpmath.loggamma(mpmath.mpf(L + 1) / 2 + z)
                            - mpmath.loggamma(mpmath.mpf(L) / 2 + 1 + j - z))
                    assert abs(g.real - want.real) <= 1e-13, (j, sg, t, g, want)
                    assert abs(g.imag - want.imag) <= 1e-13, (j, sg, t, g, want)
                # the real-axis path of the saddle search and of s0
                real = weakregime._log_gamma_ratio(np.array([sg]), j, L)[0]
                assert abs(real - got[0].real) <= 1e-13


def test_even_L_contour_calls_no_log_gamma(monkeypatch):
    def refuse(*args):
        raise AssertionError("log-gamma called")

    monkeypatch.setattr(weakregime, "log_gamma_complex_array", refuse)
    monkeypatch.setattr(weakregime, "real_log_gamma_array", refuse)
    for L, m in ((2, 1), (4, 2)):
        sign, logg, rel = weakregime._g_values(np.arange(64), L, m)
        assert np.all(sign == 1.0) and np.all(np.isfinite(logg))
    # odd L, and even L past the product limit, look the kernels up by name
    # at call time
    for L in (3, weakregime._PRODUCT_MAX_L + 2):
        with pytest.raises(AssertionError, match="log-gamma called"):
            weakregime._g_values(np.arange(4), L, 1)


def test_weak_asymptotic_coefficients():
    assert weak_asymptotic(100, 2, 1) == pytest.approx(0.5 * math.log(100),
                                                       rel=1e-13)
    assert weak_asymptotic(100, 1, 1) == pytest.approx(math.log(100) / math.pi,
                                                       rel=1e-13)
    assert weak_asymptotic(100, 1, 2) == pytest.approx(0.5 * math.log(100),
                                                       rel=1e-13)
    n = int(round(math.e ** 2))
    assert weak_asymptotic(n, 2, 1) == pytest.approx(0.5 * math.log(n),
                                                     rel=1e-13)


def test_gj_table_grows_and_caches(tmp_path):
    from realeig import cache

    table = GjTable(3, 2)
    table.ensure(6)
    assert len(table) == 7
    v6 = table.value(6)
    table.ensure(12)
    assert len(table) == 13
    assert table.value(6).log_value == v6.log_value
    path = cache.save_gj_table(tmp_path, table)
    assert path.exists()
    loaded = cache.load_gj_table(tmp_path, 3, 2, table.rel_tol)
    assert loaded is not None
    assert np.array_equal(loaded.log_g, table.log_g)
    assert cache.load_gj_table(tmp_path, 3, 2, table.rel_tol * 0.01) is None
