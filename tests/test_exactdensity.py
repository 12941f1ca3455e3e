import json
import math

import numpy as np
import pytest

from realeig import (EnsembleKind, EnsembleSpec, QuadratureSpec, Rule,
                     SeriesParams, asympt_expected, build_density_curve,
                     density_rho, expected_real_quadrature, expected_real_sum,
                     gin_asympt_expected, gin_expected_real_quadrature,
                     gin_limiting_density, kernel_S, limiting_density)
from realeig import exactdensity, verify
from realeig.errors import DomainError
from realeig.exactdensity import DensityCurve, density_mass, gin_density_rho
from realeig.quadrature import gauss_kronrod_adaptive
from realeig.series import f_gin_log_array, f_truncated_log_array
from realeig.weights import _log_base_array
from conftest import SEED

FAST = QuadratureSpec(rel_tol=1e-8, rule=Rule.TANH_SINH)


def _midpoint(integrand, kinks, n):
    """Composite-midpoint sum of integrand over the panels between
    consecutive kinks, n nodes per panel."""
    total = 0.0
    for a, b in zip(kinks[:-1], kinks[1:]):
        ys = a + (b - a) * (np.arange(n) + 0.5) / n
        total += integrand(ys).sum() * (b - a) / n
    return total


def midpoint_oracle_S(x1, x2, p, n=2000):
    """Composite-midpoint evaluation of the kernel integral over the whole
    of [-1, 1], unfolded, split at the sign kink and at 0; independent of
    the adaptive quadrature code path and of the fold onto y >= 0."""
    def integrand(ys):
        M, v, _ = f_truncated_log_array(x1 * ys, p.N, p.L, p.m)
        return (x1 - ys) * np.sign(x2 - ys) * v * np.exp(
            _log_base_array(np.array([abs(x1)]), p.L)[0]
            + _log_base_array(ys, p.L) + M)
    return _midpoint(integrand, sorted({-1.0, 0.0, x2, 1.0}), n)


def midpoint_oracle_gin_rho(t, N, n=4000):
    """Composite-midpoint m = 1 Ginibre density, unfolded over [-T, T]."""
    T = exactdensity._gin_cutoff(N, 1)
    def integrand(ys):
        M, v, _ = f_gin_log_array(t * ys, N, 1)
        return np.abs(t - ys) * v * np.exp(
            -0.5 * t * t - 0.5 * ys * ys + M - math.log(2.0 * math.sqrt(2.0 * math.pi)))
    return _midpoint(integrand, sorted({-T, 0.0, t, T}), n)


def test_kernel_diagonal_nonnegative():
    p = SeriesParams(6, 2, 1)
    rng = np.random.default_rng(SEED)
    for x in rng.uniform(-0.97, 0.97, 50):
        assert kernel_S(float(x), float(x), p, FAST) >= -1e-12


def test_kernel_diagonal_even():
    p = SeriesParams(6, 2, 1)
    rng = np.random.default_rng(SEED + 1)
    for x in rng.uniform(0.02, 0.95, 20):
        a = kernel_S(float(x), float(x), p, FAST)
        b = kernel_S(float(-x), float(-x), p, FAST)
        assert b == pytest.approx(a, rel=1e-8)


def test_kernel_against_midpoint_oracle():
    # both signs of x1 and of x2: the fold's mirror term and folded edges
    p = SeriesParams(6, 2, 1)
    for x1, x2 in ((0.3, 0.5), (-0.3, 0.5), (0.3, -0.5), (-0.6, -0.2)):
        got = kernel_S(x1, x2, p, QuadratureSpec(rel_tol=1e-10, rule=Rule.TANH_SINH))
        want = midpoint_oracle_S(x1, x2, p)
        assert got == pytest.approx(want, abs=1e-6, rel=1e-6), (x1, x2)


def test_gin_density_against_unfolded_midpoint_oracle():
    got = gin_density_rho(1.3, 8, 1, QuadratureSpec(rel_tol=1e-10))
    assert got == pytest.approx(midpoint_oracle_gin_rho(1.3, 8), abs=1e-6, rel=1e-6)


def test_density_is_kernel_diagonal():
    # one evaluator: at x > 0 the diagonal is the density bit for bit
    for p in (SeriesParams(6, 2, 1), SeriesParams(6, 1, 2)):
        for x in (0.05, 0.35, 0.9):
            assert kernel_S(x, x, p, FAST) == density_rho(x, p, FAST)


def test_density_evenness():
    p = SeriesParams(8, 2, 2)
    a = density_rho(0.35, p, FAST)
    b = density_rho(-0.35, p, FAST)
    assert b == pytest.approx(a, rel=1e-8)


def test_density_singular_point_rejected():
    with pytest.raises(DomainError):
        density_rho(0.0, SeriesParams(8, 2, 2), FAST)
    assert density_rho(0.0, SeriesParams(8, 2, 1), FAST) > 0.0


def test_expected_consistency_with_density_integral():
    for (N, L, m) in ((4, 2, 1), (6, 2, 2), (6, 4, 1)):
        p = SeriesParams(N, L, m)
        mass = density_mass(p, FAST)
        def rho(x):
            return np.array([density_rho(float(v), p, FAST) for v in x])
        direct = 0.0
        for a, b in ((1e-9, 0.5), (0.5, 1.0 - 1e-12)):
            v, _, _ = gauss_kronrod_adaptive(rho, a, b,
                                             QuadratureSpec(rel_tol=1e-6,
                                                            max_depth=24))
            direct += 2.0 * v
        assert direct == pytest.approx(mass, rel=1e-4)


# At m = 2 the weight is the exact two-factor closed form, and the two
# routes agree to rounding: gaps of at most 6.2e-14 over this grid, which is
# 8.6e-5 of err_q + err_s at most (the sum route's err_s dominates).  This
# gate sits beside criterion 1's 1e-5; it does not replace it.
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_two_factor_masses_match_the_sum_route(L):
    for N in (4, 5, 6, 7, 8, 16, 64):
        q, err_q = expected_real_quadrature(SeriesParams(N, L, 2), return_err=True)
        s, err_s = expected_real_sum(N, L, 2, return_err=True)
        assert abs(q - s) <= 1.0 * (err_q + err_s)
        assert abs(q - s) <= 1e-12


def test_density_vanishes_outside_limiting_support(limit_masses):
    # just outside the limit support the finite-size density dies away;
    # the even-size subsequence decays monotonically, the odd starting
    # point carries the unpaired-spectrum parity effect
    x_out = (0.5 ** 0.5 + 1.0) / 2.0
    vals = []
    for N in (25, 50, 100, 200):
        p = SeriesParams(N, N, 1)
        mass = limit_masses[N]
        vals.append(density_rho(x_out, p, FAST) / mass)
    assert vals[1] > vals[2] > vals[3]
    assert vals[-1] < 1e-8
    assert vals[-1] < 1e-4 * max(vals)


# Series points per mass at the default spec: the wedge x >= |y| gives
# 43,180 and 157,632; whole density rows folded onto y >= 0 took 48,441 and
# 306,086, and the unfolded integral over [-1, 1] 96,887 and 550,214.
# Counted through the names the benchmark's tracer wraps.
@pytest.mark.parametrize("name,mass,bound", [
    ("f_truncated_log_array", lambda: density_mass(SeriesParams(12, 3, 1)), 52_000),
    ("f_gin_log_array", lambda: gin_expected_real_quadrature(8, 1), 190_000),
])
def test_mass_series_points_stay_folded(monkeypatch, name, mass, bound):
    points = []
    def counting(z, *args, _fn=getattr(exactdensity, name)):
        points.append(np.size(z))
        return _fn(z, *args)
    monkeypatch.setattr(exactdensity, name, counting)
    mass()
    assert 0 < sum(points) <= bound


def test_exact_route_size_envelope():
    from realeig.errors import PrecisionLossError
    with pytest.raises(PrecisionLossError):
        density_rho(0.3, SeriesParams(300, 300, 1), FAST)
    with pytest.raises(PrecisionLossError):
        kernel_S(0.3, 0.4, SeriesParams(20, 300, 1), FAST)


def test_expected_parity_lower_bound():
    # odd matrix dimension forces at least one real eigenvalue
    assert expected_real_quadrature(SeriesParams(5, 2, 1), FAST) >= 1.0
    assert expected_real_quadrature(SeriesParams(4, 2, 1), FAST) >= 0.0


def test_expected_closed_form_smallest_case():
    # N=2, L=2, m=1: the kernel integral evaluates to 4/3 in closed form
    got = expected_real_quadrature(SeriesParams(2, 2, 1), FAST)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-8)


def test_limiting_density_values():
    want = 1.0 / (2.0 * math.atanh(math.sqrt(0.5))) / (1.0 - 0.01)
    assert limiting_density(0.1, 1, 0.5) == pytest.approx(want, rel=1e-12)
    assert limiting_density(0.8, 1, 0.5) == 0.0
    with pytest.raises(DomainError):
        limiting_density(0.0, 1, 0.5)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("alpha_t", [0.3, 0.5, 0.8])
def test_limiting_density_normalization(m, alpha_t):
    # substituted quadrature x = u^m removes the algebraic singularity
    edge = alpha_t ** (m / 2.0)

    def f(u):
        vals = np.array([limiting_density(float(v) ** m, m, alpha_t)
                         for v in u])
        return vals * m * u ** (m - 1)

    v, _, _ = gauss_kronrod_adaptive(f, 1e-14, edge ** (1.0 / m) - 1e-14,
                                     QuadratureSpec(rel_tol=1e-10, max_depth=30))
    assert 2.0 * v == pytest.approx(1.0, abs=1e-8)


def test_asympt_expected_value_and_scalings():
    assert asympt_expected(100, 100, 1) == pytest.approx(7.03227, abs=1e-4)
    assert asympt_expected(100, 100, 4) == pytest.approx(
        2.0 * asympt_expected(100, 100, 1), rel=1e-13)
    assert asympt_expected(200, 200, 1) == pytest.approx(
        2.0 * asympt_expected(50, 50, 1), rel=1e-13)


def test_gin_asympt_expected():
    assert gin_asympt_expected(50, 2) == pytest.approx(
        math.sqrt(200.0 / math.pi), rel=1e-14)
    assert gin_asympt_expected(50, 2) == gin_asympt_expected(2, 50)
    assert gin_asympt_expected(200, 1) == pytest.approx(
        2.0 * gin_asympt_expected(50, 1), rel=1e-14)


def test_gin_limiting_density():
    assert gin_limiting_density(0.25, 2) == pytest.approx(0.5, rel=1e-14)
    assert gin_limiting_density(0.5, 1) == pytest.approx(0.5, rel=1e-14)
    assert gin_limiting_density(1.5, 3) == 0.0
    with pytest.raises(DomainError):
        gin_limiting_density(0.0, 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gin_limiting_density_normalization(m):
    def f(u):
        vals = np.array([gin_limiting_density(float(v) ** m, m) for v in u])
        return vals * m * u ** (m - 1)

    v, _, _ = gauss_kronrod_adaptive(f, 1e-14, 1.0 - 1e-14,
                                     QuadratureSpec(rel_tol=1e-12, max_depth=30))
    assert 2.0 * v == pytest.approx(1.0, abs=1e-10)


def test_gin_exact_expected_small_even_sizes():
    # classical closed forms for one Gaussian factor: sqrt(2), sqrt(2)*11/8
    assert gin_expected_real_quadrature(2, 1, FAST) == pytest.approx(
        math.sqrt(2.0), rel=1e-7)
    assert gin_expected_real_quadrature(4, 1, FAST) == pytest.approx(
        math.sqrt(2.0) * 11.0 / 8.0, rel=1e-7)


def test_gin_exact_expected_rejects_odd():
    with pytest.raises(DomainError):
        gin_expected_real_quadrature(3, 1, FAST)
    with pytest.raises(DomainError):
        gin_density_rho(0.5, 5, 1, FAST)


def test_density_curve_build_and_serialization(tmp_path):
    ens = EnsembleSpec(6, 2, 1)
    xs = np.linspace(-0.9, 0.9, 25)
    xs = xs[xs != 0.0]
    curve = build_density_curve(ens, xs, FAST, normalized=True)
    assert curve.values.min() >= 0.0
    assert curve.normalized
    curve.to_csv(tmp_path / "c.csv")
    curve.to_json(tmp_path / "c.json")
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    x0, v0 = lines[1].split(",")
    assert float(x0) == curve.abscissae[0]
    assert float(v0) == curve.values[0]
    payload = json.loads((tmp_path / "c.json").read_text())
    assert payload["ensemble"]["N"] == 6
    assert payload["meta"]["rule"] == "tanh-sinh"
    assert [float(s) for s in payload["x"]] == list(curve.abscissae)


def test_density_curve_normalized_mass_invariant():
    ens = EnsembleSpec(8, 2, 1)
    xs = np.linspace(-0.999, 0.999, 401)
    xs = xs[np.abs(xs) > 1e-6]
    curve = build_density_curve(ens, xs, FAST, normalized=True)
    assert 0.98 <= curve.trapezoid_mass() <= 1.02


def test_density_curve_odd_size_outer_bins_are_zero():
    # at odd N = L >= 25 the outermost bins integrate to about -1e-25, far
    # below their quadrature error; they are zero, not a negative density
    edges = np.linspace(-1.0, 1.0, 65)
    mids = 0.5 * (edges[:-1] + edges[1:])
    spec = QuadratureSpec(rel_tol=3e-9, rule=Rule.TANH_SINH)
    curve = build_density_curve(EnsembleSpec(25, 25, 1), mids, spec,
                                normalized=False)
    assert (curve.values >= 0).all()
    mass = curve.values.sum() * (edges[1] - edges[0])
    assert mass == pytest.approx(expected_real_sum(25, 25, 1) - 1, abs=1e-6)


def test_density_curve_rejects_bad_grids():
    ens = EnsembleSpec(6, 2, 1)
    with pytest.raises(DomainError):
        DensityCurve(ens, np.array([0.2, 0.1]), np.array([1.0, 1.0]), False)
    with pytest.raises(DomainError):
        DensityCurve(ens, np.array([0.1, 0.2]), np.array([-1.0, 1.0]), False)


@pytest.mark.parametrize("case", [(6, 2, 1), (5, 1, 2), ("ginibre", 4, 1)],
                         ids=["6-2-1", "5-1-2", "ginibre-4-1"])
def test_batched_mass_matches_pointwise_composition(case):
    # the outer rule fed one call of the mass's own inner row (the wedge
    # row over (0, x)) per node: a batch whose rows shared or leaked state
    # would differ in some bit
    inner = QuadratureSpec(rel_tol=FAST.rel_tol * 0.3, rule=Rule.TANH_SINH)
    if case[0] == "ginibre":
        _, N, m = case
        row = lambda t: exactdensity._gin_rho([t], N, m, inner, wedge=True)[0]
        edges = [0.0, N ** (m / 2.0), exactdensity._gin_cutoff(N, m)]
        batched = gin_expected_real_quadrature(N, m, FAST, return_err=True)
    else:
        p = SeriesParams(*case)
        row = lambda x: exactdensity._rho([x], p, inner, wedge=True)[0]
        edges = sorted({0.0, 1.0} | {e for e in exactdensity._regime_edges(p)
                                     if 0.0 < e < 1.0})
        batched = density_mass(p, FAST, return_err=True)
    total, err = exactdensity._piecewise(
        lambda xs, _: np.array([row(float(x)) for x in xs]), [edges], FAST)
    assert batched == (4.0 * total[0], 4.0 * err[0])


# The mass over the wedge x >= |y| against the same mass over whole density
# rows (twice their integral over x >= 0), at the gate verify's wedge check
# pins: worst measured |gap| / (err_a + err_b) is 0.24, at (8, 2, 3).  A
# factor 2 in place of 4 misses by half the mass.  A wedge row without its
# f(-x y) half drops the quadrants x y < 0, which hold 1.0 at even N and
# 0.0 at odd N (measured at (6, 1, 2) and (5, 1, 2)), so the even cases
# catch that one.
@pytest.mark.parametrize("case", [(5, 1, 2), (8, 2, 3), (20, 20, 1), ("ginibre", 6, 2)],
                         ids=["5-1-2", "8-2-3", "20-20-1", "ginibre-6-2"])
def test_wedge_mass_matches_density_rows(case):
    assert verify.wedge_ratio(case) <= verify.WEDGE_K


def test_single_factor_l1_mass_converges():
    # L = m = 1: wedge rows end at y = x < 1, so no inner panel ends at the
    # (1 - y^2)^(-1/2) edge y = 1, where whole density rows stalled
    # (NonConvergentError at N = 64).  The
    # gap to the sum route, -1.5e-7 against err_q 5.9e-9, is the known L = 1
    # floor of the kernel route; criterion 1's 1e-5 holds
    q, err_q = expected_real_quadrature(SeriesParams(64, 1, 1), return_err=True)
    s = expected_real_sum(64, 1, 1)
    assert err_q > 0.0
    assert abs(q - s) <= 1e-5 * max(abs(q), abs(s))


def test_density_curve_matches_pointwise_density():
    p = SeriesParams(9, 3, 1)
    xs = np.linspace(-0.95, 0.95, 16)
    curve = build_density_curve(EnsembleSpec(9, 3, 1), xs, FAST, normalized=False)
    assert curve.values.tolist() == [density_rho(float(x), p, FAST) for x in xs]


@pytest.mark.parametrize("case", [(6, 2, 1), (5, 1, 2), ("ginibre", 6, 1)],
                         ids=["6-2-1", "5-1-2", "ginibre-6-1"])
def test_small_series_chunks_change_no_bit(monkeypatch, case):
    # about a hundred points per series call, and short last chunks that
    # can run the term-axis form: state kept from one chunk to the next
    # would show
    if case[0] == "ginibre":
        _, N, m = case
        ens = EnsembleSpec(N, 0, m, EnsembleKind.REAL_GINIBRE)
        mass = lambda: gin_expected_real_quadrature(N, m, FAST, return_err=True)
    else:
        p = SeriesParams(*case)
        ens = EnsembleSpec(*case)
        mass = lambda: density_mass(p, FAST, return_err=True)
    curve = lambda: build_density_curve(ens, np.linspace(-0.95, 0.95, 24), FAST,
                                        normalized=False).values
    want = mass(), curve()
    monkeypatch.setattr(exactdensity, "_CHUNK_BYTES", 4096)
    got = mass(), curve()
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()
