import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realeig import (SeriesParams, e_nm, f_decomposition_residual,
                     f_gin_infinite, f_gin_truncated, f_inf_asymptotic,
                     f_infinite, f_truncated)
from realeig import series
from realeig.errors import (DomainError, PrecisionLossError,
                            SlowConvergenceError)
from realeig.gammafns import log_binomial
from realeig.series import (_EPS, _LOG_TINY, _gin_log_coeffs, _log_series,
                            _trunc_log_coeffs, f_gin_log_array,
                            f_truncated_log_array)
from conftest import SEED, monotone_with_slack


def brute_truncated(x, N, L, m):
    return sum(math.comb(L + n, n) ** m * x ** n for n in range(N - 1))


def test_params_derived_fields():
    p = SeriesParams(8, 2, 1)
    assert p.gamma == 0.25
    assert p.alpha == 1.0 / 1.25
    assert 0.0 < p.alpha < 1.0
    with pytest.raises(DomainError):
        SeriesParams(1, 2, 1)
    with pytest.raises(DomainError):
        SeriesParams(4, 0, 1)


def test_f_truncated_small_cases():
    assert f_truncated(0.7, SeriesParams(2, 5, 2)).to_real() == pytest.approx(1.0)
    # 1 + 3*0.5 + 6*0.25 = 4
    assert f_truncated(0.5, SeriesParams(4, 2, 1)).to_real() == pytest.approx(
        4.0, rel=1e-13)
    # 1 + 4*(-0.5) = -1
    assert f_truncated(-0.5, SeriesParams(3, 1, 2)).to_real() == pytest.approx(
        -1.0, rel=1e-13)


@given(st.floats(min_value=-1.0, max_value=1.0),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3))
@settings(derandomize=True, deadline=None, max_examples=200)
def test_f_truncated_matches_brute_force(x, N, L, m):
    want = brute_truncated(x, N, L, m)
    got = f_truncated(x, SeriesParams(N, L, m)).to_real()
    assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_f_truncated_flags_catastrophic_cancellation():
    with pytest.raises(PrecisionLossError):
        f_truncated(-0.21, SeriesParams(200, 200, 1))


def test_f_infinite_closed_form_m1():
    # negative-binomial series: (1 - x)^(-L-1)
    assert f_infinite(0.5, 2, 1).to_real() == pytest.approx(8.0, rel=1e-12)
    for x in (0.0, 0.1, 0.35, 0.6, 0.9):
        for L in (1, 2, 5):
            want = (1.0 - x) ** (-L - 1)
            assert f_infinite(x, L, 1).to_real() == pytest.approx(want, rel=1e-12)


def test_f_infinite_trivial_at_zero():
    assert f_infinite(0.0, 7, 3).to_real() == 1.0


def test_f_infinite_tail_is_stable_against_tolerance():
    a = f_infinite(0.3, 2, 2, tol=1e-10).to_real()
    b = f_infinite(0.3, 2, 2, tol=1e-13).to_real()
    c = f_infinite(0.3, 2, 2, tol=1e-16).to_real()
    assert a == pytest.approx(c, rel=1e-9)
    assert b == pytest.approx(c, rel=1e-12)


def test_f_infinite_slow_convergence_guard():
    with pytest.raises(SlowConvergenceError):
        f_infinite(1.0 - 1e-7, 2, 1)


def test_completion_turnover_past_term_bound_fails_before_summing():
    # turnovers of 1e9 and 5e7 terms: both exceed the 1e7 term-count bound,
    # so the completion must refuse them up front rather than loop first
    with pytest.raises(SlowConvergenceError):
        f_gin_infinite(1e9, 1)
    with pytest.raises(SlowConvergenceError):
        f_infinite(1.0 - 2e-6, 100, 1)
    # turnover 5e5, but the tail needs about 1.8e7 terms: refused from the
    # term at the bound, without building the tail
    with pytest.raises(SlowConvergenceError, match="term-count bound exceeded"):
        f_infinite(1.0 - 2e-6, 1, 1)


def test_completion_memory_is_a_few_coefficient_vectors(monkeypatch):
    # the cut search keeps the log coefficients it finds and the sum reuses
    # them, so coefficients are not built twice (10.3x before).  The peak
    # (5.20x at this x) is the search's last block; the sum's own (4.00x)
    # is the coefficients, the term matrix, the running sums and one TwoSum
    # buffer, as the scan hands back the largest running sum (5.00x when
    # the running sums were accumulated a second time)
    sizes, sum_peaks = [], []
    def recording(log_coeffs, z, _fn=series._log_series):
        sizes.append(log_coeffs.nbytes)
        tracemalloc.reset_peak()
        out = _fn(log_coeffs, z)
        sum_peaks.append(tracemalloc.get_traced_memory()[1])
        return out
    monkeypatch.setattr(series, "_log_series", recording)
    tracemalloc.start()
    try:
        f_infinite(1.0 - 1e-4, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [8 * 368411]
    assert peak <= 5.25 * sizes[0]
    assert sum_peaks[0] <= 4.05 * sizes[0]


@pytest.mark.parametrize("N", [41, 256])
def test_array_sum_memory_is_one_term_matrix(N):
    # the paired sum keeps one (N - 1) x points term matrix and reduces it
    # in place of running sums: 1.13x and 1.02x of the matrix here (1.33x
    # and 1.06x with compensated scans of the even and odd rows)
    z = np.random.default_rng(SEED).uniform(-1.0, 1.0, 4096)
    tracemalloc.start()
    try:
        f_truncated_log_array(z, N, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * (N - 1) * z.size


def _mp_completion(mpmath, term):
    # 50-digit partial sums of a series whose terms peak and then decay,
    # stopped once a term past the peak is below 1e-30 of the sum
    total, n, peak = mpmath.mpf(0), 0, mpmath.mpf(0)
    while True:
        t = term(n)
        total += t
        peak = max(peak, abs(t))
        if abs(t) < peak and abs(t) < mpmath.mpf(10) ** -30 * abs(total):
            return float(total)
        n += 1


@pytest.mark.parametrize("x", [0.1, 0.5, 0.9, -0.1, -0.2])
@pytest.mark.parametrize("L,m", [(1, 2), (3, 2), (1, 3), (2, 3)])
def test_f_infinite_matches_mpmath(x, L, m):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ref = _mp_completion(
        mpmath, lambda n: mpmath.binomial(L + n, n) ** m * mpmath.mpf(x) ** n)
    assert f_infinite(x, L, m).to_real() == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("t", [0.5, 4.0, 30.0, -0.5, -2.0])
@pytest.mark.parametrize("m", [2, 3])
def test_f_gin_infinite_matches_mpmath(t, m):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ref = _mp_completion(
        mpmath, lambda n: mpmath.mpf(t) ** n / mpmath.factorial(n) ** m)
    assert f_gin_infinite(t, m).to_real() == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x,L,m", [(-0.2, 3, 2), (-0.3, 1, 2), (-0.1, 2, 3)])
def test_loose_tol_completion_keeps_six_digits(x, L, m):
    # the tail dropped at tol = 1e-10 sits in the noise floor, so a result
    # either keeps six digits or is flagged
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ref = _mp_completion(
        mpmath, lambda n: mpmath.binomial(L + n, n) ** m * mpmath.mpf(x) ** n)
    assert f_infinite(x, L, m, tol=1e-10).to_real() == pytest.approx(ref, rel=1e-6)
    # true value 0.021 against a peak term of 1.8e4: a 1e-10 cut of the
    # peak leaves about 1e-4 of the result
    with pytest.raises(PrecisionLossError):
        f_infinite(-0.9, 5, 1, tol=1e-10)


def test_cancelled_completions_never_return_a_wrong_value():
    # true values 5.2e-4, 6.0e-8 and 1.9e-22 sit below the cancellation
    # floor: each call flags the loss or returns zero within it
    for call in (lambda: f_infinite(-0.99, 10, 1), lambda: f_infinite(-0.5, 40, 1),
                 lambda: f_gin_infinite(-50.0, 1)):
        try:
            assert call().sign == 0
        except PrecisionLossError:
            pass
    # true value 8.6e-4 with a floor of the same size
    with pytest.raises(PrecisionLossError):
        f_infinite(-0.9, 10, 1)


def test_f_inf_asymptotic_m1_exact():
    assert f_inf_asymptotic(0.5, 2, 1).to_real() == pytest.approx(8.0, rel=1e-12)
    assert f_inf_asymptotic(0.3, 4, 1).to_real() == pytest.approx(
        (1 - 0.3) ** -5, rel=1e-12)


def test_f_inf_asymptotic_error_decays_in_L():
    gaps = []
    for L in (8, 16, 32, 64):
        exact = f_infinite(0.4, L, 2)
        asy = f_inf_asymptotic(0.4, L, 2)
        gaps.append(abs(math.exp(asy.log_mag - exact.log_mag) - 1.0))
    assert monotone_with_slack(gaps)
    assert gaps[-1] < gaps[0]
    assert f_inf_asymptotic(0.2, 3, 3).sign == 1


def test_e_nm_value():
    # gamma = 1: 2^(2N - 3/2) / sqrt(2 pi N) at N = 4, m = 1
    want = 2.0 ** 6.5 / math.sqrt(8 * math.pi)
    assert e_nm(SeriesParams(4, 4, 1)).to_real() == pytest.approx(want, rel=1e-12)


def test_e_nm_m_scaling_identity():
    # log e is built from m-linear terms: e(m=2) = e(m=1)^2 * (2 pi N)^(1/2 * 2 - 1)
    p1 = e_nm(SeriesParams(6, 12, 1))
    p2 = e_nm(SeriesParams(6, 12, 2))
    # e_m = (A / sqrt(2 pi N))^m with A independent of m
    log_a = p1.log_mag + 0.5 * math.log(2 * math.pi * 6)
    assert p2.log_mag == pytest.approx(
        2 * log_a - math.log(2 * math.pi * 6), rel=1e-13)
    assert e_nm(SeriesParams(9, 3, 2)).sign == 1


def test_decomposition_residual_at_zero():
    p = SeriesParams(16, 16, 1)
    assert f_decomposition_residual(0.0, p, 0.1) < 1e-10


def test_decomposition_residual_tail_regime_trend():
    # x above the window: only the tail term contributes
    res = []
    for N in (16, 32, 64, 128):
        p = SeriesParams(N, N, 1)
        res.append(f_decomposition_residual(0.9, p, 0.1))
    assert monotone_with_slack(res, violations_allowed=0)
    assert res[-1] < res[0] / 4


def test_decomposition_residual_series_regime():
    p = SeriesParams(64, 64, 1)
    assert f_decomposition_residual(0.1, p, 0.1) < 1e-8


def test_decomposition_residual_window_excluded():
    p = SeriesParams(16, 16, 1)
    with pytest.raises(DomainError):
        f_decomposition_residual(0.5, p, 0.1)


def test_f_gin_truncated_small_cases():
    assert f_gin_truncated(123.0, 2, 1).to_real() == pytest.approx(1.0)
    assert f_gin_truncated(2.0, 4, 1).to_real() == pytest.approx(5.0, rel=1e-13)
    v = f_gin_truncated(-2.0, 4, 2)
    assert v.to_real() == pytest.approx(0.0, abs=1e-12)


def test_f_gin_infinite_exponential():
    assert f_gin_infinite(1.0, 1).to_real() == pytest.approx(math.e, rel=1e-13)
    assert f_gin_infinite(0.0, 5).to_real() == 1.0
    for t in (0.5, 3.0, 40.0, -2.5):
        assert f_gin_infinite(t, 1).to_real() == pytest.approx(
            math.exp(t), rel=1e-12)


def test_f_gin_infinite_asymptotic_consistency():
    # ratio against the double-factorial saddle form approaches one
    ratios = []
    for t in (1e2, 1e4, 1e6):
        exact = f_gin_infinite(t, 2)
        # saddle form: exp(2 sqrt(t)) / (2 sqrt(pi) t^(1/4)) for m = 2
        log_asy = 2.0 * math.sqrt(t) - math.log(2 * math.sqrt(math.pi)) \
            - 0.25 * math.log(t)
        ratios.append(math.exp(exact.log_mag - log_asy))
    gaps = [abs(r - 1.0) for r in ratios]
    assert monotone_with_slack(gaps, violations_allowed=0)
    assert gaps[-1] < 1e-2


@given(st.floats(min_value=0.0, max_value=0.999),
       st.integers(min_value=2, max_value=32),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3))
@settings(derandomize=True, deadline=None, max_examples=150)
def test_domination_and_triangle_bounds(x, N, L, m):
    p = SeriesParams(N, L, m)
    ft = f_truncated(x, p).to_real()
    fi = f_infinite(x, L, m).to_real()
    assert 0.0 < ft <= fi * (1 + 1e-12)
    neg = f_truncated(-x, p).to_real()
    assert abs(neg) <= ft * (1 + 1e-12)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=2, max_value=20),
       st.integers(min_value=1, max_value=4))
@settings(derandomize=True, deadline=None, max_examples=100)
def test_monotone_in_truncation_order(x, N, L):
    a = f_truncated(x, SeriesParams(N, L, 2)).to_real()
    b = f_truncated(x, SeriesParams(N + 1, L, 2)).to_real()
    assert b >= a - 1e-12 * abs(a)


def test_ratio_bound_inequality_vectorized():
    # (1-u^2)(1-v^2)/(1-uv)^2 <= exp(-(u-v)^2) on the unit square
    rng = np.random.default_rng(SEED)
    u = rng.uniform(0.0, 1.0, 10 ** 5)
    v = rng.uniform(0.0, 1.0, 10 ** 5)
    lhs = (1 - u ** 2) * (1 - v ** 2) / (1 - u * v) ** 2
    rhs = np.exp(-(u - v) ** 2)
    assert int((lhs > rhs * (1 + 1e-12)).sum()) == 0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(derandomize=True, deadline=None, max_examples=500)
def test_ratio_bound_inequality_property(u, v):
    if u == 1.0 and v == 1.0:
        return
    lhs = (1 - u * u) * (1 - v * v) / (1 - u * v) ** 2
    assert lhs <= math.exp(-(u - v) ** 2) * (1 + 1e-12)


# Oracle for the shared series core.  Coefficients carry the absolute
# rounding of three log-gamma values (about 1e-13 here), so every entry
# must lie within 1e-11 of the 50-digit sum, relative to the sum of the
# absolute terms: relative to the value itself for z >= 0, and relative to
# the cancelled magnitude for z < 0.
ORACLE_REL = 1e-11
TRUNC_CASES = [(8, 2, 1), (25, 3, 3), (30, 5, 2), (60, 10, 1), (120, 40, 1),
               (256, 256, 1), (256, 2, 2), (128, 128, 2)]
TRUNC_Z = [-0.999, -0.95, -0.6, -0.21, 0.0, 0.3, 0.8, 0.999]
GIN_CASES = [(10, 1), (30, 2), (40, 1), (80, 1), (256, 1), (256, 2)]
GIN_T = [-30.0, -5.0, -0.5, 0.0, 0.5, 5.0, 30.0]


def _check_against_oracle(mpmath, got, zs, coeffs):
    # one paired call gives the sum at z (v) and at -z (v_mirror)
    M, v, v_mirror = got
    for z, lm, pair in zip(zs, M, zip(v, v_mirror)):
        for zz, val in zip((z, -z), pair):
            terms = [c * mpmath.mpf(zz) ** n for n, c in enumerate(coeffs)]
            ref = mpmath.fsum(terms)
            scale = mpmath.fsum(abs(t) for t in terms)
            value = mpmath.exp(lm) * mpmath.mpf(float(val))
            assert abs(value - ref) <= ORACLE_REL * scale, (zz, value, ref)


@pytest.mark.parametrize("N,L,m", TRUNC_CASES)
def test_f_truncated_log_array_matches_mpmath(N, L, m):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    coeffs = [mpmath.binomial(L + n, n) ** m for n in range(N - 1)]
    _check_against_oracle(mpmath, f_truncated_log_array(np.array(TRUNC_Z), N, L, m),
                          TRUNC_Z, coeffs)


@pytest.mark.parametrize("N,m", GIN_CASES)
def test_f_gin_log_array_matches_mpmath(N, m):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    coeffs = [1 / mpmath.factorial(n) ** m for n in range(N - 1)]
    _check_against_oracle(mpmath, f_gin_log_array(np.array(GIN_T), N, m),
                          GIN_T, coeffs)


def test_log_floor_covers_coefficient_rounding():
    # alternating sum whose error is set by the rounding of the gammaln
    # coefficients (about 1e-13 relative), not by the summation roundoff
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    N, L, m, z = 200, 200, 1, -0.436
    logmag, sign, floor, _ = _log_series(_trunc_log_coeffs(np.arange(N - 1), L, m),
                                         np.array([z]))
    ref = mpmath.fsum(mpmath.binomial(L + n, n) ** m * mpmath.mpf(z) ** n
                      for n in range(N - 1))
    assert abs(sign[0] * mpmath.exp(logmag[0]) - ref) <= mpmath.exp(floor[0])


@pytest.mark.parametrize("N,L,m", TRUNC_CASES)
def test_array_log_binomial_matches_per_k_loop(N, L, m):
    n = np.arange(N - 1)
    loop = np.empty(N - 1)
    for k in n:
        loop[k] = m * log_binomial(L + k, k)
    assert np.array_equal(m * log_binomial(L + n, n), loop)
    with pytest.raises(DomainError):
        log_binomial(np.array([4, 3]), np.array([2, 4]))


def _reference_log_series(log_coeffs, z):
    """The row-by-row Neumaier loop that _log_series replaced, kept as its
    bit-for-bit reference: Fast2Sum with the larger operand first."""
    z = np.asarray(z, dtype=float)
    n = np.arange(len(log_coeffs))
    with np.errstate(divide="ignore"):
        lz = np.where(z == 0.0, _LOG_TINY, np.log(np.maximum(np.abs(z), 1e-300)))
    mag = n[:, None] * lz[None, :]
    mag += log_coeffs[:, None]
    M = mag.max(axis=0)
    mag -= M[None, :]
    np.exp(mag, out=mag)
    coeff_noise = (_EPS * (1.0 + np.abs(log_coeffs))) @ mag
    neg = z < 0
    s = np.zeros(z.shape)
    abs_s = np.zeros(z.shape)
    comp = np.zeros(z.shape)
    maxpartial = np.zeros(z.shape)
    for k, abs_t in enumerate(mag):
        t = np.where(neg, -abs_t, abs_t) if k % 2 else abs_t
        tot = s + t
        comp += np.where(abs_s >= abs_t, (s - tot) + t, (t - tot) + s)
        s = tot
        abs_s = np.abs(s)
        np.maximum(maxpartial, abs_s, out=maxpartial)
    vals = s + comp
    sum_noise = maxpartial * (_EPS * math.sqrt(max(len(log_coeffs), 1)))
    with np.errstate(divide="ignore"):
        return (M + np.log(np.abs(vals)), np.sign(vals),
                M + np.log(sum_noise + coeff_noise), M + np.log(sum_noise))


def _reference_paired_sum(log_coeffs, z):
    """The plain row-order sums of the array evaluators, row by row: the
    even rows and then the odd rows of the unsigned term matrix added in
    order, the odd sum given the sign of z, and v, v_mirror = e +- o."""
    z = np.asarray(z, dtype=float)
    n = np.arange(len(log_coeffs))
    with np.errstate(divide="ignore"):
        lz = np.where(z == 0.0, _LOG_TINY, np.log(np.maximum(np.abs(z), 1e-300)))
    mag = n[:, None] * lz[None, :]
    mag += log_coeffs[:, None]
    M = mag.max(axis=0)
    mag -= M[None, :]
    np.exp(mag, out=mag)
    e, o = np.zeros(z.shape), np.zeros(z.shape)
    for row in mag[0::2]:
        e = e + row
    for row in mag[1::2]:
        o = o + row
    o = np.where(z < 0, -o, o)
    return M, e + o, e - o


def _assert_bit_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


EDGE_Z = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]


# (N, points): one term; fewer terms than points; and the completions'
# shape (more terms than points)
@pytest.mark.parametrize("N,points", [(2, 7), (23, 5700), (41, 3300), (10 ** 5 + 1, 1)])
@pytest.mark.parametrize("kind", ["truncated", "ginibre"])
def test_log_series_matches_reference_loop(kind, N, points):
    rng = np.random.default_rng(SEED)
    n = np.arange(N - 1)
    if kind == "truncated":
        z = rng.uniform(-1.0, 1.0, points)
        coeffs = _trunc_log_coeffs(n, 3, 2)
        array = lambda zs: f_truncated_log_array(zs, N, 3, 2)
    else:
        z = rng.uniform(-30.0, 30.0, points)
        coeffs = _gin_log_coeffs(n, 1)
        array = lambda zs: f_gin_log_array(zs, N, 1)
    if points >= len(EDGE_Z):
        z[:len(EDGE_Z)] = EDGE_Z
        columns = [z]
    else:
        # the completions' shape, N - 1 terms at one point, at +-z
        columns = [np.abs(z[:1]), -np.abs(z[:1])]
    for zs in columns:
        got = _log_series(coeffs, zs)
        _assert_bit_equal(got, _reference_log_series(coeffs, zs))
        _assert_bit_equal(array(zs), _reference_paired_sum(coeffs, zs))
