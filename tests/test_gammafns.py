import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realeig import log_beta, log_binomial, log_gamma, log_gamma_complex
from realeig.errors import DomainError
from realeig.gammafns import (log_gamma_complex_array, real_log_gamma_array,
                              trigamma_array)
from realeig.quadrature import GK_NODES
from realeig.weakregime import _contour_line


def test_log_gamma_small_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    # exact integer factorial oracle
    assert log_gamma(10.0) == pytest.approx(math.log(362880), rel=1e-14)


def test_log_gamma_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            log_gamma(bad)


@given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_log_gamma_recurrence(x):
    assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x),
                                               rel=1e-12, abs=1e-12)


def test_log_gamma_relative_accuracy_wide_range():
    # spot values against the exact factorial ladder up to 1e6
    for n in (20, 200, 2000, 12345):
        want = sum(math.log(k) for k in range(1, n))
        assert log_gamma(float(n)) == pytest.approx(want, rel=1e-13)
    assert log_gamma(1e6) == pytest.approx(math.lgamma(1e6), rel=1e-15)


def test_log_gamma_complex_trivial_and_symmetry():
    assert abs(log_gamma_complex(1 + 0j)) < 1e-13
    z = 0.5 + 2.0j
    assert log_gamma_complex(z.conjugate()) == pytest.approx(
        log_gamma_complex(z).conjugate(), abs=1e-12)


def test_log_gamma_complex_reflection_oracle():
    # |Gamma(1/2 + i t)|^2 = pi / cosh(pi t)
    for t in (0.3, 1.0, 2.5, 7.0):
        lg = log_gamma_complex(0.5 + t * 1j)
        assert 2.0 * lg.real == pytest.approx(
            math.log(math.pi / math.cosh(math.pi * t)), rel=1e-12, abs=1e-12)


def test_log_gamma_complex_matches_real_axis():
    xs = np.array([1e-5, 0.01, 0.3, 0.75, 1.5, 8.0, 123.0, 4096.5])
    got = real_log_gamma_array(xs)
    want = np.array([math.lgamma(x) for x in xs])
    assert np.allclose(got, want, rtol=5e-13, atol=5e-13)


def test_log_gamma_complex_large_imaginary():
    # recurrence ln G(z+1) = ln G(z) + ln z holds off the real axis
    for z in (0.25 + 100j, -0.25 + 1e6j, 3.0 - 30j):
        lhs = log_gamma_complex_array(np.array([z + 1]))[0]
        rhs = log_gamma_complex_array(np.array([z]))[0] + cmath.log(z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_log_gamma_complex_pole_guard():
    with pytest.raises(DomainError):
        log_gamma_complex(0.0 + 0.0j)
    with pytest.raises(DomainError):
        log_gamma_complex(-2.0 + 1e-9j)


def test_log_beta_values():
    assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-13)
    assert log_beta(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-13)


def test_log_binomial_exact_integers():
    assert log_binomial(5, 0) == pytest.approx(0.0, abs=1e-12)
    assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-12)
    assert log_binomial(10, 5) == pytest.approx(math.log(252), rel=1e-12)
    for (n, k) in ((30, 7), (100, 41), (500, 250)):
        assert log_binomial(n, k) == pytest.approx(math.log(math.comb(n, k)),
                                                   rel=1e-12)
    with pytest.raises(DomainError):
        log_binomial(3, 4)


def test_trigamma_against_finite_differences():
    # psi'(x) as a second central difference of lgamma, x-scaled step
    xs = np.array([0.2, 0.7, 1.5, 4.0, 12.0, 100.0])
    fd = []
    for x in xs:
        h = 1e-4 * (1.0 + x)
        fd.append((math.lgamma(x + 2 * h) - 2 * math.lgamma(x)
                   + math.lgamma(x - 2 * h)) / (4 * h * h))
    assert np.allclose(trigamma_array(xs), fd, rtol=1e-4, atol=1e-8)
    assert trigamma_array(np.array([0.5]))[0] == pytest.approx(
        math.pi ** 2 / 2.0, rel=1e-10)
    assert trigamma_array(np.array([1.0]))[0] == pytest.approx(
        math.pi ** 2 / 6.0, rel=1e-10)


# Re z < 1/2 (reflection side), the critical line, and |Im z| up to 1e6
ORACLE_Z = [0.3 + 1e-3j, -0.25 + 1e6j, -2.7 + 3.0j, -5.5 + 0.5j, 0.49 - 0.5j,
            0.5 + 40.0j, 1.0 + 1e4j, 7.25 - 1e5j, 37.5 + 2.0j, 1e3 + 1e6j,
            -0.4999 - 7e5j, 4097.0 - 0.25j]


def test_log_gamma_complex_array_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    got = log_gamma_complex_array(np.array(ORACLE_Z))
    with mpmath.workdps(50):
        for z, g in zip(ORACLE_Z, got):
            want = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
            # only exp of the value is used, so a branch offset of 2 pi k is moot
            err = abs(mpmath.exp(mpmath.mpc(g.real, g.imag) - want) - 1)
            assert err <= 1e-14 * max(1.0, abs(want)), (z, g, want)


def test_trigamma_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xs = np.array([1e-3, 0.2, 0.5, 1.0, 2.5, 9.99, 10.0, 37.3, 1e3, 1e6])
    got = trigamma_array(xs)
    with mpmath.workdps(50):
        for x, g in zip(xs, got):
            want = mpmath.psi(1, mpmath.mpf(x))
            assert abs(g - want) <= 1e-13 * want, (x, g, want)
    with pytest.raises(DomainError):
        trigamma_array(np.array([1.0, 0.0]))


@pytest.mark.parametrize("L,m", [(1, 1), (2, 1), (3, 2)])
def test_log_gamma_complex_conjugate_symmetry_on_contour(L, m):
    # the contour coefficients integrate u >= 0 only and rely on this identity
    js = np.arange(0.0, 2001.0, 23.0)
    sig, tau, U = _contour_line(js, L, m, 1e-11)
    u = U[:, None] * 0.5 * (1.0 + GK_NODES[None, :])
    s = sig[:, None] + 1j * tau[:, None] * np.sinh(u)
    for z in (0.5 + s, js[:, None] + 1.0 - s, (L + 1) / 2.0 + s,
              L / 2.0 + 1.0 + js[:, None] - s):
        assert np.array_equal(log_gamma_complex_array(np.conj(z)),
                              np.conj(log_gamma_complex_array(z)))
