import math

import numpy as np
import pytest

from realeig import QuadratureSpec, contour_line_integral
from realeig.gammafns import log_gamma_complex_array


def gamma_mellin_integrand(x):
    """f(s) = Gamma(s) x^{-s}; its inverse Mellin transform is exp(-x)."""
    def f(s):
        return np.exp(log_gamma_complex_array(s) - s * math.log(x))
    return f


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_gamma_mellin_pair(x):
    spec = QuadratureSpec(rel_tol=1e-11)
    got = contour_line_integral(gamma_mellin_integrand(x), 1.0, spec)
    assert got.imag == 0.0
    assert got.real == pytest.approx(math.exp(-x), rel=1e-10)


def test_log_inverse_mellin_pair():
    # 1/s^2 on Re s = 1 inverts to ln(1/x) on (0, 1)
    x = 0.35
    spec = QuadratureSpec(rel_tol=1e-8)

    def f(s):
        return np.power(x, -s) / s ** 2

    got = contour_line_integral(f, 1.0, spec)
    assert got.real == pytest.approx(math.log(1.0 / x), rel=1e-6)


def test_imaginary_part_zeroed_for_symmetric_integrand():
    spec = QuadratureSpec(rel_tol=1e-10)
    got = contour_line_integral(gamma_mellin_integrand(1.0), 1.0, spec)
    assert got.imag == 0.0
