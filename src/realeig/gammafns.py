"""Log-gamma on the reals and on the complex plane, and friends.

The array kernels are scipy.special's: loggamma (principal branch, accurate
on vertical contour lines with large imaginary part), gammaln and
polygamma.  Scalar real arguments go through the C library's lgamma.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, loggamma, polygamma

from .errors import DomainError


def log_gamma(x: float) -> float:
    """ln Gamma(x) for real x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def log_binomial(n, k):
    """ln C(n, k) via log-gamma; n and k may be arrays that broadcast."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(n) & (k >= 0) & (k <= n)):
        raise DomainError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def log_gamma_complex_array(z) -> np.ndarray:
    """Vectorized principal-branch ln Gamma; no pole-distance validation.

    loggamma(conj z) == conj(loggamma(z)) holds exactly, which the contour
    coefficients' half-line rule relies on.
    """
    return loggamma(np.asarray(z, dtype=complex))


def log_gamma_complex(z: complex) -> complex:
    """ln Gamma(z), principal branch, for Re z > -1/2 away from the poles."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("log_gamma_complex requires a finite argument")
    if z.real <= 0.5 and abs(z.imag) < 1e-6:
        nearest = round(z.real)
        if nearest <= 0 and abs(z - nearest) < 1e-6:
            raise DomainError(f"argument {z} is within 1e-6 of a gamma pole")
    return complex(log_gamma_complex_array(np.array([z]))[0])


def real_log_gamma_array(x) -> np.ndarray:
    """Vectorized ln Gamma for positive real arrays."""
    return gammaln(np.asarray(x, dtype=float))


def trigamma_array(x) -> np.ndarray:
    """psi'(x) for positive real arrays."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("trigamma requires x > 0")
    return polygamma(1, x)
