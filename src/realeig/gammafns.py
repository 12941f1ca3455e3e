"""Log-gamma on the reals and on the complex plane, and friends.

The complex branch is a fixed-coefficient Lanczos approximation (g = 7,
nine terms) with a log-space reflection for Re z < 1/2, so it stays
finite and accurate on vertical contour lines with large imaginary part.
Real positive arguments go through the C library's lgamma, and binomials
through scipy's vectorized gammaln.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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


def _lanczos_half_plane(z):
    """Lanczos core, adequate for Re z > 0 (used with reflection below 1/2)."""
    w = z - 1.0
    x = np.full(np.shape(w), _LANCZOS_C[0], dtype=complex)
    for i in range(1, len(_LANCZOS_C)):
        x = x + _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (w + 0.5) * np.log(t) - t + np.log(x)


def _log_sin_pi(z):
    """log sin(pi z) without overflow for large |Im z| (analytic branch)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    upper = z.imag >= 0
    for sel, zz in ((upper, z), (~upper, np.conj(z))):
        if not np.any(sel):
            continue
        w = zz[sel]
        # sin(pi w) = (i/2) e^{-i pi w} (1 - e^{2 i pi w}) for Im w >= 0
        val = np.log(0.5j) - 1j * math.pi * w + np.log1p(-np.exp(2j * math.pi * w))
        if sel is upper:
            out[sel] = val
        else:
            out[sel] = np.conj(val)
    return out


def log_gamma_complex_array(z) -> np.ndarray:
    """Vectorized principal-branch ln Gamma; no pole-distance validation."""
    z = np.asarray(z, dtype=complex)
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    lg = _lanczos_half_plane(zz)
    if np.any(refl):
        lg = np.where(refl, math.log(math.pi) - _log_sin_pi(z) - lg, lg)
    return lg


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
    """Vectorized ln Gamma for positive real arrays (Lanczos path)."""
    return log_gamma_complex_array(np.asarray(x, dtype=float)).real


def trigamma_array(x) -> np.ndarray:
    """psi'(x) for positive real arrays: recurrence into the asymptotic zone."""
    x = np.array(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("trigamma requires x > 0")
    out = np.zeros_like(x)
    while True:
        small = x < 10.0
        if not small.any():
            break
        out[small] += 1.0 / x[small] ** 2
        x[small] += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    out += inv * (1.0 + 0.5 * inv + inv2 * (
        1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0))))
    return out
