"""Binomial-power series appearing in the finite-size kernel.

The central objects are the truncated sum
    f_trunc(x) = sum_{n=0}^{N-2} C(L+n, n)^m x^n,
its infinite-series completion, the Ginibre analogues with 1/(n!)^m
coefficients, and asymptotic/decomposition approximations used to study
them.  Terms are built in log space and accumulated in (rescaled) linear
space with Neumaier compensation; cancellation in alternating sums is
tracked and flagged once it can contaminate the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, PrecisionLossError, SlowConvergenceError
from .gammafns import log_binomial
from .signedlog import SignedLogValue
from .summation import NeumaierSum

PRECISION_LOSS_RATIO = 1e-6
_LOG_TINY = -745.0  # exp() underflows below this
_MAX_TERMS = 10 ** 7  # term-count bound of the completed series


@dataclass(frozen=True)
class SeriesParams:
    """Finite-size parameters: N >= 2 factors of size info (N, L, m).

    gamma = L/N and alpha = 1/(1+gamma) are derived exactly from the stored
    integers.
    """

    N: int
    L: int
    m: int

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 2:
            raise DomainError(f"N must be an integer >= 2, got {self.N}")
        if not isinstance(self.L, (int, np.integer)) or self.L < 1:
            raise DomainError(f"L must be a positive integer, got {self.L}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise DomainError(f"m must be a positive integer, got {self.m}")

    @property
    def gamma(self) -> float:
        return self.L / self.N

    @property
    def alpha(self) -> float:
        return 1.0 / (1.0 + self.gamma)


def _log_series(log_coeffs: np.ndarray, z):
    """Vectorized sum_n exp(log_coeffs[n]) z^n in log space.

    Returns (log|f|, sign, log_floor) where log_floor bounds the roundoff
    noise of each entry (columns with heavy alternating cancellation have
    log_floor close to log|f|).
    """
    z = np.asarray(z, dtype=float)
    n = np.arange(len(log_coeffs))
    with np.errstate(divide="ignore"):
        lz = np.where(z == 0.0, _LOG_TINY, np.log(np.maximum(np.abs(z), 1e-300)))
    lt = log_coeffs[:, None] + n[:, None] * lz[None, :]
    sg = np.where((z[None, :] < 0) & (n[:, None] % 2 == 1), -1.0, 1.0)
    M = lt.max(axis=0)
    scaled = sg * np.exp(lt - M[None, :])
    # Neumaier accumulation down the term axis
    s = np.zeros(z.shape)
    comp = np.zeros(z.shape)
    maxpartial = np.zeros(z.shape)
    for t in scaled:
        tot = s + t
        swap = np.abs(s) >= np.abs(t)
        comp += np.where(swap, (s - tot) + t, (t - tot) + s)
        s = tot
        np.maximum(maxpartial, np.abs(s), out=maxpartial)
    vals = s + comp
    with np.errstate(divide="ignore"):
        return (M + np.log(np.abs(vals)), np.sign(vals),
                M + np.log(maxpartial * 2.0 ** -52
                           * math.sqrt(max(len(log_coeffs), 1))))


def f_truncated_log_array(xy, N: int, L: int, m: int):
    """Vectorized truncated sum of C(L+n, n)^m xy^n over n < N-1, in log space.

    Returns (log|f|, sign, log_floor); see _log_series.
    """
    n = np.arange(N - 1)
    return _log_series(m * log_binomial(L + n, n), xy)


def f_truncated(x: float, p: SeriesParams) -> SignedLogValue:
    """sum_{n=0}^{N-2} C(L+n, n)^m x^n for |x| <= 1.

    Raises PrecisionLossError when alternating cancellation leaves the
    compensated sum with less than six reliable digits.
    """
    if not math.isfinite(x) or abs(x) > 1.0:
        raise DomainError(f"f_truncated requires |x| <= 1, got {x}")
    logmag, sign, floor = f_truncated_log_array(np.array([x]), p.N, p.L, p.m)
    return _guard_cancellation(logmag, sign, floor,
                               f"f_truncated(x={x}, N={p.N}, L={p.L}, m={p.m})")


def _guard_cancellation(logmag, sign, floor, what: str) -> SignedLogValue:
    """Three-way cancellation policy for compensated alternating sums.

    Below the roundoff floor the sum is zero within tolerance; within six
    digits of the floor the value is untrustworthy and flagged; otherwise
    the value stands.
    """
    lm, sg, fl = float(logmag[0]), int(sign[0]), float(floor[0])
    # the floor is an RMS estimate; anything within a few multiples of it
    # is indistinguishable from zero
    if sg == 0 or lm <= fl + math.log(8.0):
        return SignedLogValue(0, -math.inf)
    if fl - lm > math.log(PRECISION_LOSS_RATIO):
        raise PrecisionLossError(
            f"{what}: cancellation floor within "
            f"{math.exp(min(fl - lm, 0.0)):.1e} of the result")
    return SignedLogValue.from_log(sg, lm)


def _series_turnover(L: int, m: int, ax: float) -> int:
    """Index past which C(L+n+1,n+1)^m/C(L+n,n)^m * |x| stays below one."""
    if ax <= 0.0:
        return 1
    r = ax ** (1.0 / m)
    return max(1, int(math.ceil(L * r / (1.0 - r))))


def _complete(x: float, log_ratio, turnover: int, log_c_turnover: float,
              tol: float) -> SignedLogValue:
    """Completed series sum_n c_n x^n from its coefficient ratios.

    log_ratio(n) = ln(c_{n+1} / c_n), with c_0 = 1, and log_c_turnover =
    ln(c_turnover) in closed form.  Terms grow up to the turnover index and
    decay after it, so they are scaled by the turnover term, and the
    stopping rule requires both a small relative term and an index beyond
    the turnover; a turnover at the term-count bound therefore fails early.
    """
    if turnover >= _MAX_TERMS:
        raise SlowConvergenceError(
            f"turnover index {turnover} reaches the term-count bound")
    lx = math.log(abs(x))
    scale = log_c_turnover + turnover * lx
    acc = NeumaierSum()
    n = 0
    log_term = 0.0
    while True:
        t = math.exp(log_term - scale)
        if x < 0 and n % 2 == 1:
            t = -t
        acc.add(t)
        if n > turnover and abs(t) < tol * abs(acc.total):
            break
        log_term += log_ratio(n) + lx
        n += 1
        if n > _MAX_TERMS:
            raise SlowConvergenceError("term-count bound exceeded")
    total = acc.total
    if total == 0.0:
        return SignedLogValue(0, -math.inf)
    return SignedLogValue.from_log(int(math.copysign(1, total)),
                                   scale + math.log(abs(total)))


def f_infinite(x: float, L: int, m: int, tol: float = 1e-14) -> SignedLogValue:
    """The completed series; converges absolutely for |x| < 1."""
    if not math.isfinite(x) or abs(x) >= 1.0:
        raise DomainError(f"f_infinite requires |x| < 1, got {x}")
    if abs(x) > 1.0 - 1e-6:
        raise SlowConvergenceError(
            f"|x| = {abs(x)} is within 1e-6 of the unit circle")
    if x == 0.0:
        return SignedLogValue.from_real(1.0)
    turnover = _series_turnover(L, m, abs(x))
    return _complete(x, lambda n: m * (math.log(L + n + 1) - math.log(n + 1)),
                     turnover, m * float(log_binomial(L + turnover, turnover)),
                     tol)


def f_inf_asymptotic(x: float, L: int, m: int) -> SignedLogValue:
    """Large-L approximation of the completed series on (0, 1)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"f_inf_asymptotic requires x in (0,1), got {x}")
    lw = (-(m * L + 1.0) * math.log1p(-x ** (1.0 / m))
          - 0.5 * (m - 1) * math.log(L)
          - 0.5 * (m - 1) * math.log(2.0 * math.pi)
          - 0.5 * math.log(m)
          - (m - 1.0) / (2.0 * m) * math.log(x))
    return SignedLogValue.from_log(1, lw)


def e_nm(p: SeriesParams) -> SignedLogValue:
    """Tail-term normalization constant, evaluated entirely in log space."""
    g = p.gamma
    lw = (p.m * (-(g * p.N + 0.5) * math.log(g)
                 + (p.N * (1.0 + g) - 1.5) * math.log1p(g))
          - 0.5 * p.m * math.log(2.0 * math.pi * p.N))
    return SignedLogValue.from_log(1, lw)


def f_decomposition_residual(x: float, p: SeriesParams, omega: float) -> float:
    """Relative residual of the two-part decomposition of the truncated sum.

    The truncated sum is compared against (series restricted by an
    indicator window) + (tail term x^{N-1}/(x - alpha^m) * e_{N,m});
    the window ((alpha-omega)^m, (alpha+omega)^m) itself is excluded.
    """
    if not (0.0 < omega < p.alpha):
        raise DomainError(f"omega must lie in (0, alpha), got {omega}")
    if abs(x) > 1.0:
        raise DomainError("x must lie in [-1, 1]")
    a = p.alpha
    win_lo, win_hi = (a - omega) ** p.m, (a + omega) ** p.m
    if win_lo < x < win_hi:
        raise DomainError(
            f"x = {x} lies in the excluded window ({win_lo}, {win_hi})")
    ft = f_truncated(x, p)
    tail = SignedLogValue(0, -math.inf)
    if x != 0.0:
        lead = SignedLogValue.from_log(
            1 if (x > 0 or (p.N - 1) % 2 == 0) else -1,
            (p.N - 1) * math.log(abs(x)))
        tail = lead * e_nm(p) / SignedLogValue.from_real(x - a ** p.m)
    approx = tail
    if -win_hi < x < win_lo:
        approx = approx + f_infinite(x, p.L, p.m)
    resid = ft - approx
    if ft.sign == 0:
        raise DomainError("truncated sum vanished; residual undefined")
    if resid.sign == 0:
        return 0.0
    return math.exp(resid.log_mag - ft.log_mag)


def f_gin_log_array(ts, N: int, m: int):
    """Vectorized log-space Ginibre truncated sum sum t^n/(n!)^m."""
    return _log_series(-m * gammaln(np.arange(N - 1) + 1.0), ts)


def f_gin_truncated(t: float, N: int, m: int) -> SignedLogValue:
    """sum_{n=0}^{N-2} t^n / (n!)^m at the already-scaled argument t."""
    if not math.isfinite(t):
        raise DomainError("f_gin_truncated requires finite t")
    if N < 2:
        raise DomainError("N must be >= 2")
    logmag, sign, floor = f_gin_log_array(np.array([t]), N, m)
    return _guard_cancellation(logmag, sign, floor,
                               f"f_gin_truncated(t={t}, N={N}, m={m})")


def f_gin_infinite(t: float, m: int, tol: float = 1e-15) -> SignedLogValue:
    """Entire-series completion of the Ginibre sum; equals e^t at m = 1."""
    if not math.isfinite(t):
        raise DomainError("f_gin_infinite requires finite t")
    if t == 0.0:
        return SignedLogValue.from_real(1.0)
    turnover = max(1, int(math.ceil(abs(t) ** (1.0 / m))))
    return _complete(t, lambda n: -m * math.log(n + 1.0), turnover,
                     -m * math.lgamma(turnover + 1.0), tol)
