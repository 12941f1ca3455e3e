"""Binomial-power series appearing in the finite-size kernel.

The central objects are the truncated sum
    f_trunc(x) = sum_{n=0}^{N-2} C(L+n, n)^m x^n,
its infinite-series completion, the Ginibre analogues with 1/(n!)^m
coefficients, and asymptotic/decomposition approximations used to study
them.  Terms are built in log space and summed in (rescaled) linear space.
The scalar entry points sum in term order by a compensated scan (running
sums with TwoSum errors) and also compute the noise floors, and their
cancellation guard flags alternating cancellation once it can contaminate
the result.  The vectorized sums f_truncated_log_array and f_gin_log_array
compute no floors and return (M, v, v_mirror) with f(z) = e^M v and
f(-z) = e^M v_mirror: the terms of f(z) and f(-z) share their magnitudes,
so one term matrix is summed as its even rows and its odd rows, each a
plain sum of positive terms.  Such a sum of k terms is off by at most
(k - 1) eps relative (Higham, Accuracy and Stability of Numerical
Algorithms, 4.2), below the rounding of the log-gamma coefficients, so
compensation would buy no digits there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, PrecisionLossError, SlowConvergenceError
from .gammafns import log_binomial
from .signedlog import SignedLogValue

PRECISION_LOSS_RATIO = 1e-6
_LOG_TINY = -745.0  # exp() underflows below this
_MAX_TERMS = 10 ** 7  # term-count bound of the completed series
_SEARCH_BLOCK = 1 << 18  # indices per step of a completion's cut search
_EPS = 2.0 ** -52


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


def _terms(log_coeffs: np.ndarray, z):
    """The (terms x points) matrix of exp(log_coeffs[n]) |z|^n / exp(M), and M.

    M is each column's largest ln|term|, so every entry lies in [0, 1].
    """
    z = np.asarray(z, dtype=float)
    n = np.arange(len(log_coeffs))
    with np.errstate(divide="ignore"):
        lz = np.where(z == 0.0, _LOG_TINY, np.log(np.maximum(np.abs(z), 1e-300)))
    # one (terms x points) matrix, updated in place from ln|t_n| to
    # |t_n| / max_n |t_n|
    t = n[:, None] * lz[None, :]
    t += log_coeffs[:, None]
    M = t.max(axis=0)
    t -= M[None, :]
    np.exp(t, out=t)
    return t, M


def _scan(t: np.ndarray):
    """Compensated sum down the term axis of t: (running sum, compensation,
    peak) per column, whose sum s + comp is the compensated value and peak
    the largest |running sum|.  t may be overwritten.

    Running sums s_k = fl(s_{k-1} + t_k) are taken in term order
    (np.add.accumulate is sequential); TwoSum (Knuth) gives each step's
    exact rounding error branch-free, and the errors are added in the same
    order.
    """
    s = np.add.accumulate(t, axis=0)
    peak = np.maximum(s.max(axis=0), -s.min(axis=0))
    if len(t) == 1:
        return s[0], np.zeros(t.shape[1]), peak
    prev, tot = s[:-1], s[1:]
    bp = tot - prev
    # the errors (prev - (tot - bp)) + (t_k - bp), with t_k - bp in t
    tk = t[1:]
    np.subtract(tk, bp, out=tk)
    np.subtract(tot, bp, out=bp)
    np.subtract(prev, bp, out=bp)
    bp += tk
    return s[-1], np.add.accumulate(bp, axis=0, out=bp)[-1], peak


def _log_series(log_coeffs: np.ndarray, z):
    """Vectorized sum_n exp(log_coeffs[n]) z^n in log space, with its floors.

    Returns (log|f|, sign, log_floor, log_sum_floor).  log_floor bounds the
    noise of each entry (columns with heavy alternating cancellation have
    log_floor close to log|f|).  It adds two parts: the summation roundoff
    log_sum_floor, set by the largest running sum, and the rounding of the
    log coefficients, which is relative to their size and so perturbs term
    n by about eps*(1+|log_coeffs[n]|).
    """
    t, M = _terms(log_coeffs, z)
    coeff_noise = (_EPS * (1.0 + np.abs(log_coeffs))) @ t
    # odd terms take the sign of z, and the scan runs in term order
    odd = t[1::2]
    np.negative(odd, out=odd, where=np.asarray(z) < 0)
    s, comp, maxpartial = _scan(t)
    vals = s + comp
    sum_noise = maxpartial * (_EPS * math.sqrt(max(len(log_coeffs), 1)))
    with np.errstate(divide="ignore"):
        return (M + np.log(np.abs(vals)), np.sign(vals),
                M + np.log(sum_noise + coeff_noise), M + np.log(sum_noise))


def _paired_sum(log_coeffs: np.ndarray, z):
    """(M, v, v_mirror) with sum_n exp(log_coeffs[n]) (+-z)^n = e^M v, e^M v_mirror.

    One reduction sums the even rows and the odd rows of one term matrix in
    row order (each pair of rows is one contiguous row of twice the points);
    the odd sum takes the sign of z, and v, v_mirror = s_even +- s_odd.
    Each half-sum adds positive terms only, so its relative error is at most
    (k - 1) eps, and the largest partial sum is the total: no compensation
    and no peak scan are needed.  No floors.
    """
    z = np.asarray(z, dtype=float)
    if len(log_coeffs) % 2:
        # a zero last row, which adds an exact zero to the even sum
        log_coeffs = np.append(log_coeffs, -np.inf)
    t, M = _terms(log_coeffs, z)
    s_even, s_odd = t.reshape(len(t) // 2, 2 * z.size).sum(axis=0).reshape(2, -1)
    np.negative(s_odd, out=s_odd, where=z < 0)
    return M, s_even + s_odd, s_even - s_odd


def _trunc_log_coeffs(n: np.ndarray, L: int, m: int) -> np.ndarray:
    """ln C(L+n, n)^m at the term indices n."""
    return m * log_binomial(L + n, n)


def f_truncated_log_array(xy, N: int, L: int, m: int):
    """Vectorized truncated sum of C(L+n, n)^m z^n over n < N-1 at z = +-xy.

    Returns (M, v, v_mirror): the sum is e^M v at xy and e^M v_mirror at
    -xy.  The even and the odd terms are plain sums of positive terms, whose
    rounding stays below that of the log-gamma coefficients; the floors are
    the scalar guard's.
    """
    return _paired_sum(_trunc_log_coeffs(np.arange(N - 1), L, m), xy)


def f_truncated(x: float, p: SeriesParams) -> SignedLogValue:
    """sum_{n=0}^{N-2} C(L+n, n)^m x^n for |x| <= 1.

    Raises PrecisionLossError when alternating cancellation leaves the
    compensated sum with less than six reliable digits.
    """
    if not math.isfinite(x) or abs(x) > 1.0:
        raise DomainError(f"f_truncated requires |x| <= 1, got {x}")
    coeffs = _trunc_log_coeffs(np.arange(p.N - 1), p.L, p.m)
    return _guard_cancellation(_log_series(coeffs, [x]),
                               f"f_truncated(x={x}, N={p.N}, L={p.L}, m={p.m})")


def _guard_cancellation(series, what: str) -> SignedLogValue:
    """Three-way cancellation policy for one _log_series entry.

    Below the summation roundoff the sum is zero within tolerance; within
    six digits of the full noise floor the value is untrustworthy and
    flagged; otherwise the value stands.  The coefficient rounding counts
    only toward the flag: it can turn a value into an error, never into a
    silent zero.
    """
    lm, sg, fl, fl_sum = (float(a[0]) for a in series)
    # the summation floor is an RMS estimate; anything within a few
    # multiples of it is indistinguishable from zero
    if sg == 0 or lm <= fl_sum + math.log(8.0):
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


def _completion(log_coeffs, x: float, turnover: int, tol: float,
                what: str) -> SignedLogValue:
    """Completed series sum_n c_n x^n on _log_series, cut at its tail.

    log_coeffs(n) gives ln c_n at the indices n.  Terms grow up to the
    turnover index and decay after it, so the cut is the first index past
    the turnover whose term is below tol times the largest term, and one
    term at the term-count bound decides whether the cut lies within it.
    Past the turnover the term ratio r falls, so the dropped tail is at
    most its first term over (1 - r); that bound joins the noise floor,
    where it can flag a result but never zero it.  The search evaluates
    each index once, and the sum reuses the log coefficients it found.
    """
    if turnover >= _MAX_TERMS - 1:
        raise SlowConvergenceError(
            f"turnover index {turnover} reaches the term-count bound")
    lx = math.log(abs(x))
    log_term = lambda n: log_coeffs(n) + n * lx
    # the log coefficients found so far, one block per searched range
    blocks = [log_coeffs(np.arange(turnover + 1))]
    cut = (blocks[0] + np.arange(turnover + 1) * lx).max() + math.log(tol)
    if log_term(np.array([_MAX_TERMS - 1]))[0] >= cut:
        raise SlowConvergenceError("term-count bound exceeded")
    # new ranges double in length, up to _SEARCH_BLOCK indices each
    lo, k = turnover + 1, min(2 * turnover + 64, _MAX_TERMS)
    while True:
        n = np.arange(lo, min(k, lo + _SEARCH_BLOCK))
        blocks.append(log_coeffs(n))
        below = blocks[-1] + n * lx < cut
        if below.any():
            break
        lo, k = lo + n.size, min(2 * k, _MAX_TERMS)
    past = int(below.argmax())
    last = lo + past
    t1, t2 = log_term(np.array([last + 1, last + 2]))
    log_tail = t1 - math.log1p(-math.exp(t2 - t1))
    blocks[-1] = blocks[-1][:past + 1]
    coeffs = np.concatenate(blocks)
    # the searched blocks are freed before the sum builds its term matrix
    del n, below, blocks
    lm, sg, fl, fl_sum = _log_series(coeffs, [x])
    return _guard_cancellation((lm, sg, np.logaddexp(fl, log_tail), fl_sum), what)


def f_infinite(x: float, L: int, m: int, tol: float = 1e-14) -> SignedLogValue:
    """The completed series; converges absolutely for |x| < 1.

    Raises PrecisionLossError, like f_truncated, when alternating
    cancellation at negative x leaves less than six reliable digits.
    """
    if not math.isfinite(x) or abs(x) >= 1.0:
        raise DomainError(f"f_infinite requires |x| < 1, got {x}")
    if abs(x) > 1.0 - 1e-6:
        raise SlowConvergenceError(
            f"|x| = {abs(x)} is within 1e-6 of the unit circle")
    if x == 0.0:
        return SignedLogValue.from_real(1.0)
    return _completion(lambda n: _trunc_log_coeffs(n, L, m), x,
                       _series_turnover(L, m, abs(x)), tol,
                       f"f_infinite(x={x}, L={L}, m={m})")


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
    At negative x either series may raise PrecisionLossError when
    alternating cancellation swamps it.
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


def _gin_log_coeffs(n: np.ndarray, m: int) -> np.ndarray:
    """ln 1/(n!)^m at the term indices n."""
    return -m * gammaln(n + 1.0)


def f_gin_log_array(ts, N: int, m: int):
    """Vectorized Ginibre truncated sum sum t^n/(n!)^m at +-ts.

    Returns (M, v, v_mirror) from plain even and odd sums, like
    f_truncated_log_array.
    """
    return _paired_sum(_gin_log_coeffs(np.arange(N - 1), m), ts)


def f_gin_truncated(t: float, N: int, m: int) -> SignedLogValue:
    """sum_{n=0}^{N-2} t^n / (n!)^m at the already-scaled argument t."""
    if not math.isfinite(t):
        raise DomainError("f_gin_truncated requires finite t")
    if N < 2:
        raise DomainError("N must be >= 2")
    return _guard_cancellation(_log_series(_gin_log_coeffs(np.arange(N - 1), m), [t]),
                               f"f_gin_truncated(t={t}, N={N}, m={m})")


def f_gin_infinite(t: float, m: int, tol: float = 1e-15) -> SignedLogValue:
    """Entire-series completion of the Ginibre sum; equals e^t at m = 1.

    Raises PrecisionLossError at negative t once cancellation leaves less
    than six reliable digits.
    """
    if not math.isfinite(t):
        raise DomainError("f_gin_infinite requires finite t")
    if t == 0.0:
        return SignedLogValue.from_real(1.0)
    return _completion(lambda n: _gin_log_coeffs(n, m), t,
                       max(1, int(math.ceil(abs(t) ** (1.0 / m)))), tol,
                       f"f_gin_infinite(t={t}, m={m})")
