"""Meijer-G coefficients g_j and the alternating-sum route to expected counts.

Each coefficient has a Mellin-Barnes representation
    g_j = (1/2 pi i) int [G(1/2+s) G(j+1-s) / (G((L+1)/2+s) G(L/2+1+j-s))]^m
                     / (ceil(j/2) - s) ds
over a vertical line separating the left gamma poles (s = -1/2 - k) from
the right poles (s = ceil(j/2), j+1+k).  A fixed line suffers from a linear
phase that makes the real part cancel catastrophically once m*L is large,
so the line is moved through the real-axis saddle (the minimizer of the
integrand between the poles), where the phase is stationary; the imaginary
direction is then scaled by the local curvature and mapped through sinh.

g_j also equals a positive 2m-dimensional real integral over [0,1]^{2m},
which provides an independent Monte Carlo oracle via Beta-distributed
importance sampling that absorbs the integrand exactly, leaving only the
product-order indicator random.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergentError
from .gammafns import (log_beta, log_binomial, log_gamma,
                       log_gamma_complex_array, real_log_gamma_array,
                       trigamma_array)
from .quadrature import GK_NODES, GK_WEIGHTS_G, GK_WEIGHTS_K

_DEFAULT_REL_TOL = 1e-11


@dataclass(frozen=True)
class GjValue:
    """One Meijer-G coefficient with its quadrature error estimate.

    value underflows to zero for large m*L; log_value always carries the
    magnitude.  The integral representation is positive, so sign is +1 for
    every convergent evaluation.
    """

    j: int
    L: int
    m: int
    value: float
    err_est: float
    log_value: float
    sign: int

    def __post_init__(self):
        if self.j < 0 or self.L < 1 or self.m < 1:
            raise DomainError("need j >= 0, L >= 1, m >= 1")


# Largest even L whose gamma ratios _log_gamma_ratio takes as finite
# products.  They cost L/2 complex logs per node against four complex
# log-gammas, and on a 2-core x86 host the two cost the same near L = 16.
_PRODUCT_MAX_L = 12


def _log_gamma_ratio(s, js, L):
    """ln[G(1/2+s) G(j+1-s) / (G((L+1)/2+s) G(L/2+1+j-s))] at real or complex s.

    At even L both ratios are finite products, G(z)/G(z+k) = 1/(z(z+1)...(z+k-1)),
    so the value is -sum_{i<L/2} ln[(1/2+i+s)(j+1+i-s)].  On the lines between
    the pole fences both factors have a positive real part, and so has their
    product (its real part is (1/2+i+sig)(j+1+i-sig) + (Im s)^2), so each
    principal log is the exact continuation.  Odd L, and even L past
    _PRODUCT_MAX_L, take four log-gammas.
    """
    if L % 2 == 0 and L <= _PRODUCT_MAX_L:
        out = 0.0
        for i in range(L // 2):
            out = out - np.log((0.5 + i + s) * (js + 1.0 + i - s))
        return out
    lg = log_gamma_complex_array if np.iscomplexobj(s) else real_log_gamma_array
    return (lg(0.5 + s) + lg(js + 1.0 - s)
            - lg((L + 1) / 2.0 + s) - lg(L / 2.0 + 1.0 + js - s))


def _log_integrand_real(sig, js, L, m):
    """log of the contour integrand on the real axis (arguments positive)."""
    cj = np.ceil(js / 2.0)
    return m * _log_gamma_ratio(sig, js, L) - np.log(cj - sig)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _saddle_points(js, L, m, iters=62):
    """Per-j minimizer of the real-axis integrand between the pole fences.

    Golden-section search: each step keeps one interior evaluation and makes
    one new one.  62 steps shrink the bracket by 0.618^62, about 1e-13.
    But the log-integrand l is flat to rounding near its minimum, so the
    returned sig is not the minimizer to that accuracy.  Measured for
    j <= 8190 on the `weak` menu, (5, 3) and (6, 1): sig lies up to about
    2e-4 from the root of l' at even L and up to about 1.3e-2 at odd L
    (whose log-gammas are large, so their rounding is too), and
    |l'(sig)| <= 2.4e-7.  Any line between the fences gives the same
    integral; the saddle only keeps the phase slow.
    """
    cj = np.ceil(js / 2.0)
    right = np.minimum(cj, js + 1.0)
    a = np.full(js.shape, -0.5 + 1e-9)
    b = right - 1e-9
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = _log_integrand_real(c, js, L, m)
    fd = _log_integrand_real(d, js, L, m)
    for _ in range(iters):
        take = fc < fd  # the minimizer lies in [a, d]
        a = np.where(take, a, c)
        b = np.where(take, d, b)
        kept, f_kept = np.where(take, c, d), np.where(take, fc, fd)
        new = np.where(take, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        f_new = _log_integrand_real(new, js, L, m)
        c, fc = np.where(take, new, kept), np.where(take, f_new, f_kept)
        d, fd = np.where(take, kept, new), np.where(take, f_kept, f_new)
    return 0.5 * (a + b)


_BASE_EDGES = [0.0, 0.25, 0.5]
_e = 1.0
while _e < 45.0:
    _BASE_EDGES.append(_e)
    _e *= 2.0
_BASE_EDGES.append(45.0)
_BASE_EDGES = np.array(_BASE_EDGES)
# The integrand decays like |t|^-(mL+1) on the line, so the part past
# |t| = 1e13 is about 1e-13 of the total even at mL = 1.  Further out the
# four log-gammas (odd L, and even L past _PRODUCT_MAX_L) cancel
# catastrophically (at mL = 1, j = 37 the exponent is off by 0.5 at
# |t| = 1e14 and by 5 at 1.6e16), so the cut-off never goes past it.  The
# finite products of the other even L sum exact logs and have no such
# cancellation.  At the default tolerance and j <= 8190 the cut-off binds
# only at mL = 1.
_T_MAX = 1e13
# (index, node) pairs per integrand evaluation in _g_batch, which bounds
# its complex work arrays.
_BLOCK_PAIRS = 1 << 14


def _contour_line(js, L, m, rel_tol):
    """Saddle abscissa, sinh scale and cut-off in u of each index's line.

    The line is s = sig + i tau sinh(u) for |u| <= U.
    """
    cj = np.ceil(js / 2.0)
    sig = _saddle_points(js, L, m)
    curv = (m * (trigamma_array(0.5 + sig) + trigamma_array(js + 1.0 - sig)
                 - trigamma_array((L + 1) / 2.0 + sig)
                 - trigamma_array(L / 2.0 + 1.0 + js - sig))
            + 1.0 / (cj - sig) ** 2)
    tau = 3.0 / np.sqrt(np.maximum(curv, 1e-12))
    # gamma-ratio decay turns polynomial only past |Im s| ~ L + j
    U = np.arcsinh(4.0 * (L + js + 2.0) / tau) + (-math.log(rel_tol) + 10.0) / (m * L)
    U = np.minimum(U, np.minimum(45.0, np.arcsinh(_T_MAX / tau)))
    return sig, tau, U


def _g_batch(js, L, m, rel_tol, density=1):
    """Saddle-centred contour quadrature for a batch of indices.

    The integrand at -u is the conjugate of its value at u (every gamma
    argument is conjugated with s), so only u >= 0 is integrated and the
    panel sums are doubled.  Only the nodes with u <= U of each index are
    evaluated, _BLOCK_PAIRS (index, node) pairs at a time, so the complex
    work arrays do not grow with the batch.  Returns
    (sign, log|g|, relative error estimate) arrays.
    """
    js = np.asarray(js, dtype=float)
    sig, tau, U = _contour_line(js, L, m, rel_tol)

    edges = _BASE_EDGES
    if density > 1:
        refined = [0.0]
        for a, b in zip(edges[:-1], edges[1:]):
            refined.extend(np.linspace(a, b, density + 1)[1:])
        edges = np.array(refined)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * GK_NODES[None, :]).ravel()

    jj, kk = np.nonzero(u[None, :] <= U[:, None])
    s0 = _log_integrand_real(sig, js, L, m)
    cj = np.ceil(js / 2.0)
    sinh_u, cosh_u = np.sinh(u), np.cosh(u)
    vals = np.zeros((len(js), len(u)))
    for b in range(0, len(jj), _BLOCK_PAIRS):
        bj, bk = jj[b:b + _BLOCK_PAIRS], kk[b:b + _BLOCK_PAIRS]
        s = sig[bj] + 1j * (tau[bj] * sinh_u[bk])
        z = m * _log_gamma_ratio(s, js[bj], L) - np.log(cj[bj] - s) - s0[bj]
        vals[bj, bk] = (np.exp(z.real) * np.cos(z.imag)) * (tau[bj] * cosh_u[bk])
    vals = vals.reshape(len(js), len(mid), 15)
    ik = 2.0 * (vals * GK_WEIGHTS_K[None, None, :]).sum(axis=2) * half[None, :]
    ig = 2.0 * (vals[:, :, 1::2] * GK_WEIGHTS_G[None, None, :]).sum(axis=2) * half[None, :]
    total = ik.sum(axis=1)
    err = np.abs(ik - ig).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(total != 0.0, err / np.abs(total), np.inf)
        logg = s0 + np.log(np.abs(total)) - math.log(2.0 * math.pi)
    return np.sign(total), logg, rel


def _g_values(js, L, m, rel_tol=_DEFAULT_REL_TOL, chunk=2048, threads=1):
    """(sign, log g, rel err) for an index array, with panel refinement."""
    js = np.asarray(js)
    sign = np.empty(len(js))
    logg = np.empty(len(js))
    rel = np.empty(len(js))
    blocks = [slice(k, min(k + chunk, len(js))) for k in range(0, len(js), chunk)]

    def run(sl):
        return _g_batch(js[sl], L, m, rel_tol)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(sl) for sl in blocks]
    for sl, (s_, l_, r_) in zip(blocks, results):
        sign[sl], logg[sl], rel[sl] = s_, l_, r_
    bad = np.where(rel > rel_tol * 100)[0]
    density = 2
    while len(bad) and density <= 16:
        s_, l_, r_ = _g_batch(js[bad], L, m, rel_tol, density=density)
        sign[bad], logg[bad], rel[bad] = s_, l_, r_
        bad = np.where(rel > rel_tol * 100)[0]
        density *= 2
    if len(bad):
        raise NonConvergentError(
            f"contour refinement exhausted for j in {js[bad][:5]}... "
            f"at (L={L}, m={m})")
    return sign, logg, rel


def g_j_contour(j: int, L: int, m: int, rel_tol: float = _DEFAULT_REL_TOL) -> GjValue:
    """Contour evaluation of a single coefficient."""
    if j < 0:
        raise DomainError("j must be non-negative")
    sign, logg, rel = _g_values(np.array([j]), L, m, rel_tol)
    if sign[0] <= 0:
        raise NonConvergentError(
            f"contour produced a non-positive value for g_{j}(L={L}, m={m})")
    lg = float(logg[0])
    value = math.exp(lg) if lg < 700.0 else math.inf
    return GjValue(j=j, L=L, m=m, value=value,
                   err_est=value * float(rel[0]), log_value=lg, sign=1)


class GjTable:
    """Growable per-(L, m) cache of contour coefficients.

    The alternating sum needs every j <= N-2, so values are computed in
    vectorized batches and kept; ensure() extends the table on demand and
    parallelizes across index blocks.
    """

    def __init__(self, L: int, m: int, rel_tol: float = _DEFAULT_REL_TOL):
        self.L = L
        self.m = m
        self.rel_tol = rel_tol
        self.sign = np.empty(0)
        self.log_g = np.empty(0)
        self.rel_err = np.empty(0)

    def __len__(self):
        return len(self.log_g)

    def ensure(self, j_max: int, threads: int = 1) -> None:
        if j_max < len(self):
            return
        js = np.arange(len(self), j_max + 1)
        sign, logg, rel = _g_values(js, self.L, self.m, self.rel_tol,
                                    threads=threads)
        self.sign = np.concatenate([self.sign, sign])
        self.log_g = np.concatenate([self.log_g, logg])
        self.rel_err = np.concatenate([self.rel_err, rel])

    def value(self, j: int) -> GjValue:
        self.ensure(j)
        lg = float(self.log_g[j])
        value = math.exp(lg) if lg < 700.0 else math.inf
        return GjValue(j=j, L=self.L, m=self.m, value=value,
                       err_est=value * float(self.rel_err[j]),
                       log_value=lg, sign=int(self.sign[j]))


def g_j_sym(j: int, L: int, m: int) -> float:
    """Symmetrized main term: (1/2) (G(j+1)/G(j+1+L/2))^(2m)."""
    if j < 0 or L < 1 or m < 1:
        raise DomainError("need j >= 0, L >= 1, m >= 1")
    return 0.5 * math.exp(2.0 * m * (log_gamma(j + 1.0) - log_gamma(j + 1.0 + L / 2.0)))


def a_lm_closed(L: int, m: int) -> float:
    """Closed form of the even/odd splitting constant: mL/8 + G(mL)/(2 G(mL/2)^2 2^mL)."""
    if L < 1 or m < 1:
        raise DomainError("need L >= 1, m >= 1")
    mL = m * L
    return mL / 8.0 + 0.5 * math.exp(
        log_gamma(float(mL)) - 2.0 * log_gamma(mL / 2.0) - mL * math.log(2.0))


def a_lm_mc(L: int, m: int, n_samples: int, rng: np.random.Generator):
    """Monte Carlo oracle for the splitting constant.

    Draws t, r ~ Gamma(L/2, 1)^m so the integrand weights are absorbed by
    the sampling density; the statistic is (sum t / 2) on {sum r < sum t}.
    """
    if n_samples < 10 ** 4:
        raise DomainError("need at least 1e4 samples")
    t = rng.standard_gamma(L / 2.0, size=(n_samples, m)).sum(axis=1)
    r = rng.standard_gamma(L / 2.0, size=(n_samples, m)).sum(axis=1)
    stat = 0.5 * t * (r < t)
    return float(stat.mean()), float(stat.std(ddof=1) / math.sqrt(n_samples))


def g_j_mc(j: int, L: int, m: int, n_samples: int, rng: np.random.Generator):
    """Monte Carlo estimate of g_j from its real-integral representation.

    Importance sampling from Beta(ceil(j/2)+1/2, L/2) and
    Beta(j-ceil(j/2)+1, L/2) marginals leaves only the indicator
    {prod r > prod t} random.
    """
    if n_samples < 10 ** 3:
        raise DomainError("need at least 1e3 samples")
    if j < 0:
        raise DomainError("j must be non-negative")
    cj = math.ceil(j / 2)
    a_t = cj + 0.5
    a_r = j - cj + 1.0
    t = rng.beta(a_t, L / 2.0, size=(n_samples, m))
    r = rng.beta(a_r, L / 2.0, size=(n_samples, m))
    ind = (r.prod(axis=1) > t.prod(axis=1)).astype(float)
    log_scale = m * (log_beta(a_t, L / 2.0) + log_beta(a_r, L / 2.0)) \
        - 2.0 * m * log_gamma(L / 2.0)
    scale = math.exp(log_scale)
    acceptance = ind.mean()
    if 0.0 < acceptance < 1e-3:
        warnings.warn(
            f"g_j_mc indicator acceptance {acceptance:.2e} is degenerate; "
            "the stderr estimate is unreliable", RuntimeWarning, stacklevel=2)
    return (scale * acceptance,
            scale * float(ind.std(ddof=1)) / math.sqrt(n_samples))


def g_j_even_odd_asy(j: int, L: int, m: int):
    """Large-index forms: g_sym(j) +- A_{L,m} / j^(mL+1) for indices 2j, 2j+1."""
    if j < 1:
        raise DomainError("j must be >= 1")
    base = g_j_sym(j, L, m)
    corr = a_lm_closed(L, m) / j ** (m * L + 1)
    return base + corr, base - corr


def log_2q(L: int, m: int) -> float:
    """log of the prefactor 2 (L G(L/2) G((L+1)/2) / (2 sqrt(pi)))^m."""
    return math.log(2.0) + m * (math.log(L) + log_gamma(L / 2.0)
                                + log_gamma((L + 1) / 2.0)
                                - math.log(2.0 * math.sqrt(math.pi)))


def _sum_terms(table: GjTable, N: int) -> np.ndarray:
    js = np.arange(N - 1)
    lq = log_2q(table.L, table.m)
    lb = table.m * log_binomial(table.L + js, table.L)
    return (table.sign[:N - 1] * np.exp(lq + lb + table.log_g[:N - 1])
            * np.where(js % 2 == 1, -1.0, 1.0))


def expected_real_sum(N: int, L: int, m: int, rel_tol: float = _DEFAULT_REL_TOL,
                      table: GjTable | None = None, threads: int = 1,
                      return_err: bool = False):
    """Expected number of real eigenvalues via the alternating coefficient sum.

    math.fsum rounds the exact sum of the alternating terms once.
    Odd N receives the simulation-verified +1 parity term (the kernel
    formulas count only the paired spectrum); see exactdensity module notes.
    rel_tol is the coefficient tolerance of a table built here.
    """
    if N < 2:
        raise DomainError("N must be >= 2")
    if table is None:
        table = GjTable(L, m, rel_tol)
    table.ensure(N - 2, threads=threads)
    terms = _sum_terms(table, N)
    total = math.fsum(terms)
    if N % 2 == 1:
        total += 1.0
    if return_err:
        err = float((np.abs(terms) * table.rel_err[:N - 1]).sum())
        return total, err
    return total


def weak_asymptotic(N: int, L: int, m: int) -> float:
    """Fixed-L growth law: log(N) / B(mL/2, 1/2)."""
    if N < 1 or L < 1 or m < 1:
        raise DomainError("N, L, m must be positive integers")
    return math.log(N) / math.exp(log_beta(m * L / 2.0, 0.5))
