"""Weight functions for products of matrix-truncation scalars and Gaussians.

The base (single-factor) weight on [-1, 1] is
    w(x) = (L / (2 B(L/2, 1/2)))^(1/2) * (1 - x^2)^(L/2 - 1),
and the m-factor weight is its m-fold multiplicative convolution,
    w_m(x) = 2 * int_{|x|}^{1} w_{m-1}(x / y) w(y) dy / y,
an even function of x that diverges (logarithmically) at x = 0 for m >= 2.
The Ginibre analogue replaces the base with exp(-y^2/2) on the half line.

Two factors have a closed form (TwoFactorWeight): a Gauss hypergeometric
function for the truncated weight at L <= _MAX_EXACT_L, and 2 K_0(|t|) for
Ginibre.  weight_table(L, 2) returns it and builds nothing.

Every other level is a convolution table, built once per (kind, L, m)
from the highest exact level below it (w_2 where it exists, else the base
weight), on a Chebyshev grid in the variable xi = |x|^(1/m).  There the
|x|^(1/m - 1) blow-up at zero becomes polynomial, and the truncated weight
vanishes at xi = 1 like (1 - xi^2)^(mL/2 - 1).  A cubic spline cannot
follow that factor's log singularity near xi = 1, so the spline
interpolates ln w minus (mL/2 - 1) ln(1 - xi^2) and log_weight adds the
factor back.  The routes and checks share the one table of (kind, L, m),
built at DEFAULT_SPEC whatever tolerance they integrate to.
"""
from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipkm1, gammaln, hyp2f1, k0e, psi

from . import cache
from .errors import DomainError, NonConvergentError
from .gammafns import log_beta, log_gamma_complex_array
from .quadrature import QuadratureSpec, tanh_sinh_adaptive, tanh_sinh_batch
from .contour import contour_line_integral
from .signedlog import SignedLogValue

DEFAULT_GRID_SIZE = 512
_MAX_GRID_SIZE = 4096
_GIN_XI_MAX = 12.0  # Ginibre tables cover t in (0, 12^m); Gaussian tail beyond
DEFAULT_SPEC = QuadratureSpec(rel_tol=1e-9)
# Largest L whose two-factor weight is exact: within 1e-12 of mpmath in
# ln w_2 (1.5e-13 at L = 28, 6e-13 at 30, 1.3e-12 at 32, all near
# x^2 = 0.025, where hyp2f1 loses digits as L grows)
_MAX_EXACT_L = 28
# x^2 below which w_2 runs on the log expansion: 1 - x^2 would round
_U_SERIES_MAX = 1e-3

_log = logging.getLogger(__name__)

_registry: dict = {}
_registry_lock = threading.Lock()


@functools.lru_cache(maxsize=None)
def log_base_prefactor(L: int) -> float:
    """log of (L / (2 B(L/2, 1/2)))^(1/2)."""
    return 0.5 * (math.log(L) - math.log(2.0) - log_beta(L / 2.0, 0.5))


def _log_base_array(y, L: int):
    """log w(y) for the single-factor weight, vectorized; -inf outside support."""
    y = np.asarray(y, dtype=float)
    e = L / 2.0 - 1.0
    c = log_base_prefactor(L)
    if e == 0.0:
        return np.full(y.shape, c)
    with np.errstate(divide="ignore"):
        return c + e * np.log1p(-y * y)


def weight_base(x: float, L: int) -> SignedLogValue:
    """Single-factor weight at x, |x| <= 1."""
    _check_L(L)
    if not math.isfinite(x) or abs(x) > 1.0:
        raise DomainError(f"weight_base requires |x| <= 1, got {x}")
    if abs(x) == 1.0:
        if L < 2:
            raise DomainError("weight diverges at |x| = 1 for L < 2")
        if L == 2:
            return SignedLogValue.from_log(1, log_base_prefactor(L))
        return SignedLogValue(0, -math.inf)
    return SignedLogValue.from_log(1, float(_log_base_array(np.array([x]), L)[0]))


def log_weight_mass(L: int, m: int) -> float:
    """log of the total mass of w_m over [-1, 1]: (L B(L/2,1/2) / 2)^(m/2)."""
    return 0.5 * m * (math.log(L / 2.0) + log_beta(L / 2.0, 0.5))


def log_gin_mass(m: int) -> float:
    """log of the total mass of the Ginibre weight over R: (2 pi)^(m/2)."""
    return 0.5 * m * math.log(2.0 * math.pi)


def _check_L(L):
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise DomainError(f"L must be a positive integer, got {L}")


def _check_m(m):
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise DomainError(f"m must be a positive integer, got {m}")


class _NotAKnotSpline:
    """Cubic spline through (x, y) with not-a-knot end conditions.

    It has the end conditions and Hermite power-basis coefficients of
    scipy's default CubicSpline.  The knot slopes s solve the tridiagonal
    system
        dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
            = 3 (dx[i] slope[i-1] + dx[i-1] slope[i])
    at the interior knots, closed by rows that make the third derivative
    continuous at the 2nd and the penultimate knots.  One forward and one
    back sweep solve it without pivoting: the interior rows are diagonally
    dominant, and the first elimination of each end row leaves a positive
    pivot.  Needs at least 4 strictly increasing knots.
    """

    def __init__(self, x, y):
        n = len(x)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        lower, diag, upper, rhs = np.empty((4, n))
        lower[1:-1] = dx[1:]
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:-1] = dx[:-1]
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        lower[-1], diag[-1] = d, dx[-2]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        lower, diag, upper, rhs = (v.tolist() for v in (lower, diag, upper, rhs))
        for i in range(1, n):
            w = lower[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            rhs[i] -= w * rhs[i - 1]
        s = [0.0] * n
        s[-1] = rhs[-1] / diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
        s = np.array(s)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._left, self._inner = x[:-1], x[1:-1]
        self._c = (y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx)

    def __call__(self, xi) -> np.ndarray:
        # piece i covers [x[i], x[i+1]); the end pieces extend outward
        i = np.searchsorted(self._inner, xi, side="right")
        c0, c1, c2, c3 = self._c
        s = xi - self._left.take(i)
        s2 = s * s
        return c0.take(i) + c1.take(i) * s + c2.take(i) * s2 + c3.take(i) * (s2 * s)


@dataclass
class WeightTable:
    """Tabulated log-weight on a Chebyshev grid in xi = |x|^(1/m).

    log_values holds ln w at the grid nodes (the weight is positive on its
    whole support, so a plain float array carries the SignedLogValue
    content with sign fixed at +1).  The spline interpolates ln w minus the
    truncated weight's edge factor (mL/2 - 1) ln(1 - xi^2).  Construction
    is the only mutation; evaluation is read-only and thread-safe.
    """

    L: int
    m: int
    grid: np.ndarray              # xi nodes, strictly increasing in (0, 1)
    log_values: np.ndarray        # ln w at grid nodes
    kind: str = "truncated"       # or "ginibre"
    xi_scale: float = 1.0         # grid spans (0, xi_scale)
    _spline: _NotAKnotSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.log_values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or len(grid) < 4:
            raise DomainError("need grid and log_values of one length >= 4")
        if not (np.isfinite(grid).all() and np.isfinite(values).all()):
            raise DomainError("grid and log_values must be finite")
        if np.any(np.diff(grid) <= 0):
            raise DomainError("grid must be strictly increasing")
        self._edge = self.m * self.L / 2.0 - 1.0 if self.kind == "truncated" else 0.0
        self._spline = _NotAKnotSpline(grid, values - self._edge_term(grid))
        self._at_lo, self._at_hi = values[[0, -1]]

    def _edge_term(self, xi):
        """(mL/2 - 1) ln(1 - xi^2) for the truncated kind, xi <= 1; else 0."""
        if self._edge == 0.0:
            return 0.0
        with np.errstate(divide="ignore"):
            return self._edge * np.log1p(-xi * xi)

    def signed_values(self):
        return [SignedLogValue.from_log(1, float(v)) for v in self.log_values]

    def log_weight(self, x) -> np.ndarray:
        """Vectorized ln w_m(x); +inf at x = 0, -inf where the weight vanishes."""
        x = np.abs(np.asarray(x, dtype=float))
        xi = x ** (1.0 / self.m)
        lo, hi = self.grid[0], self.grid[-1]
        # past the last node the fit stays at its end value, so the edge
        # factor alone carries the weight to zero at xi = 1 (flat up to
        # xi = 1 when mL = 2)
        out = self._spline(np.clip(xi, lo, hi)) + self._edge_term(np.minimum(xi, 1.0))
        if self.kind != "truncated":
            upper = xi > hi
            if upper.any():
                # Gaussian tail continuation in the xi variable
                out = np.where(
                    upper,
                    self._at_hi - 0.5 * self.m * (xi ** 2 - hi ** 2),
                    out)
        lower = xi < lo
        if lower.any():
            # log-divergence shape w ~ c * (-ln x)^(m-1) toward x = 0
            with np.errstate(divide="ignore", invalid="ignore"):
                lx = np.log(np.maximum(xi, 1e-300) ** self.m)
                llo = math.log(lo ** self.m)
                out = np.where(lower,
                               self._at_lo
                               + (self.m - 1) * (np.log(-lx) - math.log(-llo)),
                               out)
        if self.kind == "truncated":
            # the weight vanishes past xi = 1, and at it unless mL = 2
            out = np.where(xi > 1.0 if self.m * self.L == 2 else xi >= 1.0,
                           -np.inf, out)
        return np.where(x == 0.0, np.inf, out)


@functools.lru_cache(maxsize=None)
def _log_expansion(L: int):
    """Polynomials p, q (np.polyval order) with w_2 = c^2 (1 - u)^(L-1)
    (q(u) - ln(u) p(u)) at small u = x^2, where c^2 = e^(2 lbp(L)).

    This is DLMF 15.8.10 for 2F1(a, a; 2a; 1 - u), a = L/2, whose gamma
    prefactor cancels B(a, a): p_k = ((a)_k / k!)^2 and
    q_k = p_k (2 psi(k+1) - 2 psi(a+k)).  The terms shrink by about
    (a + k)^2 u / (k + 1)^2 each, and the expansion stops where the next
    one is below 2^-64 of the first at u = _U_SERIES_MAX.
    """
    a = L / 2.0
    k = np.arange(64)
    log_p = 2.0 * (gammaln(a + k) - gammaln(a) - gammaln(k + 1.0))
    keep = log_p + k * math.log(_U_SERIES_MAX) > -64 * math.log(2.0)
    k = k[: int(np.argmin(keep))]
    p = np.exp(log_p[: k.size])
    q = p * 2.0 * (psi(k + 1.0) - psi(a + k))
    return p[::-1], q[::-1]


def _log_w2_truncated(ax: np.ndarray, L: int) -> np.ndarray:
    """ln w_2 at 0 < ax < 1 for L <= _MAX_EXACT_L (see TwoFactorWeight)."""
    lc2 = 2.0 * log_base_prefactor(L)
    if L == 1:
        # ellipkm1 takes u itself, so K stays accurate as x -> 0; once u
        # is below eps, K = ln(4 / x) to rounding (and u may underflow)
        u = ax * ax
        K = np.where(u < 1e-17, math.log(4.0) - np.log(ax), ellipkm1(u))
        return lc2 + math.log(2.0) + np.log(K)
    if L == 2:
        return lc2 + math.log(2.0) + np.log(-np.log(ax))
    a = L / 2.0
    u = ax * ax
    # (L - 1) ln(1 - u), exact near x = 1
    out = lc2 + (L - 1) * (np.log1p(-ax) + np.log1p(ax))
    small = u < _U_SERIES_MAX
    p, q = _log_expansion(L)
    us = u[small]
    out[small] += np.log(np.polyval(q, us) - 2.0 * np.log(ax[small]) * np.polyval(p, us))
    # z = 1 - u: 2F1(a, a; 2a; z) = (1 - z/2)^-a 2F1(a/2, a/2 + 1/2; a + 1/2;
    # (z/(2-z))^2) (DLMF 15.8.13).  hyp2f1 of the plain form loses digits
    # at z > 0.9 as L grows (1.4e-11 at L = 20), this form does not
    big = ~small
    ub, axb = u[big], ax[big]
    zeta = ((1.0 - axb) * (1.0 + axb) / (1.0 + ub)) ** 2
    out[big] += (log_beta(a, a) - a * np.log(0.5 * (1.0 + ub))
                 + np.log(hyp2f1(0.5 * a, 0.5 * a + 0.5, a + 0.5, zeta)))
    return out


@dataclass(frozen=True)
class TwoFactorWeight:
    """The exact two-factor weight, with the L, m, kind and log_weight of a
    WeightTable and nothing to build.

    Truncated, with u = x^2, a = L/2 and c = e^(log_base_prefactor(L)):
        w_2(x) = c^2 B(a, a) (1 - u)^(L-1) 2F1(a, a; L; 1 - u),
    the Meijer G^{2,0}_{2,2} whose Mellin transform is (c B(s/2, a))^2 / 2.
    At L = 1 it is 2 c^2 K(1 - u), K the complete elliptic integral of
    parameter 1 - u, and at L = 2 it is -2 c^2 ln|x|.  Below u =
    _U_SERIES_MAX the 2F1 runs on its log expansion (_log_expansion), where
    1 - u would round.  Only L <= _MAX_EXACT_L is exact.
    Ginibre (L = 1 by convention): w_2(t) = 2 K_0(|t|).
    """

    L: int
    kind: str = "truncated"
    m: int = field(default=2, init=False)

    def log_weight(self, x) -> np.ndarray:
        """Vectorized ln w_2(x); +inf at x = 0, -inf where the weight vanishes."""
        ax = np.abs(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore"):
            if self.kind != "truncated":
                return np.log(2.0 * k0e(ax)) - ax
            inside = (0.0 < ax) & (ax < 1.0)
            out = np.where(ax == 0.0, np.inf, -np.inf)
            out[inside] = _log_w2_truncated(ax[inside], self.L)
            if self.L == 1:
                # K(0) = pi/2: the weight stays finite up to |x| = 1
                out[ax == 1.0] = 2.0 * log_base_prefactor(1) + math.log(math.pi)
            return out


def _has_two_factor(L: int, kind: str) -> bool:
    return kind != "truncated" or L <= _MAX_EXACT_L


def _chebyshev_grid(n: int, scale: float = 1.0) -> np.ndarray:
    k = np.arange(n)
    return scale * 0.5 * (1.0 + np.cos((2 * k + 1) * math.pi / (2 * n)))[::-1]


def _convolve_level(xs, L: int, level: int, prev_logw, spec: QuadratureSpec,
                    kind: str) -> np.ndarray:
    """ln of  2 * int w_{level-1}(x/y) w_base(y) dy/y  at every node x > 0.

    Each node's integral is split at mid into the panels (lo, mid) and
    (mid, hi), and all 2n panels run as one tanh_sinh_batch, in node order.
    A panel that misses its tolerance is accepted within 1e-6 relative
    error (logged at DEBUG, with one WARNING per level), otherwise it raises.
    """
    xs = np.asarray(xs, dtype=float)
    if kind == "truncated":
        lo, hi = xs, np.ones_like(xs)
        base = lambda y: _log_base_array(y, L)
    else:
        hi = np.full_like(xs, 45.0)
        # w_{level-1} is negligible past 45^(level-1), where one of its
        # Gaussian factors would be past 45
        lo = xs / 45.0 ** (level - 1)
        base = lambda y: -0.5 * np.asarray(y) ** 2
    root = np.sqrt(xs)
    mid = np.where((lo < root) & (root < hi), root, 0.5 * (lo + hi))
    # scale by the integrand magnitude at the midpoint to keep exp in range
    scale = prev_logw(xs / mid) + base(mid)
    row_x, row_scale = np.repeat(xs, 2), np.repeat(scale, 2)

    def f(y, row):
        return np.exp(prev_logw(row_x[row] / y) + base(y) + math.log(2.0)
                      - np.log(y) - row_scale[row])

    a = np.column_stack([lo, mid]).ravel()
    b = np.column_stack([mid, hi]).ravel()
    try:
        # an integrand past double range leaves a non-finite node total,
        # which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            values = tanh_sinh_batch(f, a, b, spec.abs_tol, spec)[0]
    except NonConvergentError as exc:
        # double-precision floor of singular endpoints / interpolated
        # integrands; the mass identity certifies the table end to end
        values, errs, failed = exc.values, exc.err_ests, exc.failed_rows
        for r in failed:
            x, v, e = float(row_x[r]), float(values[r]), float(errs[r])
            if not e <= 1e-6 * abs(v):
                raise NonConvergentError(
                    f"weight convolution at x={x!r}: panel ({float(a[r])!r}, "
                    f"{float(b[r])!r}) stalled at value {v!r}, error estimate {e!r}",
                    value=v, err_est=e)
            _log.debug("weight convolution at x=%r accepted an unconverged panel "
                       "(%r, %r): value %r, error estimate %r", x, float(a[r]),
                       float(b[r]), v, e)
        w = failed[np.argmax(errs[failed] / np.abs(values[failed]))]
        _log.warning("weight table (L=%d, %s) level %d accepted %d unconverged "
                     "panels; worst at x=%r, panel (%r, %r): value %r, error "
                     "estimate %r", L, kind, level, len(failed), float(row_x[w]),
                     float(a[w]), float(b[w]), float(values[w]), float(errs[w]))
    out = np.empty(xs.shape)
    for i, (v1, v2) in enumerate(values.reshape(-1, 2).tolist()):
        total = v1 + v2
        if not 0.0 < total < math.inf:
            raise NonConvergentError(f"weight convolution (L={L}, {kind}) level {level} at "
                                     f"x={float(xs[i])!r}: total {total!r} is not "
                                     "a finite positive number")
        out[i] = scale[i] + math.log(total)
    return out


def _build_table(L: int, m: int, n: int, spec: QuadratureSpec, kind: str) -> WeightTable:
    """Convolution table of level m on an n-node grid.  Levels past 2 start
    from the exact two-factor weight where it exists; level 2 itself, and
    every level of an L without one, convolves up from the base weight."""
    xi_scale = 1.0 if kind == "truncated" else _GIN_XI_MAX
    xi = _chebyshev_grid(n, xi_scale)
    first = 3 if m > 2 and _has_two_factor(L, kind) else 2
    if first == 3:
        prev_logw = TwoFactorWeight(L, kind).log_weight
    elif kind == "truncated":
        prev_logw = lambda u: _log_base_array(u, L)
    else:
        prev_logw = lambda u: -0.5 * np.asarray(u) ** 2
    table = None
    for level in range(first, m + 1):
        vals = _convolve_level(xi ** level, L, level, prev_logw, spec, kind)
        table = WeightTable(L=L, m=level, grid=xi, log_values=vals,
                            kind=kind, xi_scale=xi_scale)
        prev_logw = table.log_weight
    return table


def _mass_check(table: WeightTable, spec: QuadratureSpec) -> float:
    if table.kind == "truncated":
        target = log_weight_mass(table.L, table.m)
        hi = 1.0
    else:
        target = log_gin_mass(table.m)
        hi = 45.0 ** table.m

    def f(x):
        return np.exp(table.log_weight(x) - target + math.log(2.0))

    v, e, _ = tanh_sinh_adaptive(f, 0.0, hi, QuadratureSpec(
        rel_tol=1e-9, abs_tol=0.0, max_depth=spec.max_depth))
    return abs(v - 1.0)


def weight_table(L: int, m: int, spec: QuadratureSpec | None = None,
                 kind: str = "truncated", cache_dir=None) -> WeightTable | TwoFactorWeight:
    """The m-factor weight for (L, m), m >= 2: the exact TwoFactorWeight
    where it exists, else a convolution table, built or fetched.

    A table's grid starts at DEFAULT_GRID_SIZE nodes and doubles until the
    analytic mass identity holds to 1e-6.  spec (default DEFAULT_SPEC, which
    every route and check uses) is the convolution's quadrature.  Tables are
    cached in-process and, with cache_dir, on disk, keyed by (kind, L, m)
    and the spec's tolerances and depth; a table held in-process is saved
    to a cache_dir that lacks it.
    """
    _check_L(L)
    _check_m(m)
    if m < 2:
        raise DomainError("tables exist only for m >= 2; m = 1 is closed-form")
    if m == 2 and _has_two_factor(L, kind):
        return TwoFactorWeight(L, kind)
    spec = spec or DEFAULT_SPEC
    key = (kind, L, m, spec.rel_tol, spec.abs_tol, spec.max_depth)
    # held across the build, so concurrent callers build each key once
    with _registry_lock:
        table = _registry.get(key)
        # saved: the disk cache, if any, already holds this table
        saved = cache_dir is None
        if table is None and not saved:
            table = cache.load_weight_table(cache_dir, kind, L, m, spec)
            saved = table is not None
        elif not saved:
            saved = cache.has_weight_table(cache_dir, kind, L, m, spec)
        if table is None:
            size = DEFAULT_GRID_SIZE
            while True:
                table = _build_table(L, m, size, spec, kind)
                gap = _mass_check(table, spec)
                if gap <= 1e-6:
                    break
                if size >= _MAX_GRID_SIZE:
                    raise NonConvergentError(
                        f"weight table mass identity off by {gap:.2e} at grid {size}")
                size *= 2
        if not saved:
            cache.save_weight_table(cache_dir, table, spec)
        _registry[key] = table
    return table


def weight_product(x: float, L: int, m: int) -> SignedLogValue:
    """m-factor weight at x as a SignedLogValue; signaling infinity at x=0, m>1."""
    _check_L(L)
    _check_m(m)
    if not math.isfinite(x) or abs(x) > 1.0:
        raise DomainError(f"weight_product requires |x| <= 1, got {x}")
    if m == 1:
        return weight_base(x, L)
    if x == 0.0:
        return SignedLogValue.from_log(1, math.inf)
    lw = float(weight_table(L, m).log_weight(np.array([x]))[0])
    if lw == -math.inf:
        return SignedLogValue(0, -math.inf)
    return SignedLogValue.from_log(1, lw)


def weight_asymptotic(x: float, L: int, m: int) -> SignedLogValue:
    """Large-L closed-form approximation of the m-factor weight."""
    _check_L(L)
    _check_m(m)
    ax = abs(x)
    if not (0.0 < ax < 1.0):
        raise DomainError(f"weight_asymptotic requires 0 < |x| < 1, got {x}")
    log_d = (math.log(0.5) + 0.5 * (math.log(L) - math.log(math.pi * m))
             + 0.5 * m * (math.log(2.0 * math.pi) - log_beta(L / 2.0, 0.5)))
    lw = (log_d + (m * L / 2.0 - 1.0) * math.log1p(-ax ** (2.0 / m))
          + (1.0 / m - 1.0) * math.log(ax))
    return SignedLogValue.from_log(1, lw)


def ginibre_weight(t: float, m: int) -> SignedLogValue:
    """Unnormalized density of a product of m standard Gaussians at t."""
    _check_m(m)
    if not math.isfinite(t):
        raise DomainError("ginibre_weight requires finite t")
    if m == 1:
        return SignedLogValue.from_log(1, -0.5 * t * t)
    if t == 0.0:
        return SignedLogValue.from_log(1, math.inf)
    lw = float(weight_table(1, m, kind="ginibre").log_weight(np.array([t]))[0])
    return SignedLogValue.from_log(1, lw)


def ginibre_weight_asymptotic(x: float, N: int, m: int) -> SignedLogValue:
    """Large-N approximation of the Ginibre weight at scaled argument x."""
    _check_m(m)
    if x == 0.0 or not math.isfinite(x):
        raise DomainError("ginibre_weight_asymptotic requires x != 0")
    ax = abs(x)
    lw = (-0.5 * (m - 1) * math.log(N) - 0.5 * N * m * ax ** (2.0 / m)
          + 0.5 * (m - 1) * math.log(4.0 * math.pi) - 0.5 * math.log(m)
          - (m - 1.0) / m * math.log(ax))
    return SignedLogValue.from_log(1, lw)


def mellin_weight_crosscheck(L: int, m: int, points,
                             spec: QuadratureSpec | None = None) -> float:
    """Independent check of the weights via Mellin inversion.

    The Mellin transform of w_m restricted to (0, 1) is
    (1/2) * (c^(1/2) B(s/2, L/2))^m with c = L / (2 B(L/2, 1/2)); inverting
    it on a vertical line must reproduce weight_table(L, m), the weight the
    routes read: the closed form at m = 2, else a convolution table.
    Returns the maximum relative deviation over the probe points.  Requires
    m*L >= 4 so the line integral converges comfortably; spec is its
    tolerance.  contour_line_integral integrates in Im s directly, so the
    x^{-s} oscillation stays resolvable.
    """
    _check_L(L)
    _check_m(m)
    if m * L < 4:
        raise DomainError("Mellin cross-check needs m*L >= 4 for line-decay")
    table = weight_table(L, m)
    # verification path: the oscillatory tail makes 1e-6 the practical ask
    spec = spec or QuadratureSpec(rel_tol=1e-6)
    log_c_half = log_base_prefactor(L)

    worst = 0.0
    for x in points:
        if not 0.0 < x < 1.0:
            raise DomainError("probe points must lie in (0, 1)")

        def f(s, x=x):
            lb = (log_gamma_complex_array(s / 2.0) + math.lgamma(L / 2.0)
                  - log_gamma_complex_array((s + L) / 2.0))
            return np.exp(m * (log_c_half + lb) - s * math.log(x) - math.log(2.0))

        inv = contour_line_integral(f, 1.0, spec).real
        ref = math.exp(float(table.log_weight(np.array([x]))[0]))
        worst = max(worst, abs(inv / ref - 1.0))
    return worst
