"""Finite-size exact real-eigenvalue density and expected counts, plus limits.

The one-point density of real eigenvalues of the m-factor truncated
orthogonal product is
    rho_N(x) = int_{-1}^{1} |x - y| w(x) w(y) f_trunc(x y) dy,
and the expected number of real eigenvalues is its total integral.  The
product w(x) w(y) f(x y) is assembled as one combined exponent (the three
factors individually leave double range around N ~ 40) and exponentiated
only after combining.

Parity note, verified by simulation: the kernel formulas reproduce the
simulated expected count exactly for even N, while for odd N the simulated
count exceeds the kernel integral by exactly one (the unpaired-eigenvalue
contribution of odd-dimensional Pfaffian ensembles).  The expected_* entry
points therefore add one for odd N; densities and raw integrals are
reported as the kernel formulas state them.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PrecisionLossError
from .montecarlo import EnsembleKind, EnsembleSpec
from .quadrature import QuadratureSpec, Rule, tanh_sinh_adaptive
from .series import SeriesParams, f_gin_log_array, f_truncated_log_array
from .weights import _log_base_array, weight_table

_DEFAULT_SPEC = QuadratureSpec(rel_tol=3e-9, abs_tol=0.0, max_depth=16,
                               rule=Rule.TANH_SINH)
_MAX_EXACT_SIZE = 256


def _check_envelope(p: SeriesParams) -> None:
    # beyond this, alternating series cancellation exceeds double precision
    if p.N > _MAX_EXACT_SIZE or p.L > _MAX_EXACT_SIZE:
        raise PrecisionLossError(
            f"the exact-density route is supported for N <= {_MAX_EXACT_SIZE} "
            f"and L <= {_MAX_EXACT_SIZE}; got N={p.N}, L={p.L}.  Use the "
            "alternating-sum or simulation routes at this size.")


def _log_weight_fn(kind: str, L: int, m: int, spec, table):
    """Vectorized ln w_m for the "truncated" or "ginibre" weight kind."""
    if m == 1:
        if kind == "ginibre":
            return lambda t: -0.5 * np.asarray(t, dtype=float) ** 2
        return lambda y: _log_base_array(y, L)
    if table is None:
        table = weight_table(L, m, spec, kind=kind)
    return table.log_weight


def _piecewise(f, points, spec) -> tuple[float, float]:
    """Sum of tanh-sinh integrals over consecutive panels.

    A coarse probe of the integrand sets an absolute-tolerance floor so
    panels that contribute nothing to the total (underflowed tails) are
    not asked for impossible relative accuracy.
    """
    panels = [(a, b) for a, b in zip(points[:-1], points[1:]) if b - a > 1e-15]
    scale = 0.0
    span = sum(b - a for a, b in panels)
    for a, b in panels:
        probes = a + (b - a) * np.array([0.11, 0.37, 0.5, 0.71, 0.93])
        fp = np.abs(np.asarray(f(probes)))
        if fp.size:
            scale = max(scale, float(fp.max()))
    floor = max(spec.abs_tol, scale * span * spec.rel_tol * 0.02)
    panel_spec = QuadratureSpec(rel_tol=spec.rel_tol, abs_tol=floor,
                                max_depth=spec.max_depth, rule=Rule.TANH_SINH)
    total = 0.0
    err = 0.0
    for a, b in panels:
        v, e, _ = tanh_sinh_adaptive(f, a, b, panel_spec)
        total += v
        err += e
    return total, err


def _density(ax: float, log_w, log_series, breakpoints, spec,
             log_pref: float = 0.0) -> float:
    """Kernel density int |ax - y| w(ax) w(y) f(ax y) dy, times e^log_pref.

    log_w is the vectorized ln w, log_series the (log|f|, sign, floor)
    series evaluator, and breakpoints the sorted panel edges in y.  A value
    within its own quadrature error is zero: its sign is noise, the policy
    series._guard_cancellation applies to sums below their roundoff floor.
    """
    lwx = float(log_w(np.array([ax]))[0])

    def integrand(y):
        lf, sf, _ = log_series(ax * y)
        return np.abs(ax - y) * sf * np.exp(lwx + log_w(np.abs(y)) + lf + log_pref)

    total, err = _piecewise(integrand, breakpoints, spec)
    return 0.0 if abs(total) <= err else total


def _mass(rho, edges, spec) -> float:
    """Twice the integral of the even density rho(x, inner_spec) over edges.

    Each density value is computed at 0.3 times the outer relative tolerance.
    """
    inner = QuadratureSpec(rel_tol=spec.rel_tol * 0.3, abs_tol=0.0,
                           max_depth=spec.max_depth, rule=Rule.TANH_SINH)
    total, _ = _piecewise(lambda xs: np.array([rho(float(v), inner) for v in xs]),
                          edges, spec)
    return 2.0 * total


def _regime_edges(p: SeriesParams) -> list[float]:
    """Closed-form points (alpha -+ 1/sqrt N)^m where f_trunc changes regime."""
    return [(p.alpha + off / math.sqrt(p.N)) ** p.m for off in (-1.0, 1.0)]


def _transition_points(x: float, p: SeriesParams) -> list[float]:
    """y-values where f_trunc(x y) changes asymptotic regime, clipped to (-1,1)."""
    if x == 0.0:
        return []
    out = []
    for edge in _regime_edges(p):
        for sgn in (-1.0, 1.0):
            y = sgn * edge / abs(x)
            if -1.0 < y < 1.0:
                out.append(y)
    return out


def kernel_S(x1: float, x2: float, p: SeriesParams,
             spec: QuadratureSpec | None = None, table=None) -> float:
    """Kernel entry S(x1, x2); S(x, x) is the one-point density."""
    spec = spec or _DEFAULT_SPEC
    _check_envelope(p)
    for v in (x1, x2):
        if not -1.0 < v < 1.0:
            raise DomainError(f"arguments must lie in (-1, 1), got {v}")
    if p.m > 1 and x1 == 0.0:
        raise DomainError("x1 = 0 is singular for m > 1")
    logw = _log_weight_fn("truncated", p.L, p.m, spec, table)
    lwx = float(logw(np.array([abs(x1)]))[0])

    def integrand(y):
        lf, sf, _ = f_truncated_log_array(x1 * y, p.N, p.L, p.m)
        val = (x1 - y) * np.sign(x2 - y) * sf
        return val * np.exp(lwx + logw(np.abs(y)) + lf)

    pts = sorted({-1.0, 0.0, float(x2), 1.0} | set(_transition_points(x1, p)))
    total, _ = _piecewise(integrand, pts, spec)
    return total


def density_rho(x: float, p: SeriesParams, spec: QuadratureSpec | None = None,
                table=None) -> float:
    """One-point density of real eigenvalues at x (even in x)."""
    spec = spec or _DEFAULT_SPEC
    _check_envelope(p)
    if not -1.0 < x < 1.0:
        raise DomainError(f"x must lie in (-1, 1), got {x}")
    if p.m > 1 and x == 0.0:
        raise DomainError("x = 0 is singular for m > 1")
    ax = abs(x)
    pts = sorted({-1.0, 0.0, ax, 1.0} | set(_transition_points(ax, p)))
    return _density(ax, _log_weight_fn("truncated", p.L, p.m, spec, table),
                    lambda z: f_truncated_log_array(z, p.N, p.L, p.m), pts, spec)


def density_mass(p: SeriesParams, spec: QuadratureSpec | None = None,
                 table=None) -> float:
    """Total integral of the kernel density over [-1, 1] (no parity term)."""
    spec = spec or _DEFAULT_SPEC
    if p.m > 1 and table is None:
        table = weight_table(p.L, p.m, spec)
    edges = sorted({0.0, 1.0} | {e for e in _regime_edges(p) if 0.0 < e < 1.0})
    return _mass(lambda x, inner: density_rho(x, p, inner, table), edges, spec)


def expected_real_quadrature(p: SeriesParams, spec: QuadratureSpec | None = None,
                             table=None, parity_correction: bool = True) -> float:
    """Expected number of real eigenvalues via the density integral.

    With parity_correction (default), odd N receives the simulation-verified
    +1 for the unpaired real eigenvalue; see the module docstring.
    """
    total = density_mass(p, spec, table)
    if parity_correction and p.N % 2 == 1:
        total += 1.0
    return total


def limiting_density(x: float, m: int, alpha_t: float) -> float:
    """Limit of the normalized real-eigenvalue density of the truncation model.

    Supported on |x| < alpha_t^(m/2); x = 0 is excluded uniformly in m
    (the density is singular there for m > 1).
    """
    if not 0.0 < alpha_t < 1.0:
        raise DomainError(f"alpha_t must lie in (0, 1), got {alpha_t}")
    if m < 1:
        raise DomainError("m must be a positive integer")
    if x == 0.0:
        raise DomainError("x = 0 is excluded")
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [-1, 1], got {x}")
    ax = abs(x)
    if ax >= alpha_t ** (m / 2.0):
        return 0.0
    norm = 2.0 * m * math.atanh(math.sqrt(alpha_t))
    return 1.0 / (norm * ax ** (1.0 - 1.0 / m) * (1.0 - ax ** (2.0 / m)))


def asympt_expected(N: int, L: int, m: int) -> float:
    """Leading-order expected count: sqrt(2 m gamma N / pi) arctanh(sqrt(alpha))."""
    if N < 1 or L < 1 or m < 1:
        raise DomainError("N, L, m must be positive integers")
    gamma = L / N
    alpha = 1.0 / (1.0 + gamma)
    return math.sqrt(2.0 * m * gamma * N / math.pi) * math.atanh(math.sqrt(alpha))


def gin_asympt_expected(N: int, m: int) -> float:
    """Leading-order expected count for Ginibre products: sqrt(2 N m / pi)."""
    if N < 1 or m < 1:
        raise DomainError("N, m must be positive integers")
    return math.sqrt(2.0 * N * m / math.pi)


def gin_limiting_density(x: float, m: int) -> float:
    """Limit density for Ginibre products: |x|^(1/m - 1) / (2m) on (-1, 1)."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    if x == 0.0:
        raise DomainError("x = 0 is excluded")
    ax = abs(x)
    if ax >= 1.0:
        return 0.0
    return ax ** (1.0 / m - 1.0) / (2.0 * m)


def limiting_density_cdf(x: float, m: int, alpha_t: float) -> float:
    """Closed-form distribution function of the limiting density."""
    if not 0.0 < alpha_t < 1.0:
        raise DomainError(f"alpha_t must lie in (0, 1), got {alpha_t}")
    edge = alpha_t ** (m / 2.0)
    t = min(abs(x), edge) ** (1.0 / m)
    half = math.atanh(t) / (2.0 * math.atanh(math.sqrt(alpha_t)))
    return 0.5 + math.copysign(half, x)


def gin_limiting_density_cdf(x: float, m: int) -> float:
    """Closed-form distribution function of the Ginibre limit density."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    half = 0.5 * min(abs(x), 1.0) ** (1.0 / m)
    return 0.5 + math.copysign(half, x)


def gin_density_rho(t: float, N: int, m: int,
                    spec: QuadratureSpec | None = None, table=None) -> float:
    """Kernel density for Ginibre products in the product-scaled variable t.

    The density of scaled real eigenvalues x = t N^(-m/2) is
    N^(m/2) * gin_density_rho(N^(m/2) x).  Even N only.
    """
    if N % 2 == 1:
        raise DomainError("the Ginibre kernel formulas require even N")
    if N < 2:
        raise DomainError("N must be >= 2")
    spec = spec or _DEFAULT_SPEC
    if m > 1 and t == 0.0:
        raise DomainError("t = 0 is singular for m > 1")
    at = abs(t)
    T = _gin_cutoff(N, m)
    return _density(at, _log_weight_fn("ginibre", 1, m, spec, table),
                    lambda z: f_gin_log_array(z, N, m),
                    sorted({-T, 0.0, min(at, T), T}), spec,
                    -m * math.log(2.0 * math.sqrt(2.0 * math.pi)))


def _gin_cutoff(N: int, m: int) -> float:
    # integrand support ends near |t| ~ N^(m/2); generous Gaussian margin
    return 4.0 * N ** (m / 2.0) + 8.0 ** m


def gin_expected_real_quadrature(N: int, m: int,
                                 spec: QuadratureSpec | None = None,
                                 table=None) -> float:
    """Expected number of real eigenvalues of the Ginibre product, even N."""
    if N % 2 == 1:
        raise DomainError("the Ginibre kernel formulas require even N")
    spec = spec or _DEFAULT_SPEC
    if m > 1 and table is None:
        table = weight_table(1, m, spec, kind="ginibre")
    return _mass(lambda t, inner: gin_density_rho(t, N, m, inner, table),
                 [0.0, N ** (m / 2.0), _gin_cutoff(N, m)], spec)


@dataclass
class DensityCurve:
    """A sampled density curve with provenance."""

    ensemble: EnsembleSpec
    abscissae: np.ndarray
    values: np.ndarray
    normalized: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.abscissae = np.asarray(self.abscissae, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.abscissae) <= 0):
            raise DomainError("abscissae must be strictly increasing")
        if np.any(self.values < 0):
            raise DomainError("density values must be non-negative")

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.values, self.abscissae))

    def to_csv(self, path) -> None:
        lines = ["x,value"]
        lines += [f"{float(x)!r},{float(v)!r}"
                  for x, v in zip(self.abscissae, self.values)]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path) -> None:
        payload = {
            "ensemble": self.ensemble.to_dict(),
            "normalized": self.normalized,
            "meta": self.meta,
            "x": [repr(float(v)) for v in self.abscissae],
            "value": [repr(float(v)) for v in self.values],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_density_curve(ensemble: EnsembleSpec, xs, spec: QuadratureSpec | None = None,
                        normalized: bool = True, threads: int = 1,
                        table=None) -> DensityCurve:
    """Evaluate the exact (normalized) density on a grid, in parallel.

    Ginibre curves are in the scaled variable x = t N^(-m/2).  Grid
    evaluations are independent; results are deterministic for any thread
    count.
    """
    spec = spec or _DEFAULT_SPEC
    xs = np.asarray(xs, dtype=float)
    N, m = ensemble.N, ensemble.m
    if ensemble.kind is EnsembleKind.TRUNCATED_ORTHOGONAL:
        p = SeriesParams(N, ensemble.L, m)
        fn = lambda x: density_rho(float(x), p, spec, table)
        mass = density_mass(p, spec, table) if normalized else 1.0
    else:
        scale = N ** (m / 2.0)
        fn = lambda x: scale * gin_density_rho(float(x) * scale, N, m, spec, table)
        mass = gin_expected_real_quadrature(N, m, spec, table) if normalized else 1.0
    if threads == 1:
        vals = [fn(x) for x in xs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = list(pool.map(fn, xs))
    values = np.asarray(vals, dtype=float) / mass
    meta = {"rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol,
            "rule": spec.rule.value, "mass": mass}
    return DensityCurve(ensemble=ensemble, abscissae=xs, values=values,
                        normalized=normalized, meta=meta)
