"""Finite-size exact real-eigenvalue density and expected counts, plus limits.

The one-point density of real eigenvalues of the m-factor truncated
orthogonal product is
    rho_N(x) = int_{-1}^{1} |x - y| w(x) w(y) f_trunc(x y) dy,
and the expected number of real eigenvalues is its total integral.  The
weight is even, so the integral folds onto y >= 0:
    int_{-1}^{1} g(y) dy = int_0^1 g(y) + g(-y) dy,
where g(-y) holds f(-x y).  The terms of f(z) and f(-z) differ only in the
signs of the odd ones, so one series evaluation gives both,
f(+-x y) = e^M v, e^M v_mirror.  The common factor w(x) w(y) e^M is one
exponent, ln w(x) + ln w(y) + M (the factors individually leave double
range around N ~ 40), exponentiated once per node and multiplied into both
halves.  The Ginibre density has the same form on (-T, T).

The expected count's integrand |x - y| w(x) w(y) f(x y) is unchanged by
(x, y) -> (y, x) and (x, y) -> (-x, -y), so a quarter of the square, the
wedge x >= |y|, holds all of it:
    E = 4 int_0^1 w(x) int_0^x [(x - y) f(x y) + (x + y) f(-x y)] w(y) dy dx.
The masses (density_mass, gin_expected_real_quadrature and the expected_*
counts on them) integrate each outer node's row over (0, x) only, with the
density's integrand (sgn(x - y) = +1 there) and the absolute floor of its
full row.  density_rho, gin_density_rho, kernel_S and build_density_curve
keep the full inner integral over (0, 1), or (0, T) for Ginibre.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PrecisionLossError
from .montecarlo import EnsembleKind, EnsembleSpec
# tanh_sinh_adaptive is not called here; it stays a module global because
# perfbench's tracer wraps the names this module holds
from .quadrature import QuadratureSpec, tanh_sinh_adaptive, tanh_sinh_batch  # noqa: F401
from .series import SeriesParams, f_gin_log_array, f_truncated_log_array
# every weight is read through these two names, which the tracer wraps here
from .weights import _log_base_array, weight_table

_DEFAULT_SPEC = QuadratureSpec(rel_tol=3e-9, abs_tol=0.0, max_depth=16)
_MAX_EXACT_SIZE = 256
# Byte budget of one series evaluation's term matrix: flat quadrature nodes
# are evaluated in chunks so the (N-1) x points matrices stay this small.
_CHUNK_BYTES = 1 << 20
# Fractions of each panel where the integrand is probed for its scale.
_PROBES = np.array([0.11, 0.37, 0.5, 0.71, 0.93])


def _check_envelope(p: SeriesParams) -> None:
    # beyond this, alternating series cancellation exceeds double precision
    if p.N > _MAX_EXACT_SIZE or p.L > _MAX_EXACT_SIZE:
        raise PrecisionLossError(
            f"the exact-density route is supported for N <= {_MAX_EXACT_SIZE} "
            f"and L <= {_MAX_EXACT_SIZE}; got N={p.N}, L={p.L}.  Use the "
            "alternating-sum or simulation routes at this size.")


def _log_weight_fn(kind: str, L: int, m: int):
    """Vectorized ln w_m for the "truncated" or "ginibre" weight kind: the
    one weight of (kind, L, m), whatever the caller's tolerance."""
    if m == 1:
        if kind == "ginibre":
            return lambda t: -0.5 * np.asarray(t, dtype=float) ** 2
        return lambda y: _log_base_array(y, L)
    return weight_table(L, m, kind=kind).log_weight


def _chunked(fn, y, row, n_terms: int):
    """fn(y, row) over flat nodes, in chunks whose n_terms x points series
    matrices stay within _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // (8 * max(n_terms, 1)))
    if len(y) <= step:
        return fn(y, row)
    return np.concatenate([fn(y[i:i + step], row[i:i + step])
                           for i in range(0, len(y), step)])


def _piecewise(f, points, spec, stop=None) -> tuple[np.ndarray, np.ndarray]:
    """Per row of points, the sum of tanh-sinh integrals over its panels.

    points is (rows, k), each row sorted; its consecutive pairs are the
    panels, and panels no wider than 1e-15 (repeated points pad rows with
    fewer edges) are dropped.  f(y, row) evaluates row `row`'s integrand.
    Every panel of every row runs in one tanh-sinh batch.  A coarse probe
    of each row's integrand sets that row's absolute-tolerance floor, so
    panels that contribute nothing to the total (underflowed tails) are
    not asked for impossible relative accuracy.  With stop, one edge per
    row, only the panels below stop[i] are integrated; the probes and the
    floor still cover the whole row.
    """
    points = np.asarray(points, dtype=float)
    lo, hi = points[:, :-1], points[:, 1:]
    keep = hi - lo > 1e-15
    row, _ = np.nonzero(keep)
    a, b = lo[keep], hi[keep]
    # each row's panel widths, added in panel order
    span = np.array([sum(w) for w in np.where(keep, hi - lo, 0.0).tolist()])
    probes = a[:, None] + (b - a)[:, None] * _PROBES
    fp = np.abs(np.asarray(f(probes.ravel(), np.repeat(row, _PROBES.size))))
    # fmax passes over a panel whose probes hold a NaN
    scale = np.zeros(len(points))
    np.fmax.at(scale, row, fp.reshape(probes.shape).max(axis=1))
    floor = np.fmax(spec.abs_tol, scale * span * spec.rel_tol * 0.02)
    if stop is not None:
        keep &= hi <= stop[:, None]
        row, _ = np.nonzero(keep)
        a, b = lo[keep], hi[keep]
    v, e, _ = tanh_sinh_batch(lambda y, r: f(y, row[r]), a, b, floor[row], spec)
    vals = np.zeros(keep.shape)
    errs = np.zeros(keep.shape)
    vals[keep] = v
    errs[keep] = e
    # added panel by panel; a dropped panel adds an exact 0.0
    total = np.zeros(len(points))
    err = np.zeros(len(points))
    for j in range(keep.shape[1]):
        total += vals[:, j]
        err += errs[:, j]
    return total, err


def _density(x1, x2, log_w, paired_series, n_terms: int, points, spec,
             log_pref: float = 0.0, stop=None) -> np.ndarray:
    """Kernel entries int (x1 - y) sgn(x2 - y) w(|x1|) w(|y|) f(x1 y) dy,
    times e^log_pref, at every entry of the arrays x1 and x2; x1 = x2 = |x|
    gives the one-point density at x.

    The even weight folds the integral onto y >= 0, with integrand
        e^(ln w(|x1|) + ln w(y) + log_pref + M)
          * ((x1 - y) sgn(x2 - y) v + (x1 + y) sgn(x2 + y) v_mirror),
    where paired_series(z), with n_terms terms, returns (M, v, v_mirror)
    and f(+-z) = e^M v, e^M v_mirror: one exp per node and no log.
    points[i] holds the sorted panel edges in y >= 0 for entry i, with the
    kinks of both halves folded by |.|; stop is _piecewise's.  A value
    within its own quadrature error is zero: its sign is noise, the policy
    series._guard_cancellation applies to sums below their roundoff floor.
    """
    lwx = log_w(np.abs(x1)) + log_pref

    def part(y, row):
        x1r, x2r = x1[row], x2[row]
        M, v, v_mirror = paired_series(x1r * y)
        return np.exp(lwx[row] + log_w(y) + M) * (
            (x1r - y) * np.sign(x2r - y) * v + (x1r + y) * np.sign(x2r + y) * v_mirror)

    total, err = _piecewise(lambda y, row: _chunked(part, y, row, n_terms), points, spec,
                            stop)
    return np.where(np.abs(total) <= err, 0.0, total)


def _mass(rows, edges, spec, wedge: bool) -> tuple[float, float]:
    """The kernel integral over the square and the outer quadrature's error
    estimate, from the outer rule over edges (x >= 0).

    rows(xs, inner_spec) evaluates the inner rows at an array of abscissae,
    each at 0.3 times the outer relative tolerance.  Wedge rows integrate
    y over (0, x) and the square is four times their integral; density
    rows integrate y over all of the fold and the square is twice theirs.
    """
    inner = QuadratureSpec(rel_tol=spec.rel_tol * 0.3, abs_tol=0.0,
                           max_depth=spec.max_depth)
    total, err = _piecewise(lambda xs, _: rows(xs, inner), [edges], spec)
    fold = 4.0 if wedge else 2.0
    return fold * float(total[0]), fold * float(err[0])


def _regime_edges(p: SeriesParams) -> list[float]:
    """Closed-form points (alpha -+ 1/sqrt N)^m where f_trunc changes regime."""
    return [(p.alpha + off / math.sqrt(p.N)) ** p.m for off in (-1.0, 1.0)]


def _transition_points(x, p: SeriesParams) -> np.ndarray:
    """y > 0 where f_trunc(+-x y) changes asymptotic regime (the regime
    edges folded by |.|), one row of two per entry of x; entries at or past
    1 (all of them at x = 0) are NaN."""
    ax = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    cols = []
    with np.errstate(divide="ignore"):
        for edge in _regime_edges(p):
            y = abs(edge) / ax
            cols.append(np.where((ax != 0.0) & (y < 1.0), y, np.nan))
    return np.stack(cols, axis=1)


def _edges(fixed, extra=None) -> np.ndarray:
    """Sorted rows of panel edges: fixed columns plus the non-NaN extras
    (a NaN becomes a repeat of the last edge, i.e. a zero-width panel)."""
    pts = np.stack(np.broadcast_arrays(*map(np.atleast_1d, fixed)), axis=1)
    if extra is not None:
        pts = np.concatenate([pts, np.where(np.isnan(extra), pts[:, -1:], extra)], axis=1)
    return np.sort(pts, axis=1)


def kernel_S(x1: float, x2: float, p: SeriesParams,
             spec: QuadratureSpec | None = None) -> float:
    """Kernel entry S(x1, x2); S(x, x) is the one-point density."""
    spec = spec or _DEFAULT_SPEC
    _check_envelope(p)
    for v in (x1, x2):
        if not -1.0 < v < 1.0:
            raise DomainError(f"arguments must lie in (-1, 1), got {v}")
    if p.m > 1 and x1 == 0.0:
        raise DomainError("x1 = 0 is singular for m > 1")
    return float(_density(np.array([float(x1)]), np.array([float(x2)]),
                          _log_weight_fn("truncated", p.L, p.m),
                          lambda z: f_truncated_log_array(z, p.N, p.L, p.m), p.N - 1,
                          _edges([0.0, abs(float(x2)), 1.0], _transition_points(x1, p)),
                          spec)[0])


def _rho(xs, p: SeriesParams, spec, wedge: bool = False) -> np.ndarray:
    """Truncated-model density at every entry of xs, or with wedge the
    mass's inner rows: the same integrand over y in (0, |x|) only."""
    _check_envelope(p)
    xs = np.asarray(xs, dtype=float)
    outside = ~((-1.0 < xs) & (xs < 1.0))
    if outside.any():
        raise DomainError(f"x must lie in (-1, 1), got {xs[outside][0]}")
    if p.m > 1 and (xs == 0.0).any():
        raise DomainError("x = 0 is singular for m > 1")
    ax = np.abs(xs)
    return _density(ax, ax, _log_weight_fn("truncated", p.L, p.m),
                    lambda z: f_truncated_log_array(z, p.N, p.L, p.m), p.N - 1,
                    _edges([0.0, ax, 1.0], _transition_points(ax, p)), spec,
                    stop=ax if wedge else None)


def density_rho(x: float, p: SeriesParams, spec: QuadratureSpec | None = None) -> float:
    """One-point density of real eigenvalues at x (even in x)."""
    return float(_rho([x], p, spec or _DEFAULT_SPEC)[0])


def density_mass(p: SeriesParams, spec: QuadratureSpec | None = None,
                 return_err: bool = False):
    """Total integral of the kernel density over [-1, 1] (no parity term).

    Taken over the wedge x >= |y| (see the module docstring):
    E = 4 int_0^1 w(x) int_0^x [(x - y) f(x y) + (x + y) f(-x y)] w(y) dy dx,
    where density_rho integrates y over all of (0, 1).  With return_err,
    returns (value, quadrature error estimate).
    """
    total, err = _trunc_mass(p, spec or _DEFAULT_SPEC, wedge=True)
    return (total, err) if return_err else total


def _trunc_mass(p: SeriesParams, spec, wedge: bool) -> tuple[float, float]:
    """density_mass's value and error; wedge=False integrates the density
    rows instead, the route verify's wedge check compares against."""
    _check_envelope(p)
    edges = sorted({0.0, 1.0} | {e for e in _regime_edges(p) if 0.0 < e < 1.0})
    return _mass(lambda xs, inner: _rho(xs, p, inner, wedge), edges, spec, wedge)


def expected_real_quadrature(p: SeriesParams, spec: QuadratureSpec | None = None,
                             return_err: bool = False):
    """Expected number of real eigenvalues via the density integral.

    Odd N receives the simulation-verified +1 for the unpaired real
    eigenvalue; see the module docstring.  With return_err, returns (value,
    quadrature error estimate).
    """
    total, err = density_mass(p, spec, return_err=True)
    if p.N % 2 == 1:
        total += 1.0
    return (total, err) if return_err else total


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


def _gin_rho(ts, N: int, m: int, spec, wedge: bool = False) -> np.ndarray:
    """Ginibre kernel density at every entry of ts (product-scaled), or
    with wedge the mass's inner rows over y in (0, |t|) only."""
    if N % 2 == 1:
        raise DomainError("the Ginibre kernel formulas require even N")
    if N < 2:
        raise DomainError("N must be >= 2")
    ts = np.asarray(ts, dtype=float)
    if m > 1 and (ts == 0.0).any():
        raise DomainError("t = 0 is singular for m > 1")
    at = np.abs(ts)
    T = _gin_cutoff(N, m)
    return _density(at, at, _log_weight_fn("ginibre", 1, m),
                    lambda z: f_gin_log_array(z, N, m), N - 1,
                    _edges([0.0, np.minimum(at, T), T]), spec,
                    -m * math.log(2.0 * math.sqrt(2.0 * math.pi)),
                    stop=at if wedge else None)


def gin_density_rho(t: float, N: int, m: int,
                    spec: QuadratureSpec | None = None) -> float:
    """Kernel density for Ginibre products in the product-scaled variable t.

    The density of scaled real eigenvalues x = t N^(-m/2) is
    N^(m/2) * gin_density_rho(N^(m/2) x).  Even N only.
    """
    return float(_gin_rho([t], N, m, spec or _DEFAULT_SPEC)[0])


def _gin_cutoff(N: int, m: int) -> float:
    # integrand support ends near |t| ~ N^(m/2); generous Gaussian margin
    return 4.0 * N ** (m / 2.0) + 8.0 ** m


def gin_expected_real_quadrature(N: int, m: int,
                                 spec: QuadratureSpec | None = None,
                                 return_err: bool = False):
    """Expected number of real eigenvalues of the Ginibre product, even N.

    Taken over the wedge t >= |s| of [-T, T]^2, T = _gin_cutoff(N, m), by
    density_mass's identity; gin_density_rho integrates s over all of
    (0, T).  With return_err, returns (value, quadrature error estimate).
    """
    total, err = _gin_mass(N, m, spec or _DEFAULT_SPEC, wedge=True)
    return (total, err) if return_err else total


def _gin_mass(N: int, m: int, spec, wedge: bool) -> tuple[float, float]:
    """gin_expected_real_quadrature's value and error; wedge=False
    integrates the density rows instead (verify's wedge check)."""
    if N % 2 == 1:
        raise DomainError("the Ginibre kernel formulas require even N")
    return _mass(lambda ts, inner: _gin_rho(ts, N, m, inner, wedge),
                 [0.0, N ** (m / 2.0), _gin_cutoff(N, m)], spec, wedge)


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
                        normalized: bool = True) -> DensityCurve:
    """Evaluate the exact (normalized) density on a grid in one batched pass.

    Ginibre curves are in the scaled variable x = t N^(-m/2).
    """
    spec = spec or _DEFAULT_SPEC
    xs = np.asarray(xs, dtype=float)
    N, m = ensemble.N, ensemble.m
    if ensemble.kind is EnsembleKind.TRUNCATED_ORTHOGONAL:
        p = SeriesParams(N, ensemble.L, m)
        mass = density_mass(p, spec) if normalized else 1.0
        vals = _rho(xs, p, spec)
    else:
        scale = N ** (m / 2.0)
        mass = gin_expected_real_quadrature(N, m, spec) if normalized else 1.0
        vals = scale * _gin_rho(xs * scale, N, m, spec)
    values = np.asarray(vals, dtype=float) / mass
    meta = {"rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol,
            "rule": spec.rule.value, "mass": mass}
    return DensityCurve(ensemble=ensemble, abscissae=xs, values=values,
                        normalized=normalized, meta=meta)
