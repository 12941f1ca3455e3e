"""Adaptive quadrature engines.

Two rules behind one interface: adaptive Gauss-Kronrod (G7/K15) for smooth
integrands and tanh-sinh for algebraic endpoint singularities.  Integrands
must be vectorized: they receive a float ndarray and return an ndarray of
the same shape.  The one tanh-sinh engine, tanh_sinh_batch, integrates a
batch of rows at once, and its integrand also receives each node's row.

Double-precision note: with a plain f(x) calling convention, tanh-sinh
cannot place nodes closer to an endpoint than ~1e-16, so inverse-square-root
endpoint singularities carry an accuracy floor around 1e-8.  The error
estimate includes a truncation-tail term that reports this honestly.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergentError

_MIN_REL_TOL = 2.0 ** -50


class Rule(enum.Enum):
    GAUSS_KRONROD = "gauss-kronrod"
    TANH_SINH = "tanh-sinh"


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_depth: int = 16
    rule: Rule = Rule.GAUSS_KRONROD

    def __post_init__(self):
        if not (self.rel_tol > 0.0) or self.rel_tol < _MIN_REL_TOL:
            raise DomainError(
                f"rel_tol must satisfy 2^-50 <= rel_tol, got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise DomainError("abs_tol must be >= 0")
        if self.max_depth < 1:
            raise DomainError("max_depth must be a positive integer")

    def with_rule(self, rule: Rule) -> "QuadratureSpec":
        return QuadratureSpec(self.rel_tol, self.abs_tol, self.max_depth, rule)


@dataclass
class QuadratureResult:
    value: float
    err_est: float
    evaluations: int


# G7/K15 nodes and weights on [-1, 1].
GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813])
GK_WEIGHTS_K = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529])
GK_WEIGHTS_G = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870])


def _gk_eval(f, a, b, check_nan=True):
    """Evaluate K15 and |K15-G7| on a batch of intervals (a, b are arrays)."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    xs = mid + half * GK_NODES[None, :]
    fx = np.asarray(f(xs.ravel())).reshape(xs.shape)
    if check_nan and np.isnan(fx).any():
        raise DomainError("integrand returned NaN")
    ik = (fx * GK_WEIGHTS_K[None, :]).sum(axis=1) * half[:, 0]
    ig = (fx[:, 1::2] * GK_WEIGHTS_G[None, :]).sum(axis=1) * half[:, 0]
    return ik, np.abs(ik - ig)


def gauss_kronrod_adaptive(f, a: float, b: float, spec: QuadratureSpec,
                           check_nan: bool = True):
    """Globally adaptive G7/K15 bisection; works for real or complex f."""
    a_arr = np.array([a], dtype=float)
    b_arr = np.array([b], dtype=float)
    depth = np.array([0])
    vals, errs = _gk_eval(f, a_arr, b_arr, check_nan)
    evals = 15
    while True:
        total = vals.sum()
        err = float(errs.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if err <= tol:
            return total, err, evals
        bad = (errs > tol / (2 * max(len(vals), 1))) & (depth < spec.max_depth)
        if not bad.any():
            raise NonConvergentError(
                f"gauss-kronrod stalled at err={err:.3e} > tol={tol:.3e} "
                f"(max_depth={spec.max_depth})", value=total, err_est=err)
        aa, bb, dd = a_arr[bad], b_arr[bad], depth[bad]
        mm = 0.5 * (aa + bb)
        na = np.concatenate([aa, mm])
        nb = np.concatenate([mm, bb])
        nv, ne = _gk_eval(f, na, nb, check_nan)
        evals += 15 * len(na)
        a_arr = np.concatenate([a_arr[~bad], na])
        b_arr = np.concatenate([b_arr[~bad], nb])
        vals = np.concatenate([vals[~bad], nv])
        errs = np.concatenate([errs[~bad], ne])
        depth = np.concatenate([depth[~bad], np.concatenate([dd, dd]) + 1])


_PI_HALF = math.pi / 2.0
# Past this |t| the abscissa rounds onto the endpoint in double precision.
_TS_T_CAP = math.asinh(math.atanh(1.0 - 1e-15) / _PI_HALF)
# Nodes per integrand call in tanh_sinh_batch (whole rows; a row larger
# than this comes alone), which bounds the per-level working arrays.
_BLOCK_NODES = 1 << 12


@functools.lru_cache(maxsize=None)
def _ts_level(level: int):
    """Abscissae on (-1, 1) and weights added at tanh-sinh level `level`.

    Step h = 2^-level; level 0 holds every j h, later levels the odd j.
    The order is the summation order: t ascending on the positive side,
    then the mirrored side (t = 0 only once).  Cached, read-only.
    """
    h = 2.0 ** -level
    js = np.arange(0, int(_TS_T_CAP / h) + 1)
    if level > 0:
        js = js[js % 2 == 1]
    t = js * h
    u = _PI_HALF * np.sinh(t)
    x = np.tanh(u)
    w = _PI_HALF * np.cosh(t) / np.cosh(u) ** 2
    skip = 1 if level == 0 else 0
    xs = np.concatenate([x, -x[skip:]])
    ws = np.concatenate([w, w[skip:]])
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


def _pymax(a, b):
    # elementwise max(a, b) with Python's rule: b only if b > a
    return np.where(b > a, b, a)


def _row_stats(terms, nodes):
    """Sums and tail terms |t(max node)| + |t(min node)| of (rows, k) blocks.

    A C-contiguous row is added in the same pairwise order as that row's
    terms alone, and argmax/argmin take the first extreme node, as for a
    single row.
    """
    at = np.arange(len(terms))
    tails = (np.abs(terms[at, nodes.argmax(axis=1)])
             + np.abs(terms[at, nodes.argmin(axis=1)]))
    return terms.sum(axis=1), tails


def _ts_rows(f, xl, wl, rows, a, b, c, d):
    """One level's weighted sums, node counts and tail terms for rows;
    a, b, c, d are the rows' columns."""
    X = c + d * xl
    inside = (X > a) & (X < b)
    counts = inside.sum(axis=1)
    if np.count_nonzero(inside) == inside.size:
        fx = f(X.ravel(), np.repeat(rows, xl.size))
        if np.isnan(fx).any():
            raise DomainError("integrand returned NaN")
        sums, tails = _row_stats(fx.reshape(X.shape) * wl, X)
        return sums, counts, tails
    # nodes that round onto an endpoint are dropped; rows are grouped by
    # how many nodes they keep
    xs = X[inside]
    fx = f(xs, np.repeat(rows, counts))
    if np.isnan(fx).any():
        raise DomainError("integrand returned NaN")
    contrib = fx * np.broadcast_to(wl, X.shape)[inside]
    starts = np.cumsum(counts) - counts
    sums = np.zeros(len(rows))
    tails = np.zeros(len(rows))
    for k in set(counts.tolist()) - {0}:
        sel = np.flatnonzero(counts == k)
        idx = starts[sel, None] + np.arange(k)
        sums[sel], tails[sel] = _row_stats(contrib[idx], xs[idx])
    return sums, counts, tails


def tanh_sinh_batch(f, a, b, abs_tol, spec: QuadratureSpec, max_level: int = 12):
    """Tanh-sinh with level doubling over a batch of rows; endpoints are
    never evaluated.

    Row i integrates over (a[i], b[i]) to max(abs_tol[i], rel_tol |value|).
    f(x, row) receives flat float nodes, row by row in summation order,
    with each node's row index, and returns the integrand values as a float
    array; a level's running rows come in blocks of about _BLOCK_NODES
    nodes.  A row stops at its own level and leaves the batch, so each
    row's value, error and evaluation count are those of the row
    integrated alone.  Returns (value, err_est, evals) arrays; a row that
    misses its tolerance at the last level raises NonConvergentError (the
    first such row in row order).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    value = np.zeros(n)
    err_est = np.zeros(n)
    evals = np.zeros(n, dtype=np.int64)
    # state of the running rows, aligned with `rows`
    rows = np.arange(n)
    abs_tol = np.broadcast_to(np.asarray(abs_tol, dtype=float), a.shape)
    c = 0.5 * (a + b)
    d = 0.5 * (b - a)
    raw_sum, cur, prev, prev2, tail = (np.zeros(n) for _ in range(5))
    has_prev = np.zeros(n, dtype=bool)
    used = np.zeros(n, dtype=np.int64)
    h = 1.0
    for level in range(min(max_level, spec.max_depth) + 1):
        if not rows.size:
            break
        xl, wl = _ts_level(level)
        step = max(1, _BLOCK_NODES // xl.size)
        parts = [_ts_rows(f, xl, wl, rows[i:i + step], a[i:i + step, None],
                          b[i:i + step, None], c[i:i + step, None], d[i:i + step, None])
                 for i in range(0, rows.size, step)]
        sums, counts, tails = (np.concatenate(z) for z in zip(*parts))
        # a row whose nodes all rounded onto the endpoints skips the level
        live = counts > 0
        raw_sum += sums
        used += counts
        tail = np.where(live, tails, tail)
        dh = d * h
        cur = np.where(live, dh * raw_sum, cur)
        diff = _pymax(np.abs(cur - prev), 0.1 * np.abs(prev - prev2))
        err = diff + dh * tail
        done = live & has_prev & (err <= _pymax(abs_tol, spec.rel_tol * np.abs(cur)))
        going = live & ~done
        # a row's first value goes to prev2 as well, so 0.1 |prev - prev2|
        # counts only from its third live level on
        prev2 = np.where(going, np.where(has_prev, prev, cur), prev2)
        prev = np.where(going, cur, prev)
        has_prev |= going
        h /= 2.0
        if done.any():
            out = rows[done]
            value[out], err_est[out], evals[out] = cur[done], err[done], used[done]
            keep = ~done
            (rows, a, b, c, d, abs_tol, raw_sum, cur, prev, prev2, tail, has_prev,
             used) = (v[keep] for v in (rows, a, b, c, d, abs_tol, raw_sum, cur, prev,
                                        prev2, tail, has_prev, used))
    if rows.size:
        err = (np.where(has_prev, np.abs(cur - prev), np.abs(cur))
               + d * h * 2 * tail)
        tol = _pymax(abs_tol, spec.rel_tol * np.abs(cur))
        bad = np.flatnonzero(err > tol)
        if bad.size:
            i = bad[0]
            raise NonConvergentError(
                f"tanh-sinh stalled at err={err[i]:.3e} > tol={tol[i]:.3e}",
                value=float(cur[i]), err_est=float(err[i]))
        value[rows], err_est[rows], evals[rows] = cur, err, used
    return value, err_est, evals


def tanh_sinh_adaptive(f, a: float, b: float, spec: QuadratureSpec,
                       max_level: int = 12):
    """Tanh-sinh of a vectorized f(x) over (a, b): a batch of one row."""
    value, err, evals = tanh_sinh_batch(lambda x, _: np.asarray(f(x), dtype=float),
                                        [a], [b], spec.abs_tol, spec, max_level)
    return float(value[0]), float(err[0]), int(evals[0])


def integrate(f, a: float, b: float, spec: QuadratureSpec) -> QuadratureResult:
    """Integrate a vectorized real integrand over the finite interval (a, b).

    Endpoint algebraic singularities are only supported with the tanh-sinh
    rule.  Raises NonConvergentError when the tolerance cannot be met within
    max_depth, and DomainError if the integrand produces NaN.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise DomainError(f"need finite a < b, got a={a}, b={b}")
    if spec.rule is Rule.TANH_SINH:
        value, err, evals = tanh_sinh_adaptive(f, a, b, spec)
    else:
        value, err, evals = gauss_kronrod_adaptive(f, a, b, spec)
        value = float(value)
    return QuadratureResult(value=float(value), err_est=float(err), evaluations=evals)
