"""Sampling of the random matrix models and real-eigenvalue counting.

Real eigenvalues are classified structurally.  LAPACK's eigenvalue-only
Hessenberg QR iteration (geev) deflates to a quasi-triangular form with
1x1 blocks for real eigenvalues and 2x2 blocks standardized to carry a
conjugate pair, so a real eigenvalue has imaginary part exactly 0.0 and
no threshold is needed.

Reproducibility: trial t of a run draws from a Philox stream keyed by
(seed, t), so results are bit-identical for any thread count or schedule.
The trials of a chunk are then stacked, and sampled, multiplied and
counted in batched LAPACK/BLAS calls, one matrix per slice.
"""
from __future__ import annotations

import enum
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchurNoConvergenceError

_MAX_SCHUR_FAILURE_FRACTION = 1e-3
# Cap on the Gaussian draws stacked into one batch.  Larger batches save
# little per-call overhead and raise the peak memory of a run.
_BATCH_BYTES = 256 * 1024


class EnsembleKind(enum.Enum):
    TRUNCATED_ORTHOGONAL = "truncated-orthogonal"
    REAL_GINIBRE = "real-ginibre"


@dataclass(frozen=True)
class EnsembleSpec:
    """Product-matrix model: m factors of size N (truncation depth L)."""

    N: int
    L: int
    m: int
    kind: EnsembleKind = EnsembleKind.TRUNCATED_ORTHOGONAL

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("N must be a positive integer")
        if self.m < 1:
            raise DomainError("m must be a positive integer")
        if self.kind is EnsembleKind.TRUNCATED_ORTHOGONAL and self.L < 1:
            raise DomainError("truncated-orthogonal ensembles require L >= 1")
        if self.L < 0:
            raise DomainError("L must be non-negative")

    def to_dict(self):
        return {"N": self.N, "L": self.L, "m": self.m, "kind": self.kind.value}


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray

    def to_dict(self):
        return {"bin_edges": [float(e) for e in self.bin_edges],
                "counts": [int(c) for c in self.counts]}


@dataclass
class SimulationEstimate:
    """Monte Carlo mean with uncertainty and provenance."""

    mean: float
    stderr: float
    trials: int
    seed: int
    spec: EnsembleSpec
    histogram: Histogram | None = None
    schur_failures: int = 0

    def to_json(self) -> str:
        payload = {
            "mean": repr(float(self.mean)),
            "stderr": repr(float(self.stderr)),
            "trials": self.trials,
            "seed": self.seed,
            "spec": self.spec.to_dict(),
            "schur_failures": self.schur_failures,
        }
        if self.histogram is not None:
            payload["histogram"] = self.histogram.to_dict()
        return json.dumps(payload, indent=2, sort_keys=True)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based substream for one trial; depends only on (seed, trial)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _haar_columns(a: np.ndarray) -> np.ndarray:
    """Q factor of the reduced QR of each (n, k) slice of a, with the
    R-diagonal sign fix (Mezzadri 2007).

    QR of a Gaussian matrix alone is not Haar; the sign correction makes
    the distribution right-invariant.  Column j of Q depends only on
    columns 1..j of a, so the leading k columns of a Haar n x n matrix come
    from the leading k columns of its Gaussian draw.
    """
    q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0.0] = 1.0
    return q * d[..., None, :]


def sample_haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n orthogonal matrix."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    return _haar_columns(rng.standard_normal((n, n)))


def _draw_size(spec: EnsembleSpec) -> int:
    """Side of each factor's square Gaussian draw."""
    if spec.kind is EnsembleKind.TRUNCATED_ORTHOGONAL:
        return spec.N + spec.L
    return spec.N


def _products(spec: EnsembleSpec, draws: np.ndarray) -> np.ndarray:
    """Product matrices from stacked draws of shape (batch, m, n, n).

    A truncated factor is the top-left N x N block of the Haar matrix of
    its draw; Ginibre factors are scaled by N^(-1/2) so products stay in
    double range for large N*m.  Real-eigenvalue counts are scale-invariant
    and the scaled eigenvalues are the natural density variable.
    """
    N = spec.N
    out = None
    for k in range(spec.m):
        if spec.kind is EnsembleKind.TRUNCATED_ORTHOGONAL:
            factor = _haar_columns(draws[:, k, :, :N])[:, :N, :]
        else:
            factor = draws[:, k] / math.sqrt(N)
        out = factor if out is None else out @ factor
    return np.ascontiguousarray(out)


def sample_product(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of the m-factor product matrix: m square Gaussian blocks
    from rng, in factor order, made into factors as in _products."""
    n = _draw_size(spec)
    return _products(spec, rng.standard_normal((1, spec.m, n, n)))[0]


def _real_mask(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues come from 1x1 blocks; see the module docstring."""
    return np.imag(w) == 0.0


def _eigvals(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("need a square real matrix")
    if not np.isfinite(M).all():
        raise DomainError("matrix entries must be finite")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise SchurNoConvergenceError(
            f"QR iteration failed to converge ({exc})") from exc


def count_real_eigs(M: np.ndarray) -> int:
    """Number of real eigenvalues of M (1x1 blocks of its Schur form)."""
    return int(_real_mask(_eigvals(M)).sum())


def real_eigs(M: np.ndarray) -> np.ndarray:
    """The real eigenvalues of M, unordered."""
    w = _eigvals(M)
    return np.real(w)[_real_mask(w)]


def _count_each(M: np.ndarray, edges, hist) -> np.ndarray:
    """Counts of a batch one matrix at a time, after the batched call
    failed; -1 marks a matrix whose QR iteration did not converge."""
    counts = np.empty(len(M), dtype=np.int64)
    for i, A in enumerate(M):
        try:
            if edges is None:
                counts[i] = count_real_eigs(A)
            else:
                ev = real_eigs(A)
                counts[i] = len(ev)
                hist += np.histogram(ev, bins=edges)[0]
        except SchurNoConvergenceError:
            counts[i] = -1
    return counts


def _run_trials(spec, seed, t0, t1, edges):
    """Counts of trials t0..t1-1 (-1 for a failed trial), the histogram of
    their real eigenvalues over edges (or None), and the failed trials."""
    n = _draw_size(spec)
    batch = max(1, _BATCH_BYTES // (spec.m * n * n * 8))
    counts = np.empty(t1 - t0, dtype=np.int64)
    hist = np.zeros(len(edges) - 1, dtype=np.int64) if edges is not None else None
    # one generator, re-keyed to (seed, t) for each trial: the stream of
    # trial_rng(seed, t) without the OS-entropy seeding that every new
    # Philox(key=...) does before its key replaces it
    rng = trial_rng(seed, t0)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, t0], dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for b0 in range(t0, t1, batch):
        b1 = min(b0 + batch, t1)
        draws = np.empty((b1 - b0, spec.m, n, n))
        for i in range(b1 - b0):
            key[1] = b0 + i
            rng.bit_generator.state = state
            rng.standard_normal(out=draws[i])
        M = _products(spec, draws)
        try:
            w = np.linalg.eigvals(M)
        except np.linalg.LinAlgError:
            counts[b0 - t0:b1 - t0] = _count_each(M, edges, hist)
            continue
        real = _real_mask(w)
        counts[b0 - t0:b1 - t0] = real.sum(axis=1)
        if edges is not None:
            hist += np.histogram(np.real(w)[real], bins=edges)[0]
    ok = counts >= 0
    bad = ok & (((counts - spec.N) % 2 != 0) | (counts > spec.N))
    if bad.any():
        raise AssertionError(
            f"parity invariant violated: {counts[bad][0]} real eigenvalues "
            f"at N={spec.N}")
    failures = (t0 + np.flatnonzero(~ok)).tolist()
    return counts, hist, failures


def _welford(values) -> tuple[float, float]:
    """Single-pass stable mean/variance in fixed element order."""
    mean = 0.0
    m2 = 0.0
    k = 0
    for v in values:
        v = float(v)
        k += 1
        d = v - mean
        mean += d / k
        m2 += d * (v - mean)
    if k < 2:
        return mean, 0.0
    return mean, math.sqrt(m2 / (k - 1)) / math.sqrt(k)


def estimate_expected_real(spec: EnsembleSpec, trials: int, seed: int,
                           threads: int = 1, bins=None) -> SimulationEstimate:
    """Monte Carlo estimate of the expected number of real eigenvalues.

    Optionally accumulates a histogram of real-eigenvalue positions over
    the given bin edges.  Output is bit-identical for any thread count.
    """
    if trials < 100:
        raise DomainError("trials must be at least 100")
    if threads < 1:
        raise DomainError("threads must be a positive integer")
    edges = np.asarray(bins, dtype=float) if bins is not None else None
    chunk = max(64, math.ceil(trials / (threads * 8)))
    ranges = [(t0, min(t0 + chunk, trials)) for t0 in range(0, trials, chunk)]
    if threads == 1:
        parts = [_run_trials(spec, seed, t0, t1, edges) for t0, t1 in ranges]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futs = [pool.submit(_run_trials, spec, seed, t0, t1, edges)
                    for t0, t1 in ranges]
            parts = [f.result() for f in futs]
    counts = np.concatenate([p[0] for p in parts])
    failures = sum(len(p[2]) for p in parts)
    if failures > _MAX_SCHUR_FAILURE_FRACTION * trials:
        raise SchurNoConvergenceError(
            f"{failures} of {trials} trials failed the Schur factorization")
    good = counts[counts >= 0]
    mean, stderr = _welford(good)
    hist = None
    if edges is not None:
        total = np.zeros(len(edges) - 1, dtype=np.int64)
        for p in parts:
            total += p[1]
        hist = Histogram(bin_edges=edges, counts=total)
    return SimulationEstimate(mean=mean, stderr=stderr, trials=trials,
                              seed=seed, spec=spec, histogram=hist,
                              schur_failures=failures)


def histogram_csv_lines(est: SimulationEstimate) -> list[str]:
    """CSV rows (bin_left, bin_right, count, normalized_value).

    normalized_value integrates to one over the binned range: counts are
    divided by (total real eigenvalues collected x bin width).
    """
    if est.histogram is None:
        raise DomainError("estimate carries no histogram")
    edges = est.histogram.bin_edges
    counts = est.histogram.counts
    total = counts.sum()
    lines = ["bin_left,bin_right,count,normalized_value"]
    for i, c in enumerate(counts):
        width = edges[i + 1] - edges[i]
        norm = float(c / (total * width)) if total > 0 else 0.0
        lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)},{norm!r}")
    return lines
