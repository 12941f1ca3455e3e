import json
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

from realeig import (EnsembleKind, EnsembleSpec, QuadratureSpec, Rule,
                     SeriesParams, count_real_eigs, estimate_expected_real,
                     expected_real_quadrature, real_eigs,
                     sample_haar_orthogonal, sample_product, trial_rng)
from realeig import montecarlo
from realeig.errors import DomainError
from realeig.montecarlo import histogram_csv_lines
from conftest import SEED


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_ensemble_spec_validation():
    with pytest.raises(DomainError):
        EnsembleSpec(4, 0, 1, EnsembleKind.TRUNCATED_ORTHOGONAL)
    EnsembleSpec(4, 0, 1, EnsembleKind.REAL_GINIBRE)
    with pytest.raises(DomainError):
        EnsembleSpec(0, 2, 1)


def test_haar_orthogonality_residual():
    worst = 0.0
    for t in range(100):
        q = sample_haar_orthogonal(30, trial_rng(SEED, t))
        worst = max(worst, float(np.abs(q.T @ q - np.eye(30)).max()))
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-10
    assert worst <= 1e-12


def test_haar_first_entry_second_moment():
    # entries of a Haar matrix column are coordinates of a uniform unit
    # vector: E[Q_11^2] = 1/n
    n = 10
    draws = 10 ** 5
    rng = trial_rng(SEED, 0)
    g = rng.standard_normal((draws, n))
    q11_sq = (g[:, 0] / np.linalg.norm(g, axis=1)) ** 2
    mc = q11_sq.mean()
    se = q11_sq.std(ddof=1) / math.sqrt(draws)
    assert abs(mc - 1.0 / n) <= 3.0 * se
    # and the same moment measured on actual QR-sampled matrices
    vals = np.array([sample_haar_orthogonal(n, trial_rng(SEED, t))[0, 0] ** 2
                     for t in range(4000)])
    assert abs(vals.mean() - 1.0 / n) <= 4.0 * vals.std(ddof=1) / math.sqrt(4000)


def test_truncated_factor_is_contraction():
    spec = EnsembleSpec(5, 3, 1)
    for t in range(50):
        M = sample_product(spec, trial_rng(SEED, t))
        assert np.linalg.norm(M, 2) <= 1.0 + 1e-10


def test_heavy_truncation_approaches_gaussian_entries():
    # L >> N: sqrt(L) x truncation has nearly independent N(0,1) entries;
    # kurtosis of a Haar column entry is 3 T/(T+2) with T = N + L
    N, L, draws = 5, 250, 10 ** 4
    vals = np.empty((draws, N * N))
    for t in range(draws):
        # the leading N columns of the Haar matrix come from the leading N
        # columns of its (N+L) x (N+L) Gaussian draw
        draw = trial_rng(SEED, t).standard_normal((N + L, N + L))
        cols = montecarlo._haar_columns(draw[:, :N])
        vals[t] = (math.sqrt(L) * cols[:N]).ravel()
    flat = vals.ravel()
    kurt = (flat ** 4).mean() / (flat ** 2).mean() ** 2
    # entries within one draw are weakly dependent; inflate the iid sigma
    sigma = math.sqrt(24.0 / flat.size) * 1.5
    assert abs(kurt - 3.0) <= 3.0 * sigma + 3.0 * 2.0 / (N + L + 2)


def test_product_determinant_multiplicative():
    spec = EnsembleSpec(6, 2, 3)
    rng = trial_rng(SEED, 1)
    factors = []
    out = None
    for _ in range(3):
        big = sample_haar_orthogonal(8, rng)
        f = big[:6, :6]
        factors.append(f)
        out = f if out is None else out @ f
    want = np.prod([np.linalg.det(f) for f in factors])
    assert np.linalg.det(out) == pytest.approx(want, rel=1e-8)


def test_count_real_eigs_trivial_matrices():
    assert count_real_eigs(np.eye(3)) == 3
    assert count_real_eigs(rotation(math.pi / 2)) == 0
    assert count_real_eigs(np.array([[0.0, 1.0], [1.0, 0.0]])) == 2


def test_real_eigs_values():
    got = sorted(real_eigs(np.diag([0.5, -0.25])))
    assert got == pytest.approx([-0.25, 0.5])
    block = np.zeros((3, 3))
    block[:2, :2] = rotation(math.pi / 3)
    block[2, 2] = 0.7
    assert list(real_eigs(block)) == pytest.approx([0.7])


def test_real_eigs_of_truncated_product_lie_inside_unit_interval():
    spec = EnsembleSpec(6, 2, 2)
    for t in range(200):
        ev = real_eigs(sample_product(spec, trial_rng(SEED, t)))
        assert np.all(np.abs(ev) < 1.0)


def test_count_scale_invariance():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        M = rng.standard_normal((7, 7))
        c = count_real_eigs(M)
        assert count_real_eigs(0.1 * M) == c
        assert count_real_eigs(10.0 * M) == c


def test_counts_match_exact_formula_small_case():
    est = estimate_expected_real(EnsembleSpec(2, 2, 1), trials=20000, seed=SEED)
    exact = 4.0 / 3.0
    assert abs(est.mean - exact) <= 3.0 * est.stderr


def test_estimate_determinism_across_threads():
    spec = EnsembleSpec(3, 2, 1)
    outs = [estimate_expected_real(spec, 600, SEED, threads=k,
                                   bins=np.linspace(-1, 1, 11)).to_json()
            for k in (1, 4, 16)]
    assert outs[0] == outs[1] == outs[2]


def test_moments_are_exact_integer_moments():
    counts = 2 * np.random.default_rng(SEED).integers(0, 5, 1001) + 1
    mean, stderr = montecarlo._moments(counts)
    assert mean == float(Fraction(int(counts.sum()), counts.size))
    want = math.sqrt(statistics.variance(counts.tolist()) / counts.size)
    assert stderr == pytest.approx(want, rel=1e-15)


def test_estimate_seed_sensitivity():
    spec = EnsembleSpec(3, 2, 1)
    a = estimate_expected_real(spec, 600, SEED)
    b = estimate_expected_real(spec, 600, SEED + 1)
    assert a.mean != b.mean or a.stderr != b.stderr


def test_estimate_rejects_tiny_runs():
    with pytest.raises(DomainError):
        estimate_expected_real(EnsembleSpec(2, 2, 1), trials=10, seed=SEED)


def test_histogram_export_lines():
    est = estimate_expected_real(EnsembleSpec(4, 2, 1), trials=2000, seed=SEED,
                                 bins=np.linspace(-1, 1, 5))
    lines = histogram_csv_lines(est)
    assert lines[0] == "bin_left,bin_right,count,normalized_value"
    total_mass = 0.0
    for row in lines[1:]:
        left, right, count, norm = row.split(",")
        total_mass += float(norm) * (float(right) - float(left))
    assert total_mass == pytest.approx(1.0, rel=1e-12)


def test_estimate_json_round_trip_fields():
    est = estimate_expected_real(EnsembleSpec(4, 2, 1, EnsembleKind.REAL_GINIBRE),
                                 trials=500, seed=SEED)
    payload = json.loads(est.to_json())
    assert payload["trials"] == 500
    assert payload["spec"]["kind"] == "real-ginibre"
    assert float(payload["mean"]) == est.mean


def test_million_trial_parity_and_histogram_convergence(million_trials_821):
    """Empirical density against the exact kernel density, 40 bins, 3 sigma.

    Parity (count = N mod 2) is asserted on every one of the 1e6 trials
    inside the sampler; reaching this point certifies zero violations.
    """
    est = million_trials_821
    assert est.schur_failures == 0
    p = SeriesParams(8, 2, 1)
    spec = QuadratureSpec(rel_tol=1e-9, rule=Rule.TANH_SINH)
    from realeig.quadrature import tanh_sinh_adaptive

    edges = est.histogram.bin_edges
    counts = est.histogram.counts
    total = counts.sum()
    bad = 0
    for i in range(len(counts)):
        f = lambda x: np.array([density_rho_cached(float(v), p, spec)
                                for v in x])
        mass_i, _, _ = tanh_sinh_adaptive(f, edges[i], edges[i + 1],
                                          QuadratureSpec(rel_tol=1e-7,
                                                         rule=Rule.TANH_SINH))
        frac = mass_i / _mass(p, spec)
        expected = total * frac
        sigma = math.sqrt(max(expected * (1 - frac), 1.0))
        if abs(counts[i] - expected) > 3.0 * sigma:
            bad += 1
    assert bad <= 2


_density_cache = {}
_mass_cache = {}


def density_rho_cached(x, p, spec):
    from realeig import density_rho
    key = (x, p.N, p.L, p.m)
    if key not in _density_cache:
        _density_cache[key] = density_rho(x, p, spec)
    return _density_cache[key]


def _mass(p, spec):
    from realeig.exactdensity import density_mass
    key = (p.N, p.L, p.m)
    if key not in _mass_cache:
        _mass_cache[key] = density_mass(p, spec)
    return _mass_cache[key]


def test_density_histogram_single_cell_second_ensemble():
    # one-cell check at a different parameter point: cell (0.175, 0.225)
    p = SeriesParams(6, 4, 1)
    spec = QuadratureSpec(rel_tol=1e-8, rule=Rule.TANH_SINH)
    from realeig.quadrature import tanh_sinh_adaptive

    est = estimate_expected_real(EnsembleSpec(6, 4, 1), trials=10 ** 6,
                                 seed=SEED + 7,
                                 bins=np.array([0.175, 0.225]))
    count = float(est.histogram.counts[0])
    f = lambda x: np.array([density_rho_cached(float(v), p, spec) for v in x])
    cell_mass, _, _ = tanh_sinh_adaptive(f, 0.175, 0.225,
                                         QuadratureSpec(rel_tol=1e-7,
                                                        rule=Rule.TANH_SINH))
    expected = est.trials * cell_mass
    sigma = math.sqrt(expected)
    assert abs(count - expected) <= 3.0 * sigma


def test_ginibre_counts_against_sqrt_law():
    for m in (1, 2):
        est = estimate_expected_real(
            EnsembleSpec(50, 0, m, EnsembleKind.REAL_GINIBRE),
            trials=10 ** 4, seed=SEED + m)
        target = math.sqrt(2.0 * 50 * m / math.pi)
        assert abs(est.mean - target) <= max(3.0 * est.stderr, 1.0)


def test_batch_size_does_not_change_results(monkeypatch):
    edges = np.linspace(-1.0, 1.0, 9)
    specs = [EnsembleSpec(8, 2, 1), EnsembleSpec(5, 3, 2),
             EnsembleSpec(6, 0, 2, EnsembleKind.REAL_GINIBRE)]
    batched = [estimate_expected_real(s, 500, SEED, bins=edges).to_json()
               for s in specs]
    monkeypatch.setattr(montecarlo, "_BATCH_BYTES", 1)
    single = [estimate_expected_real(s, 500, SEED, bins=edges).to_json()
              for s in specs]
    assert batched == single
    # the per-trial loop is the reference for the stacked counts
    for s in specs:
        counts, _, _ = montecarlo._run_trials(s, SEED, 0, 200, None)
        want = [count_real_eigs(sample_product(s, trial_rng(SEED, t)))
                for t in range(200)]
        assert counts.tolist() == want


def test_pooled_streams_draw_trial_rng_streams(monkeypatch):
    seen = []
    products = montecarlo._products

    def record(spec, draws):
        seen.append(draws.copy())
        return products(spec, draws)

    monkeypatch.setattr(montecarlo, "_products", record)
    for seed in (SEED, -1, 2 ** 64 + 7):
        for m in (1, 2):
            spec = EnsembleSpec(5, 2, m)
            seen.clear()
            montecarlo._run_trials(spec, seed, 37, 137, None)
            want = np.stack([trial_rng(seed, t).standard_normal((m, 7, 7))
                             for t in range(37, 137)])
            assert np.concatenate(seen).tobytes() == want.tobytes()
    monkeypatch.undo()
    edges = np.linspace(-1.0, 1.0, 9)
    for m in (1, 2):
        outs = [estimate_expected_real(EnsembleSpec(5, 2, m), 700, SEED, threads=k,
                                       bins=edges).to_json() for k in (1, 3)]
        assert outs[0] == outs[1]


def test_leading_column_qr_matches_full_haar_truncation():
    for N, L, m in ((5, 3, 1), (8, 2, 2), (20, 20, 1)):
        for t in range(30):
            got = sample_product(EnsembleSpec(N, L, m), trial_rng(SEED, t))
            rng = trial_rng(SEED, t)
            want = np.eye(N)
            for _ in range(m):
                want = want @ sample_haar_orthogonal(N + L, rng)[:N, :N]
            assert np.abs(got - want).max() <= 1e-13


def test_counts_match_real_schur_blocks():
    # reference: 1x1 blocks of the full real Schur form (LAPACK gees)
    from scipy.linalg import schur
    for spec in (EnsembleSpec(8, 2, 1), EnsembleSpec(6, 0, 2, EnsembleKind.REAL_GINIBRE)):
        for t in range(500):
            M = sample_product(spec, trial_rng(SEED, t))
            T = schur(M, output="real")[0]
            pairs = int((np.diagonal(T, offset=-1) != 0.0).sum())
            assert count_real_eigs(M) == spec.N - 2 * pairs


def test_schur_failure_falls_back_to_single_matrices(monkeypatch):
    spec = EnsembleSpec(8, 2, 1)
    edges = np.linspace(-1.0, 1.0, 9)
    want, want_hist, _ = montecarlo._run_trials(spec, SEED, 0, 1000, edges)
    bad = sample_product(spec, trial_rng(SEED, 300))
    bad_hist = np.histogram(real_eigs(bad), bins=edges)[0]
    eigvals = np.linalg.eigvals
    raised = {2: 0, 3: 0}

    def flaky(a):
        # the batch holding trial 300 fails, then trial 300 fails alone
        if (np.asarray(a) == bad).all(axis=(-2, -1)).any():
            raised[np.ndim(a)] += 1
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    counts, hist, failed = montecarlo._run_trials(spec, SEED, 0, 1000, edges)
    assert raised == {2: 1, 3: 1} and failed == [300] and counts[300] == -1
    assert np.array_equal(np.delete(counts, 300), np.delete(want, 300))
    assert np.array_equal(hist, want_hist - bad_hist)
    est = estimate_expected_real(spec, 1000, SEED, bins=edges)
    assert est.schur_failures == 1
    assert np.array_equal(est.histogram.counts, want_hist - bad_hist)
    assert est.mean == pytest.approx(np.delete(want, 300).mean(), rel=1e-14)
