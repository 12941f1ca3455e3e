import logging
import math

import numpy as np
import pytest
import scipy.special

from realeig import (QuadratureSpec, Rule, ginibre_weight,
                     ginibre_weight_asymptotic, weight_asymptotic,
                     weight_base, weight_product, weight_table)
from realeig import quadrature, weights
from realeig.errors import DomainError, NonConvergentError
from realeig.quadrature import tanh_sinh_adaptive
from realeig.weights import (log_gin_mass, log_weight_mass,
                             mellin_weight_crosscheck)
from conftest import SEED, monotone_with_slack

MASS_GRID = [(L, m) for L in (1, 2, 3, 4) for m in (1, 2, 3)]


def mass_target(L, m):
    return math.exp(log_weight_mass(L, m))


def numeric_mass(L, m):
    if m == 1:
        f = lambda x: np.array([weight_base(float(v), L).to_real() for v in x])
    else:
        table = weight_table(L, m)
        f = lambda x: np.exp(table.log_weight(x))
    v, _, _ = tanh_sinh_adaptive(f, 0.0, 1.0,
                                 QuadratureSpec(rel_tol=1e-9, rule=Rule.TANH_SINH))
    return 2.0 * v


def test_weight_base_values():
    assert weight_base(0.3, 2).to_real() == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert weight_base(-0.3, 2).to_real() == pytest.approx(
        weight_base(0.3, 2).to_real(), rel=1e-15)
    assert weight_base(1.0, 4).sign == 0
    with pytest.raises(DomainError):
        weight_base(1.0, 1)
    with pytest.raises(DomainError):
        weight_base(1.5, 2)


def test_weight_product_reduces_to_base():
    assert weight_product(0.3, 2, 1).to_real() == pytest.approx(
        math.sqrt(0.5), rel=1e-12)


def test_weight_product_closed_forms():
    """Hand-derived inverses of the power of the base Mellin transform."""
    xs = np.array([0.03, 0.1, 0.3, 0.5, 0.7, 0.9])
    t22 = weight_table(2, 2)
    assert np.allclose(np.exp(t22.log_weight(xs)), np.log(1.0 / xs), rtol=3e-5)
    t23 = weight_table(2, 3)
    assert np.allclose(np.exp(t23.log_weight(xs)),
                       np.log(1.0 / xs) ** 2 / math.sqrt(2.0), rtol=1e-4)
    t42 = weight_table(4, 2)
    assert np.allclose(np.exp(t42.log_weight(xs)),
                       3.0 * ((1 + xs ** 2) * np.log(1.0 / xs) - (1 - xs ** 2)),
                       rtol=3e-5)


@pytest.mark.parametrize("L,m", MASS_GRID)
def test_mass_identity(L, m):
    assert numeric_mass(L, m) == pytest.approx(mass_target(L, m), rel=1e-6)


def test_mass_example_value():
    assert mass_target(2, 2) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("L,m", [(L, m) for L in (1, 2, 3, 4) for m in (1, 2, 3)])
def test_evenness(L, m):
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(1e-3, 0.999, 100)
    if m == 1:
        a = np.array([weight_product(float(v), L, 1).log_mag for v in xs])
        b = np.array([weight_product(float(-v), L, 1).log_mag for v in xs])
    else:
        table = weight_table(L, m)
        a = table.log_weight(xs)
        b = table.log_weight(-xs)
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_weight_table_disk_cache_round_trip(tmp_path):
    from realeig import cache, weights

    table = weight_table(2, 2)
    spec = weights.DEFAULT_SPEC
    path = cache.save_weight_table(tmp_path, table, table.grid.size, spec)
    assert path.exists()
    loaded = cache.load_weight_table(tmp_path, "truncated", 2, 2,
                                     table.grid.size, spec)
    assert loaded is not None
    assert np.array_equal(loaded.log_values, table.log_values)
    assert np.array_equal(loaded.grid, table.grid)
    assert loaded.kind == table.kind
    assert cache.load_weight_table(tmp_path, "truncated", 9, 9, 512,
                                   spec) is None


def test_weight_table_keyed_by_spec(tmp_path):
    from realeig import cache

    loose = QuadratureSpec(rel_tol=1e-3, rule=Rule.TANH_SINH)
    tight = QuadratureSpec(rel_tol=1e-4, rule=Rule.TANH_SINH)
    table = weight_table(2, 2, loose)
    other = weight_table(2, 2, tight)
    assert other is not table
    assert not np.array_equal(other.log_values, table.log_values)
    assert weight_table(2, 2, QuadratureSpec(rel_tol=1e-3, rule=Rule.TANH_SINH)) is table
    n = table.grid.size
    cache.save_weight_table(tmp_path, table, n, loose)
    assert cache.load_weight_table(tmp_path, "truncated", 2, 2, n, tight) is None
    loaded = cache.load_weight_table(tmp_path, "truncated", 2, 2, n, loose)
    assert np.array_equal(loaded.log_values, table.log_values)


def test_weight_table_built_once_for_concurrent_callers(monkeypatch):
    import sys
    import threading

    from realeig import weights

    builds = []
    real_build = weights._build_table

    def counting_build(*args):
        builds.append(args)
        return real_build(*args)

    monkeypatch.setattr(weights, "_build_table", counting_build)
    spec = QuadratureSpec(rel_tol=2e-4, rule=Rule.TANH_SINH)
    results = []
    threads = [threading.Thread(target=lambda: results.append(weight_table(2, 2, spec)))
               for _ in range(6)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6 and all(r is results[0] for r in results)
    assert len(builds) == 1


def test_grid_nodes_reproduced_exactly():
    table = weight_table(2, 2)
    got = table._spline(table.grid)
    assert np.array_equal(np.asarray(got), table.log_values) or \
        np.allclose(got, table.log_values, rtol=0, atol=1e-14)
    assert all(v.sign == 1 for v in table.signed_values())


def test_weight_signaling_infinity_at_zero():
    v = weight_product(0.0, 2, 2)
    assert v.sign == 1 and v.is_infinite


def test_histogram_of_scalar_products_matches_weight():
    """1e6 products of m Beta-type scalars against the normalized weight."""
    L, m = 3, 2
    rng = np.random.default_rng(SEED)
    y = 2.0 * rng.beta(L / 2.0, L / 2.0, size=(10 ** 6, m)) - 1.0
    prod = y.prod(axis=1)
    edges = np.linspace(-1.0, 1.0, 41)
    counts, _ = np.histogram(prod, bins=edges)
    table = weight_table(L, m)
    spec = QuadratureSpec(rel_tol=1e-8, rule=Rule.TANH_SINH)
    dens = lambda x: np.exp(table.log_weight(x)) / mass_target(L, m)
    n = len(prod)
    z = []
    for a, b in zip(edges[:-1], edges[1:]):
        cell_mass, _, _ = tanh_sinh_adaptive(dens, a, b, spec)
        expected = n * cell_mass
        sigma = math.sqrt(expected * (1 - cell_mass))
        idx = len(z)
        z.append(abs(counts[idx] - expected) / sigma)
    assert sum(v < 3.0 for v in z) >= 38
    assert max(z) < 6.0


def test_weight_asymptotic_matches_base_at_L2():
    assert weight_asymptotic(0.5, 2, 1).to_real() == pytest.approx(
        math.sqrt(0.5), rel=1e-12)
    assert weight_asymptotic(0.5, 2, 1).to_real() == pytest.approx(
        weight_base(0.5, 2).to_real(), rel=1e-12)


def test_weight_asymptotic_error_decays_in_L():
    gaps = []
    for L in (8, 16, 32, 64):
        table = weight_table(L, 2)
        exact = float(table.log_weight(np.array([0.5]))[0])
        asy = weight_asymptotic(0.5, L, 2).log_mag
        gaps.append(abs(math.exp(asy - exact) - 1.0))
    assert monotone_with_slack(gaps)
    assert gaps[-1] < gaps[0]


def test_weight_asymptotic_positive_and_domain():
    assert weight_asymptotic(0.25, 3, 2).sign == 1
    with pytest.raises(DomainError):
        weight_asymptotic(0.0, 3, 2)
    with pytest.raises(DomainError):
        weight_asymptotic(1.0, 3, 2)


def test_ginibre_weight_gaussian_case():
    assert ginibre_weight(1.2, 1).to_real() == pytest.approx(
        math.exp(-0.72), rel=1e-12)


def test_ginibre_weight_two_factor_bessel_oracle():
    # product of two standard Gaussians: w(t) = 2 K0(|t|)
    for t in (0.25, 1.0, 2.0, 4.0):
        want = 2.0 * scipy.special.k0(t)
        assert ginibre_weight(t, 2).to_real() == pytest.approx(want, rel=1e-7)


def test_ginibre_weight_mass():
    table = weight_table(1, 2, kind="ginibre")
    f = lambda t: np.exp(table.log_weight(t))
    v, _, _ = tanh_sinh_adaptive(f, 0.0, 60.0,
                                 QuadratureSpec(rel_tol=1e-9, rule=Rule.TANH_SINH))
    assert 2.0 * v == pytest.approx(math.exp(log_gin_mass(2)), rel=1e-6)
    assert math.exp(log_gin_mass(2)) == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_ginibre_weight_signaling_infinity_at_zero():
    assert ginibre_weight(0.0, 2).is_infinite


def test_ginibre_asymptotic_m1_exact():
    # all m-1 factors drop: exp(-N x^2 / 2)
    v = ginibre_weight_asymptotic(0.5, 4, 1)
    assert v.to_real() == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_ginibre_asymptotic_error_decays_in_N():
    gaps = []
    x, m = 0.6, 2
    table = weight_table(1, m, kind="ginibre")
    for N in (16, 32, 64):
        t = N ** (m / 2.0) * x
        exact = float(table.log_weight(np.array([t]))[0])
        asy = ginibre_weight_asymptotic(x, N, m).log_mag
        gaps.append(abs(math.exp(asy - exact) - 1.0))
    assert monotone_with_slack(gaps, violations_allowed=0)


def test_ginibre_asymptotic_positive():
    assert ginibre_weight_asymptotic(0.3, 8, 3).sign == 1
    with pytest.raises(DomainError):
        ginibre_weight_asymptotic(0.0, 8, 3)


def test_mellin_crosscheck_validates_tables():
    worst = mellin_weight_crosscheck(2, 2, [k / 11.0 for k in range(1, 11)])
    assert worst < 1e-4


@pytest.mark.parametrize("err_est", [1e-9, 1e-3])
def test_unconverged_convolution_panel_is_logged_or_raised(monkeypatch, caplog,
                                                           err_est):
    # every panel stalls at value 0.5 with the given error estimate
    def stalled(f, a, b, abs_tol, spec):
        n = len(a)
        raise NonConvergentError("stalled", value=0.5, err_est=err_est,
                                 values=np.full(n, 0.5), err_ests=np.full(n, err_est),
                                 failed_rows=np.arange(n))

    monkeypatch.setattr(weights, "tanh_sinh_batch", stalled)
    convolve = lambda: weights._convolve_level(
        np.array([0.3]), 2, 2, lambda u: weights._log_base_array(u, 2),
        weights.DEFAULT_SPEC, "truncated")
    if err_est > 1e-6 * 0.5:
        with pytest.raises(NonConvergentError):
            convolve()
        return
    with caplog.at_level(logging.DEBUG, logger="realeig.weights"):
        value, = convolve()
    assert math.isfinite(value)
    records = [r for r in caplog.records if r.name == "realeig.weights"]
    panels = [r.getMessage() for r in records if r.levelno == logging.DEBUG]
    assert len(panels) == 2  # one per panel
    summary, = [r.getMessage() for r in records if r.levelno == logging.WARNING]
    assert "accepted 2 unconverged panels" in summary
    for msg in panels + [summary]:
        assert "x=0.3" in msg and "value 0.5" in msg and "error estimate 1e-09" in msg


def _reference_table(L, m, n, spec, kind):
    """The per-node build: each node's two panels in a batch of their own,
    run again one by one when that batch raises.  Returns the table and the
    accepted panels as (x, a, b, value, err_est)."""
    accepted = []

    def panel(f, a, b, x):
        try:
            return tanh_sinh_adaptive(f, a, b, spec)[0]
        except NonConvergentError as exc:
            if exc.value is None or not exc.err_est <= 1e-6 * abs(exc.value):
                raise
            accepted.append((float(x), float(a), float(b), float(exc.value),
                             float(exc.err_est)))
            return exc.value

    def convolve(x, prev_logw):
        if kind == "truncated":
            lo, hi = x, 1.0
            base = lambda y: weights._log_base_array(y, L)
        else:
            hi = 45.0
            lo = x / hi
            base = lambda y: -0.5 * np.asarray(y) ** 2
        mid = math.sqrt(x) if lo < math.sqrt(x) < hi else 0.5 * (lo + hi)
        scale = float(prev_logw(np.array([x / mid]))[0] + base(np.array([mid]))[0])

        def f(y):
            y = np.asarray(y)
            return np.exp(prev_logw(x / y) + base(y) + math.log(2.0) - np.log(y) - scale)

        panels = ((lo, mid), (mid, hi))
        try:
            values, _, _ = quadrature.tanh_sinh_batch(
                lambda y, _: f(y), *zip(*panels), spec.abs_tol, spec)
        except NonConvergentError:
            values = [panel(f, a, b, x) for a, b in panels]
        total = 0.0
        for v in values:
            total += v
        assert total > 0.0
        return scale + math.log(total)

    xi_scale = 1.0 if kind == "truncated" else weights._GIN_XI_MAX
    xi = weights._chebyshev_grid(n, xi_scale)
    if kind == "truncated":
        prev_logw = lambda u: weights._log_base_array(u, L)
    else:
        prev_logw = lambda u: -0.5 * np.asarray(u) ** 2
    for level in range(2, m + 1):
        vals = np.empty(n)
        for i, xv in enumerate(xi ** level):
            vals[i] = convolve(xv, prev_logw)
        table = weights.WeightTable(L=L, m=level, grid=xi, log_values=vals,
                                    kind=kind, xi_scale=xi_scale)
        prev_logw = table.log_weight
    return table, accepted


@pytest.mark.parametrize("L,m,rel_tol,kind", [
    (2, 2, None, "truncated"), (3, 2, None, "truncated"), (2, 3, None, "truncated"),
    (1, 2, None, "truncated"), (1, 2, 3e-9, "truncated"), (1, 2, None, "ginibre")])
def test_batched_build_matches_per_node_reference(caplog, L, m, rel_tol, kind):
    spec = (weights.DEFAULT_SPEC if rel_tol is None
            else QuadratureSpec(rel_tol=rel_tol, rule=Rule.TANH_SINH))
    want, want_accepted = _reference_table(L, m, weights.DEFAULT_GRID_SIZE, spec, kind)
    with caplog.at_level(logging.DEBUG, logger="realeig.weights"):
        got = weights._build_table(L, m, weights.DEFAULT_GRID_SIZE, spec, kind)
    records = [r for r in caplog.records if r.name == "realeig.weights"]
    accepted = [r.args for r in records if r.levelno == logging.DEBUG]
    assert got.grid.tobytes() == want.grid.tobytes()
    assert got.log_values.tobytes() == want.log_values.tobytes()
    assert accepted == want_accepted
    # L = 1 accepts panels on every build, each level with one summary
    assert bool(accepted) == (L == 1 and kind == "truncated")
    assert sum(r.levelno == logging.WARNING for r in records) == bool(accepted)


def test_import_leaves_scipy_interpolate_unloaded(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import realeig

    code = ("import sys\n"
            "import realeig, realeig.cli\n"
            "def heavy():\n"
            "    return [name for name in ('scipy.interpolate', 'scipy.optimize',\n"
            "            'scipy.linalg') if name in sys.modules]\n"
            "assert not heavy(), heavy()\n"
            "table = realeig.weight_table(2, 2)\n"
            "assert not heavy(), heavy()\n"
            "code = realeig.cli.main(['expected', '--N', '6', '--L', '2', '--m', '2',\n"
            "                         '--methods', 'quadrature',\n"
            "                         '--cache-dir', sys.argv[1], '--out', sys.argv[2]])\n"
            "assert code == 0, code\n"
            "assert not heavy(), heavy()\n"
            "print(float(table.log_weight([0.5])[0]))\n")
    src = Path(realeig.__file__).resolve().parents[1]
    out = tmp_path / "expected.csv"
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(out)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert float(last) == pytest.approx(math.log(math.log(2.0)), rel=3e-5)
    assert "quadrature" in out.read_text()


@pytest.mark.parametrize("L,m,kind", [(1, 2, "truncated"), (2, 2, "truncated"),
                                        (2, 3, "truncated"), (1, 2, "ginibre")])
def test_spline_matches_scipy_cubic_spline(L, m, kind):
    from scipy.interpolate import CubicSpline

    table = weight_table(L, m, kind=kind)
    x, y = table.grid, table.log_values
    lo, hi = x[0], x[-1]
    ref = CubicSpline(x, y)
    xi = np.concatenate([x, np.random.default_rng(SEED).uniform(lo, hi, 10 ** 4)])
    assert np.abs(table._spline(xi) - ref(xi)).max() <= 1e-14
    # the end values log_weight continues from
    assert abs(table._at_lo - ref(lo)) <= 1e-14 and abs(table._at_hi - ref(hi)) <= 1e-14

    # not-a-knot: the third derivative, 6 c3 on each piece, is continuous
    # at the 2nd and the penultimate knots
    c0, c1, c2, c3 = table._spline._c
    dx = np.diff(x)
    slope = np.diff(y) / dx
    s = np.append(c1, c1[-1] + 2 * c2[-1] * dx[-1] + 3 * c3[-1] * dx[-1] ** 2)
    # c3 = (s_i + s_(i+1) - 2 slope_i) / dx_i^2 rounds on this scale
    scale = np.finfo(float).eps * (np.abs(s[:-1]) + np.abs(s[1:])
                                   + 2 * np.abs(slope)) / dx ** 2
    for k in (1, len(x) - 2):
        assert abs(c3[k] - c3[k - 1]) <= 8 * (scale[k] + scale[k - 1])


def test_weight_table_needs_four_finite_increasing_nodes():
    grid = np.linspace(0.1, 0.9, 4)
    weights.WeightTable(L=2, m=2, grid=grid, log_values=grid)
    bad = [(grid[:3], grid[:3]), (grid, grid[:3]), (grid[::-1], grid),
           (grid, np.array([0.0, np.nan, 1.0, 2.0]))]
    for g, v in bad:
        with pytest.raises(DomainError):
            weights.WeightTable(L=2, m=2, grid=g, log_values=v)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L,m", [(1, 2), (2, 2)])
def test_log_weight_beyond_the_edge_is_warning_free(L, m):
    # at mL = 2 the edge exponent mL/2 - 1 is zero: the weight stays flat
    # up to |x| = 1 and vanishes beyond it
    table = weight_table(L, m)
    lw = table.log_weight(np.linspace(-1.2, 1.2, 11))
    assert not np.isnan(lw).any()
    edge = table.log_weight(np.array([1.0, 1.2]))
    assert edge[1] == -np.inf
    if m * L == 2:
        assert np.isfinite(edge[0])
    else:
        assert edge[0] == -np.inf
