import math

import numpy as np
import pytest

from realeig import QuadratureSpec, Rule
from realeig import quadrature
from realeig.errors import DomainError, NonConvergentError
from realeig.quadrature import gauss_kronrod_adaptive, tanh_sinh_adaptive, tanh_sinh_batch


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=2.0 ** -51)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_depth=0)
    assert QuadratureSpec().rule is Rule.TANH_SINH


def test_linear_and_log_integrands():
    spec = QuadratureSpec(rel_tol=1e-12)
    value, _, _ = gauss_kronrod_adaptive(lambda x: x, 0.0, 1.0, spec)
    assert value == pytest.approx(0.5, rel=1e-12)
    value, _, _ = tanh_sinh_adaptive(lambda x: np.log(1.0 / x), 0.0, 1.0, spec)
    assert value == pytest.approx(1.0, rel=1e-10)


def test_arcsine_endpoint_singularity():
    ts = QuadratureSpec(rel_tol=1e-7)
    value, err, _ = tanh_sinh_adaptive(lambda x: 1.0 / np.sqrt(1.0 - x * x), -1.0, 1.0, ts)
    assert abs(value - math.pi) <= 10.0 * err
    assert value == pytest.approx(math.pi, abs=5e-7)


def test_random_polynomials_match_antiderivative():
    # 1000 random polynomials of degree <= 6 on [0, 1]
    rng = np.random.default_rng(20260808)
    spec = QuadratureSpec(rel_tol=1e-11)
    for _ in range(1000):
        deg = rng.integers(0, 7)
        coef = rng.uniform(-5, 5, deg + 1)
        exact = sum(c / (k + 1) for k, c in enumerate(coef))
        f = lambda x: sum(c * x ** k for k, c in enumerate(coef))
        value, err, _ = gauss_kronrod_adaptive(f, 0.0, 1.0, spec)
        assert abs(value - exact) <= max(spec.abs_tol,
                                         spec.rel_tol * abs(exact)) + 1e-13
        assert abs(value - exact) <= 10.0 * err + 1e-13


def test_error_estimate_is_upper_bound_on_self_tests():
    spec = QuadratureSpec(rel_tol=1e-9)
    # int_0^3 e^-x sin 7x dx = [e^-x (-sin 7x - 7 cos 7x) / 50]_0^3
    exact = (7 - math.exp(-3) * (math.sin(21) + 7 * math.cos(21))) / 50
    value, err, _ = gauss_kronrod_adaptive(lambda x: np.exp(-x) * np.sin(7 * x),
                                           0.0, 3.0, spec)
    assert value == pytest.approx(exact, rel=1e-9)
    assert abs(value - exact) <= 10.0 * max(err, 1e-16)


def test_nan_integrand_rejected():
    spec = QuadratureSpec()
    with pytest.raises(DomainError):
        tanh_sinh_adaptive(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0, spec)
    with pytest.raises(NonConvergentError):
        gauss_kronrod_adaptive(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0, spec)


def test_nonconvergence_is_flagged():
    # a kink needs depth; forbid subdivision so the tolerance cannot be met
    spec = QuadratureSpec(rel_tol=1e-13, max_depth=1)
    with pytest.raises(NonConvergentError) as exc:
        gauss_kronrod_adaptive(lambda x: np.abs(x - 1.0 / math.pi) ** 0.3, 0.0, 1.0, spec)
    assert exc.value.err_est > 0


def test_last_level_error_compares_with_the_level_before():
    # the kink is still far from converged at level 3: the estimate must
    # cover the true error, not only the tail term
    exact = ((1.0 - 1.0 / math.pi) ** 1.3 + (1.0 / math.pi) ** 1.3) / 1.3
    with pytest.raises(NonConvergentError) as exc:
        tanh_sinh_adaptive(lambda x: np.abs(x - 1.0 / math.pi) ** 0.3, 0.0, 1.0,
                           QuadratureSpec(rel_tol=1e-10, max_depth=3))
    assert exc.value.err_est >= abs(exc.value.value - exact) > 1e-3


def _batch_rows():
    # (integrand, a, b, abs_tol); the interior kink needs 12,749 nodes to
    # meet its absolute tolerance, the panel at 0.99 has nodes that round onto b, and the one 4 ulps wide
    # has levels whose nodes all round onto an endpoint
    return [(lambda x: np.exp(-x) * np.sin(7 * x), 0.0, 3.0, 0.0),
            (lambda x: np.abs(x - 1.0 / math.pi) ** 0.3, 0.0, 1.0, 1e-5),
            (lambda x: np.log(1.0 / x), 0.0, 1.0, 1e-6),
            (lambda x: 1.0 / np.sqrt(1.0 - x * x), -1.0, 1.0, 1e-4),
            (lambda x: x ** 3, 0.5, 3.0, 1e-12),
            (lambda x: np.sqrt(1.0 - x), 0.99, 1.0, 0.0),
            (lambda x: np.cos(x), 1.0, 1.0 + 4 * 2.0 ** -52, 1e-15)]


def _row_integrand(fs):
    def f(x, row):
        out = np.empty_like(x)
        for i, g in enumerate(fs):
            sel = row == i
            out[sel] = g(x[sel])
        return out
    return f


@pytest.mark.parametrize("block_nodes", [quadrature._BLOCK_NODES, 1])
def test_batch_rows_match_single_rows_bit_for_bit(monkeypatch, block_nodes):
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", block_nodes)
    spec = QuadratureSpec(rel_tol=1e-10)
    fs, a, b, tols = zip(*_batch_rows())
    vals, errs, evals = tanh_sinh_batch(_row_integrand(fs), a, b, tols, spec)
    for i, g in enumerate(fs):
        alone = tanh_sinh_adaptive(g, a[i], b[i], QuadratureSpec(
            rel_tol=1e-10, abs_tol=tols[i]))
        assert (vals[i], errs[i], evals[i]) == alone
    # the kink row converges last, long after the others left the batch
    assert evals[1] > 10 * max(np.delete(evals, 1))


def test_batch_nonconvergent_row_raises_its_own_error():
    # only the two kink rows lack an absolute tolerance they can meet at
    # depth 1; the error reports both, and every row as if run alone
    rows = _batch_rows() + [(_batch_rows()[1][0], 0.0, 2.0, 0.0)]
    fs, a, b, _ = zip(*rows)
    tols = [1.0, 0.0, 1.0, 10.0, 100.0, 1.0, 1.0, 0.0]
    alone, first = [], None
    for i, g in enumerate(fs):
        try:
            v, e, _ = tanh_sinh_adaptive(g, a[i], b[i], QuadratureSpec(
                rel_tol=1e-13, abs_tol=tols[i], max_depth=1))
        except NonConvergentError as exc:
            v, e = exc.value, exc.err_est
            first = first or exc
        alone.append((v, e))
    spec = QuadratureSpec(rel_tol=1e-13, max_depth=1)
    with pytest.raises(NonConvergentError) as batch:
        tanh_sinh_batch(_row_integrand(fs), a, b, tols, spec)
    err = batch.value
    assert str(err) == str(first)
    assert (err.value, err.err_est) == (first.value, first.err_est) == alone[1]
    assert err.failed_rows.tolist() == [1, 7]
    assert list(zip(err.values.tolist(), err.err_ests.tolist())) == alone
