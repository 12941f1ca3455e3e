"""Shared fixtures: expensive Monte Carlo runs and coefficient tables are
computed once per session and reused across test modules."""
import numpy as np
import pytest

from realeig import EnsembleSpec, GjTable, SeriesParams, cache, estimate_expected_real
from realeig.exactdensity import density_mass
from realeig.quadrature import QuadratureSpec, Rule

SEED = 20260808


@pytest.fixture(scope="session", autouse=True)
def private_cache_dir(tmp_path_factory):
    """Point the default on-disk cache at a session directory, so CLI runs
    without --cache-dir leave nothing in the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cache.ENV_VAR, str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def quad_spec():
    return QuadratureSpec(rel_tol=1e-10, abs_tol=0.0, rule=Rule.TANH_SINH)


@pytest.fixture(scope="session")
def gj_table_21():
    """Contour coefficients for (L, m) = (2, 1) up to j = 8190."""
    table = GjTable(2, 1)
    table.ensure(8190)
    return table


@pytest.fixture(scope="session")
def limit_masses():
    """Kernel-density masses at N = L in (25, 50, 100, 200), m = 1, rel_tol
    1e-7, keyed by N: the normalizers of the limiting-density tests."""
    spec = QuadratureSpec(rel_tol=1e-7, rule=Rule.TANH_SINH)
    return {N: density_mass(SeriesParams(N, N, 1), spec)
            for N in (25, 50, 100, 200)}


@pytest.fixture(scope="session")
def million_trials_821():
    """One shared million-trial run at (N, L, m) = (8, 2, 1) with histogram.

    Parity (count = N mod 2) is hard-asserted inside every trial, so this
    fixture doubles as the million-trial parity certificate.
    """
    edges = np.linspace(-1.0, 1.0, 41)
    return estimate_expected_real(EnsembleSpec(8, 2, 1), trials=10 ** 6,
                                  seed=SEED, threads=1, bins=edges)


def monotone_with_slack(seq, violations_allowed=1):
    """True if the sequence decreases with at most the given # of violations."""
    bad = sum(1 for a, b in zip(seq[:-1], seq[1:]) if b >= a)
    return bad <= violations_allowed
