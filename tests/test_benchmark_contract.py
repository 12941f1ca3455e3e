"""The traced benchmark's hold on the library.

perfbench/tracing.py wraps functions by (owner, attribute name) and reads
each one from the owner's own __dict__, so a renamed, deleted or
re-exported-only name crashes the traced run.  perfbench/workloads.py
imports the library's public entry points.
"""
import importlib
import sys
from pathlib import Path

import pytest

from realeig import QuadratureSpec, SeriesParams, exactdensity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        importlib.import_module("workloads")
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_is_its_owners_own(tracing):
    names = [entry[:2] for entry in tracing.SPANS + tracing.COUNTERS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in names
               if attr not in owner.__dict__]
    assert not missing


def test_kernel_route_calls_the_traced_series_names(monkeypatch):
    # the tracer wraps the series evaluators where exactdensity holds
    # them; a route that bound them elsewhere would leave its series
    # metrics at 0
    calls = {}
    for name in ("f_truncated_log_array", "f_gin_log_array"):
        def counting(*args, _fn=getattr(exactdensity, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(exactdensity, name, counting)
    spec = QuadratureSpec(rel_tol=1e-6)
    exactdensity.density_mass(SeriesParams(4, 2, 1), spec)
    exactdensity.gin_expected_real_quadrature(4, 1, spec)
    assert calls.get("f_truncated_log_array", 0) > 0
    assert calls.get("f_gin_log_array", 0) > 0
