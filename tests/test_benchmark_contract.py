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

