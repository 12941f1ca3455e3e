"""Versioned on-disk cache for weight tables and contour-coefficient tables.

One .npz container per object, keyed by parameters in the file name (for
weight tables, also by the tolerances and depth of the building spec).  A
file is written under a temporary name in the same directory and renamed
onto its final name, so a concurrent reader sees the old file or the whole
new one, never a torn one.  The format version is stored inside; files
with a stale version are ignored and rebuilt.  The cache directory comes
from, in order: an explicit flag, the REALEIG_CACHE_DIR environment
variable, or ~/.cache/realeig.
"""
from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
ENV_VAR = "REALEIG_CACHE_DIR"


def resolve_cache_dir(override=None) -> Path:
    if override is not None:
        path = Path(override)
    elif os.environ.get(ENV_VAR):
        path = Path(os.environ[ENV_VAR])
    else:
        path = Path.home() / ".cache" / "realeig"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _save_atomic(path: Path, **arrays) -> Path:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        # through the handle: np.savez would append .npz to a file name
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return path


def _weight_path(cache_dir, kind, L, m, spec) -> Path:
    return Path(cache_dir) / (
        f"weights_{kind}_L{L}_m{m}_r{spec.rel_tol!r}_a{spec.abs_tol!r}"
        f"_d{spec.max_depth}_v{FORMAT_VERSION}.npz")


def save_weight_table(cache_dir, table, spec) -> Path:
    """Write a table under the name of the spec it was built with."""
    return _save_atomic(
        _weight_path(cache_dir, table.kind, table.L, table.m, spec),
        version=FORMAT_VERSION, L=table.L, m=table.m,
        kind=table.kind, xi_scale=table.xi_scale,
        grid=table.grid, log_values=table.log_values)


def has_weight_table(cache_dir, kind, L, m, spec) -> bool:
    return _weight_path(cache_dir, kind, L, m, spec).exists()


def load_weight_table(cache_dir, kind, L, m, spec):
    from .weights import WeightTable

    path = _weight_path(cache_dir, kind, L, m, spec)
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"]) != FORMAT_VERSION:
                return None
            return WeightTable(
                L=int(data["L"]), m=int(data["m"]), grid=data["grid"],
                log_values=data["log_values"], kind=str(data["kind"]),
                xi_scale=float(data["xi_scale"]))
    except (OSError, KeyError, ValueError):
        return None


def _gj_path(cache_dir, L, m) -> Path:
    return Path(cache_dir) / f"gj_L{L}_m{m}_v{FORMAT_VERSION}.npz"


def save_gj_table(cache_dir, table) -> Path:
    return _save_atomic(
        _gj_path(cache_dir, table.L, table.m),
        version=FORMAT_VERSION, L=table.L, m=table.m,
        rel_tol=table.rel_tol, sign=table.sign, log_g=table.log_g,
        rel_err=table.rel_err)


def load_gj_table(cache_dir, L, m, rel_tol):
    from .weakregime import GjTable

    path = _gj_path(cache_dir, L, m)
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"]) != FORMAT_VERSION:
                return None
            if float(data["rel_tol"]) > rel_tol:
                return None
            table = GjTable(int(data["L"]), int(data["m"]), float(data["rel_tol"]))
            table.sign = data["sign"]
            table.log_g = data["log_g"]
            table.rel_err = data["rel_err"]
            return table
    except (OSError, KeyError, ValueError):
        return None
