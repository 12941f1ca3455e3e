import numpy as np
import pytest

from realeig import GjTable, cache, weights
from realeig.weights import WeightTable


def _weight_table(scale):
    grid = np.linspace(0.1, 0.9, 9)
    return WeightTable(L=2, m=2, grid=grid, log_values=scale * grid)


def _gj_table(j_max):
    table = GjTable(3, 2)
    table.ensure(j_max)
    return table


@pytest.mark.parametrize("kind", ["weights", "gj"])
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, kind):
    spec = weights.DEFAULT_SPEC
    if kind == "weights":
        old, new = _weight_table(1.0), _weight_table(2.0)
        save = lambda t: cache.save_weight_table(tmp_path, t, spec)
        load = lambda: cache.load_weight_table(tmp_path, "truncated", 2, 2, spec).log_values
        want = old.log_values
    else:
        old, new = _gj_table(6), _gj_table(12)
        save = lambda t: cache.save_gj_table(tmp_path, t)
        load = lambda: cache.load_gj_table(tmp_path, 3, 2, old.rel_tol).log_g
        want = old.log_g
    path = save(old)
    assert path.parent == tmp_path and path.suffix == ".npz"

    def torn(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez_compressed", torn)
    with pytest.raises(OSError):
        save(new)
    assert list(tmp_path.iterdir()) == [path]
    assert np.array_equal(load(), want)
    monkeypatch.undo()
    assert save(new) == path
    assert list(tmp_path.iterdir()) == [path]
    assert not np.array_equal(load(), want)


def test_weight_table_file_with_interp_order_still_loads(tmp_path):
    table = _weight_table(1.0)
    spec = weights.DEFAULT_SPEC
    path = cache.save_weight_table(tmp_path, table, spec)
    with np.load(path) as data:
        arrays = dict(data)
    # files written before the dead interp_order field was dropped carry it
    np.savez_compressed(path, interp_order=3, **arrays)
    loaded = cache.load_weight_table(tmp_path, "truncated", 2, 2, spec)
    assert np.array_equal(loaded.log_values, table.log_values)
    assert np.array_equal(loaded.log_weight([0.25, 0.5]), table.log_weight([0.25, 0.5]))
