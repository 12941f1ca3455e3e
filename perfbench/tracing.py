"""Span shims around realeig's layer functions, for the traced run.

`Tracer.install()` replaces each function under the name that its calling
module looks it up by (a module global or a class attribute), so no repo
code changes and the untraced run executes the library exactly as shipped.
`uninstall()` puts every original back.

A span records its name, start, end, parent span and the job class (tag)
it ran under, plus up to two work counts (points, evaluations, bytes).
Spans live in flat arrays in memory and are written to one .npz file when
the run ends.  A span's self time is its duration minus the time covered
by its direct children.  Functions called millions of times with no layer
below them (`log_gamma`) get a call counter instead of a span.
"""
from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

from realeig import (cache, cli, exactdensity, gammafns, montecarlo, reports,
                     series, weakregime, weights)


def _size(x):
    return float(np.size(x))


def _points(args, kwargs):
    return _size(args[0]), 0.0


def _method_points(args, kwargs):
    return _size(args[1]), 0.0


def _f_truncated_work(args, kwargs):
    # points and series length N - 1; terms = points * (N - 1) is computed
    return _size(args[0]), float(args[1] - 1)


def _evals(result, args, a, b):
    return float(result[2]), b


def _grid_size(result, args, a, b):
    return float(result.grid.size), b


def _gj_requested(args, kwargs):
    table, j_max = args[0], args[1]
    return float(max(0, j_max + 1 - len(table))), 0.0


def _hit(result, args, a, b):
    return float(result is not None), b


def _bytes_written(result, args, a, b):
    return float(os.path.getsize(result)), b


# (owner, attribute, span name, work from arguments, work from result)
SPANS = [
    (montecarlo, "estimate_expected_real", "montecarlo.estimate", None, None),
    (montecarlo, "_run_trials", "montecarlo.run_trials", None, None),
    (montecarlo, "trial_rng", "montecarlo.stream_setup", None, None),
    (montecarlo, "sample_product", "montecarlo.sample", None, None),
    (montecarlo, "sample_haar_orthogonal", "montecarlo.haar_qr", None, None),
    (montecarlo, "count_real_eigs", "montecarlo.schur", None, None),
    (montecarlo, "real_eigs", "montecarlo.schur", None, None),
    (exactdensity, "expected_real_quadrature", "exactdensity.expected_real",
     None, None),
    (exactdensity, "gin_expected_real_quadrature",
     "exactdensity.gin_expected_real", None, None),
    (exactdensity, "build_density_curve", "exactdensity.curve", None, None),
    (exactdensity, "density_mass", "exactdensity.density_mass", None, None),
    (exactdensity, "density_rho", "exactdensity.density_rho", None, None),
    (exactdensity, "gin_density_rho", "exactdensity.gin_density_rho",
     None, None),
    (exactdensity, "f_truncated_log_array", "series.f_truncated",
     _f_truncated_work, None),
    (exactdensity, "f_gin_log_array", "series.f_gin", _points, None),
    (exactdensity, "tanh_sinh_adaptive", "quadrature.tanh_sinh", None, _evals),
    (exactdensity, "weight_table", "weights.weight_table", None, None),
    (exactdensity, "_log_base_array", "weights.log_weight", _points, None),
    (weights, "weight_table", "weights.weight_table", None, None),
    (weights, "_build_table", "weights.build_table", None, _grid_size),
    (weights, "tanh_sinh_adaptive", "quadrature.tanh_sinh", None, _evals),
    (weights.WeightTable, "log_weight", "weights.log_weight",
     _method_points, None),
    (series, "log_binomial", "gammafns.log_binomial", None, None),
    (weakregime, "log_binomial", "gammafns.log_binomial", None, None),
    (weakregime, "log_gamma_complex_array", "gammafns.log_gamma_complex",
     _points, None),
    (weakregime, "real_log_gamma_array", "gammafns.real_log_gamma",
     _points, None),
    (weakregime, "trigamma_array", "gammafns.trigamma", _points, None),
    (weakregime.GjTable, "ensure", "weakregime.gj_ensure",
     _gj_requested, None),
    (weakregime, "expected_real_sum", "weakregime.sum", None, None),
    (cli, "expected_real_sum", "weakregime.sum", None, None),
    (cli, "main", "cli.main", None, None),
    (cache, "load_gj_table", "cache.gj_load", None, _hit),
    (cache, "save_gj_table", "cache.gj_save", None, _bytes_written),
    (reports.ComparisonReport, "write", "reports.write", None, None),
]

COUNTERS = [
    (gammafns, "log_gamma", "gammafns.log_gamma"),
    (weakregime, "log_gamma", "gammafns.log_gamma"),
]


class Tracer:
    """In-memory span store plus the shims that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = ["setup"]
        self.tag = 0
        self.name = array("h")
        self.parent = array("l")
        self.span_tag = array("h")
        self.start = array("d")
        self.end = array("d")
        self.work_a = array("d")
        self.work_b = array("d")
        self.error = array("b")
        self.calls: dict[tuple[str, int], int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def set_tag(self, tag: str) -> None:
        if tag not in self.tags:
            self.tags.append(tag)
        self.tag = self.tags.index(tag)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn, work_in, work_out):
        nid = self._name_id(name)
        stack = self._stack

        def shim(*args, **kwargs):
            a, b = work_in(args, kwargs) if work_in else (0.0, 0.0)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.span_tag.append(self.tag)
            self.work_a.append(a)
            self.work_b.append(b)
            self.error.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = perf_counter()
                self.error[idx] = 1
                raise
            finally:
                stack.pop()
            self.end[idx] = perf_counter()
            if work_out:
                self.work_a[idx], self.work_b[idx] = work_out(result, args, a, b)
            return result

        return shim

    def _counter(self, name, fn):
        calls = self.calls

        def shim(*args, **kwargs):
            key = (name, self.tag)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return shim

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("shims are already installed")
        for owner, attr, name, work_in, work_out in SPANS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn, work_in, work_out))
        for owner, attr, name in COUNTERS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counter(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "tag": np.frombuffer(self.span_tag, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work_a": np.frombuffer(self.work_a, dtype=np.float64),
            "work_b": np.frombuffer(self.work_b, dtype=np.float64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            tags=np.array(self.tags), **self.arrays())


class SpanTable:
    """Read side of a trace: durations, self times and name/tag filters."""

    def __init__(self, tracer: Tracer):
        arr = tracer.arrays()
        self.names = tracer.names
        self.tags = tracer.tags
        self.name = arr["name"]
        self.parent = arr["parent"]
        self.tag = arr["tag"]
        self.work_a = arr["work_a"]
        self.work_b = arr["work_b"]
        self.error = arr["error"]
        self.duration = arr["end"] - arr["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.duration[has_parent],
                            minlength=len(self.duration))
        self.self_time = self.duration - child
        self.calls = tracer.calls

    def mask(self, name: str, tags=None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        m = self.name == self.names.index(name)
        if tags is not None:
            ids = [self.tags.index(t) for t in tags if t in self.tags]
            m &= np.isin(self.tag, ids)
        return m

    def under(self, ancestor: str) -> np.ndarray:
        """Spans that have a span of the given name somewhere above them."""
        flag = np.zeros(len(self.name), dtype=bool)
        if ancestor not in self.names:
            return flag
        is_anc = self.name == self.names.index(ancestor)
        has_parent = self.parent >= 0
        while True:
            new = flag.copy()
            p = self.parent[has_parent]
            new[has_parent] |= is_anc[p] | flag[p]
            if np.array_equal(new, flag):
                return flag
            flag = new

    def count(self, name: str, tags=None) -> int:
        return int(self.mask(name, tags).sum())

    def self_s(self, name: str, tags=None) -> float:
        return float(self.self_time[self.mask(name, tags)].sum())

    def total_s(self, name: str, tags=None) -> float:
        return float(self.duration[self.mask(name, tags)].sum())

    def work(self, name: str, tags=None) -> float:
        return float(self.work_a[self.mask(name, tags)].sum())

    def errors(self, name: str, tags=None) -> int:
        return int(self.error[self.mask(name, tags)].sum())

    def counter(self, name: str, tags) -> int:
        ids = {self.tags.index(t) for t in tags if t in self.tags}
        return sum(n for (k, t), n in self.calls.items() if k == name and t in ids)


MC_CLASSES = ("small", "large")
MC_STAGES = (
    ("stream_setup", ("montecarlo.stream_setup",)),
    ("haar_qr", ("montecarlo.haar_qr",)),
    ("sample_self", ("montecarlo.sample",)),
    ("schur", ("montecarlo.schur",)),
    ("self", ("montecarlo.run_trials", "montecarlo.estimate")),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: SpanTable, pass_tags, passes: int,
                  trials: dict[str, int], schur_failures: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes, per pass.

    pass_tags are the job classes that ran in the passes; spans tagged
    "setup" feed only the weight-table metrics, which belong to set-up.
    trials maps each Monte Carlo class to its trials per pass.
    """
    t = list(pass_tags)
    setup = ["setup"]
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for cls in MC_CLASSES:
        n = trials.get(cls, 0)
        for stage, names in MC_STAGES:
            us = sum(spans.self_s(s, [cls]) for s in names) / passes * 1e6
            put(f"montecarlo.{stage}_us_per_trial.{cls}", _ratio(us, n), "us")
    put("montecarlo.trials", float(sum(trials.values())), "count")
    put("montecarlo.schur_failures", schur_failures / passes, "count")

    f_self = spans.self_s("series.f_truncated", t) / passes
    m = spans.mask("series.f_truncated", t)
    terms = float((spans.work_a[m] * spans.work_b[m]).sum()) / passes
    put("series.f_truncated.calls", spans.count("series.f_truncated", t) / passes, "count")
    put("series.f_truncated.points", spans.work("series.f_truncated", t) / passes, "count")
    put("series.f_truncated.terms", terms, "count")
    put("series.f_truncated.self_s", f_self, "s")
    put("series.f_truncated.ns_per_term", _ratio(f_self * 1e9, terms), "ns")
    put("series.f_gin.calls", spans.count("series.f_gin", t) / passes, "count")
    put("series.f_gin.points", spans.work("series.f_gin", t) / passes, "count")
    put("series.f_gin.self_s", spans.self_s("series.f_gin", t) / passes, "s")

    put("quadrature.tanh_sinh.calls", spans.count("quadrature.tanh_sinh", t) / passes, "count")
    put("quadrature.tanh_sinh.evals", spans.work("quadrature.tanh_sinh", t) / passes, "count")
    put("quadrature.tanh_sinh.self_s", spans.self_s("quadrature.tanh_sinh", t) / passes, "s")
    # set-up raises too: weights._convolve_level swallows some of them
    put("quadrature.tanh_sinh.nonconvergent",
        spans.errors("quadrature.tanh_sinh", t) / passes
        + spans.errors("quadrature.tanh_sinh", setup), "count")

    for fn in ("density_rho", "gin_density_rho"):
        put(f"exactdensity.{fn}.calls", spans.count(f"exactdensity.{fn}", t) / passes, "count")
        put(f"exactdensity.{fn}.self_s", spans.self_s(f"exactdensity.{fn}", t) / passes, "s")
    rho_in_mass = spans.mask("exactdensity.density_rho", t) & spans.under("exactdensity.density_mass")
    put("exactdensity.density_rho_calls_per_mass",
        _ratio(float(rho_in_mass.sum()), spans.count("exactdensity.density_mass", t)), "ratio")

    put("weights.table_builds", float(spans.count("weights.build_table", setup)), "count")
    put("weights.table_build_s", spans.total_s("weights.weight_table", setup), "s")
    put("weights.table_grid_size", spans.work("weights.build_table", setup), "count")
    put("weights.log_weight.calls", spans.count("weights.log_weight", t) / passes, "count")
    put("weights.log_weight.points", spans.work("weights.log_weight", t) / passes, "count")
    put("weights.log_weight.self_s", spans.self_s("weights.log_weight", t) / passes, "s")

    put("gammafns.log_binomial.calls", spans.count("gammafns.log_binomial", t) / passes, "count")
    put("gammafns.log_binomial.self_s", spans.self_s("gammafns.log_binomial", t) / passes, "s")
    put("gammafns.log_gamma.calls", spans.counter("gammafns.log_gamma", t) / passes, "count")
    for fn in ("log_gamma_complex", "real_log_gamma", "trigamma"):
        put(f"gammafns.{fn}.points", spans.work(f"gammafns.{fn}", t) / passes, "count")
        put(f"gammafns.{fn}.self_s", spans.self_s(f"gammafns.{fn}", t) / passes, "s")
    put("gammafns.log_gamma_complex.ns_per_point",
        _ratio(out["gammafns.log_gamma_complex.self_s"][0] * 1e9,
               out["gammafns.log_gamma_complex.points"][0]), "ns")

    coeffs = spans.work("weakregime.gj_ensure", t) / passes
    put("weakregime.gj_coeffs", coeffs, "count")
    put("weakregime.gj_ensure_self_s", spans.self_s("weakregime.gj_ensure", t) / passes, "s")
    put("weakregime.gj_us_per_coeff",
        _ratio(spans.total_s("weakregime.gj_ensure", t) / passes * 1e6, coeffs), "us")
    put("weakregime.complex_points_per_coeff",
        _ratio(out["gammafns.log_gamma_complex.points"][0], coeffs), "ratio")
    put("weakregime.sum.calls", spans.count("weakregime.sum", t) / passes, "count")
    put("weakregime.sum.self_s", spans.self_s("weakregime.sum", t) / passes, "s")
    put("weakregime.nonconvergent", spans.errors("weakregime.gj_ensure", t) / passes, "count")

    put("cache.gj_load.calls", spans.count("cache.gj_load", t) / passes, "count")
    put("cache.gj_load.hits", spans.work("cache.gj_load", t) / passes, "count")
    put("cache.gj_load.self_s", spans.self_s("cache.gj_load", t) / passes, "s")
    put("cache.gj_save.self_s", spans.self_s("cache.gj_save", t) / passes, "s")
    put("cache.gj_bytes_written", spans.work("cache.gj_save", t) / passes, "bytes")
    put("reports.write_s", spans.total_s("reports.write", t) / passes, "s")
    put("cli.self_s", spans.self_s("cli.main", t) / passes, "s")
    return out
