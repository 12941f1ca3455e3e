import json
import math
import subprocess
import sys

import numpy as np
import pytest

from realeig import expected_real_sum, montecarlo
from realeig.cli import main
from realeig.errors import DomainError
from realeig.reports import ComparisonReport, ReportRow
from realeig.verify import run_verify
from realeig.weakregime import GjTable, _sum_terms
from conftest import SEED


def sample_report():
    rep = ComparisonReport(rows=[], config={"N": 6, "L": 2, "m": 1},
                           seed=SEED, wall_time_s=1.25)
    rep.add("expected_real_count", "quadrature", 1.8782106782106704, 5.6e-08)
    rep.add("expected_real_count", "sum", 1.8782106782106704, 8.9e-10)
    rep.add("expected_real_count", "montecarlo", 1.8801, 0.0042)
    rep.add("expected_real_count", "asymptotic", 1.4860278551361086, 0.0)
    return rep


def test_method_enum_enforced():
    with pytest.raises(DomainError):
        ReportRow("x", "guesswork", 1.0, 0.0)
    with pytest.raises(DomainError):
        ReportRow("x", "sum", 1.0, -1.0)


def test_csv_round_trip_exact():
    rep = sample_report()
    text = rep.to_csv_text()
    back = ComparisonReport.from_csv_text(text)
    assert back.rows == rep.rows
    assert back.config == rep.config
    assert back.seed == rep.seed
    assert back.wall_time_s == rep.wall_time_s
    assert text.endswith("\n") and "\r" not in text


def test_json_round_trip_exact():
    rep = sample_report()
    back = ComparisonReport.from_json_text(rep.to_json_text())
    assert back.rows == rep.rows
    assert back.config == rep.config
    assert back.seed == rep.seed
    assert back.wall_time_s == rep.wall_time_s


def test_round_trip_preserves_full_double_precision():
    rep = ComparisonReport(rows=[], config={})
    ugly = math.pi * 1e-7 / 3.0
    rep.add("q", "sum", ugly, ugly / 7.0)
    back = ComparisonReport.from_csv_text(rep.to_csv_text())
    assert back.rows[0].value == ugly
    assert back.rows[0].err_est == ugly / 7.0


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args])
    return code


def test_cli_expected_pass_and_report(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["expected", "--N", "6", "--L", "2", "--m", "1",
                 "--methods", "quadrature,sum", "--out", str(out)])
    assert code == 0
    rep = ComparisonReport.from_csv_text(out.read_text())
    methods = {r.method for r in rep.rows}
    assert methods == {"quadrature", "sum"}
    vals = [r.value for r in rep.rows]
    assert vals[0] == pytest.approx(vals[1], rel=1e-5)


def test_cli_expected_json_format(tmp_path):
    out = tmp_path / "r.json"
    code = main(["expected", "--N", "4", "--L", "2", "--m", "1",
                 "--methods", "sum,asymptotic", "--tol-asy", "99",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    rep = ComparisonReport.from_json_text(out.read_text())
    assert rep.config["N"] == 4


def test_cli_expected_tolerance_violation_exit(tmp_path):
    # impossible tolerance forces exit code 2
    out = tmp_path / "r.csv"
    code = main(["expected", "--N", "6", "--L", "2", "--m", "1",
                 "--methods", "sum,asymptotic", "--tol-asy", "1e-12",
                 "--out", str(out)])
    assert code == 2


def test_cli_bad_arguments_exit():
    assert main(["expected", "--N", "6", "--methods", "nonsense"]) == 4
    assert main(["expected"]) == 4
    assert main(["verify", "--only", "not-a-check"]) == 4
    assert main(["expected", "--N", "5", "--L", "2",
                 "--ensemble", "real-ginibre", "--methods", "quadrature"]) == 4


def test_cli_weak_report(tmp_path):
    out = tmp_path / "w.csv"
    argv = ["weak", "--L", "2", "--m", "1", "--N-list", "32,64,128,256",
            "--out", str(out), "--cache-dir", str(tmp_path)]
    assert main(argv + ["--rel-tol", "1e-8"]) == 0
    assert ComparisonReport.from_csv_text(out.read_text()).config["rel_tol"] == 1e-8
    # the parser is built once per process; no option leaks into the next call
    code = main(argv)
    assert code == 0
    text = out.read_text()
    assert '"rel_tol": null' in text.splitlines()[0]
    rep = ComparisonReport.from_csv_text(text)
    slope = [r for r in rep.rows if r.quantity == "fitted_slope_top_half"]
    assert len(slope) == 1
    # desk-scale sweep already lands near the 1/B(1, 1/2) coefficient
    assert slope[0].value == pytest.approx(0.5, rel=0.05)
    # every error is computed: each count carries the sum route's own
    # estimate; an increment counts only the terms its two sums do not
    # share, and the slope propagates its least-squares weights per term
    errs = {}
    for N in (32, 64, 128, 256):
        row, = [r for r in rep.rows if r.quantity == f"expected_real_count[N={N}]"]
        errs[N] = row.err_est
        assert row.err_est > 0.0
        assert row.err_est == expected_real_sum(N, 2, 1, return_err=True)[1]
    table = GjTable(2, 1)
    table.ensure(254)
    term_err = np.abs(_sum_terms(table, 256)) * table.rel_err[:255]
    incs = {}
    for a, b in ((32, 64), (64, 128), (128, 256)):
        row, = [r for r in rep.rows if r.quantity == f"increment[{a}->{b}]"]
        incs[b] = term_err[a - 1:b - 1].sum()
        assert row.err_est == pytest.approx(incs[b], rel=1e-12)
        assert row.err_est < errs[a] + errs[b]
    # two points ln 2 apart: the least-squares weights are -+1/ln 2, and
    # cancel on the shared terms
    assert slope[0].err_est == pytest.approx(incs[256] / math.log(2.0), rel=1e-12)
    # reuses the on-disk coefficient cache on the second run
    code = main(["weak", "--L", "2", "--m", "1", "--N-list", "32,64",
                 "--out", str(out), "--cache-dir", str(tmp_path)])
    assert code == 0


def test_cli_warm_weak_run_leaves_gj_cache_file_alone(tmp_path):
    argv = ["weak", "--L", "2", "--m", "1", "--N-list", "32,64",
            "--out", str(tmp_path / "w.csv"), "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    path, = tmp_path.glob("gj_*.npz")
    data, before = path.read_bytes(), path.stat()
    assert main(argv) == 0
    after = path.stat()
    assert path.read_bytes() == data
    assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns, before.st_ino)
    # a sweep that needs more coefficients extends the file
    assert main(argv[:6] + ["32,128"] + argv[7:]) == 0
    assert len(path.read_bytes()) > len(data)


@pytest.mark.parametrize("command", ["expected", "density", "sample"])
def test_cli_ensemble_options_are_required(capsys, command):
    assert main([command]) == 4
    assert "--N is required for this command" in capsys.readouterr().err
    assert main([command, "--N", "4"]) == 4
    assert "--L is required for this command" in capsys.readouterr().err
    assert main([command, "--N", "4", "--ensemble", "real-ginibre", "--m", "0"]) == 4
    assert "domain error" in capsys.readouterr().err


def test_cli_density_files(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["density", "--N", "6", "--L", "2", "--m", "1",
                 "--grid", "16", "--trials", "4000", "--seed", str(SEED),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,exact,mc,mc_err,limit"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    xs, exact = rows[:, 0], rows[:, 1]
    # exact column is even in x
    for i, x in enumerate(xs):
        j = np.argmin(np.abs(xs + x))
        assert exact[i] == pytest.approx(exact[j], rel=1e-8, abs=1e-12)
    # limit column integrates to one on a fine grid (trapezoid over support)
    assert rows[:, 4].min() >= 0.0


def test_cli_density_limit_mass(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["density", "--N", "50", "--L", "50", "--m", "1",
                 "--grid", "400", "--trials", "500", "--seed", str(SEED),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    xs, limit = rows[:, 0], rows[:, 4]
    mass = np.trapezoid(limit, xs)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_cli_sample_outputs(tmp_path):
    out = tmp_path / "s.json"
    code = main(["sample", "--N", "4", "--L", "2", "--m", "1",
                 "--trials", "2000", "--bins", "8", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 2000
    hist = (tmp_path / "s.hist.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count,normalized_value"
    assert len(hist) == 9


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "realeig.cli", "expected",
                           "--N", "2", "--L", "2", "--m", "1",
                           "--methods", "sum", "--out", "/tmp/_re_t.csv"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "expected_real_count" in proc.stdout


def test_cli_verify_subset():
    assert main(["verify", "--only", "gaussian-bound,haar"]) == 0


def test_cli_rejects_options_a_subcommand_does_not_read(tmp_path):
    argv = ["weak", "--L", "2", "--N-list", "32,64", "--cache-dir", str(tmp_path),
            "--out", str(tmp_path / "w.csv")]
    assert main(argv) == 0
    assert main(argv + ["--trials", "5"]) == 4
    assert main(["verify", "--out", "x"]) == 4
    # no prefix matching: --N is not taken as --N-list
    assert main(["weak", "--L", "2", "--N", "64,128"]) == 4


def test_verify_parity_fails_when_engine_breaks_parity(monkeypatch):
    # counting complex eigenvalues instead gives even counts at odd N
    monkeypatch.setattr(montecarlo, "_real_mask", lambda w: np.imag(w) != 0.0)
    result, = run_verify(only=["parity"])
    assert not result.passed
    assert "parity invariant violated" in result.detail
    assert main(["verify", "--only", "parity"]) == 2


def test_cli_numerical_failure_exit():
    # the exact route refuses sizes beyond its double-precision envelope
    assert main(["expected", "--N", "300", "--L", "300", "--m", "1",
                 "--methods", "quadrature"]) == 3


def test_cli_expected_three_methods(tmp_path):
    out = tmp_path / "e.csv"
    code = main(["expected", "--N", "10", "--L", "2", "--m", "1",
                 "--methods", "quadrature,sum,montecarlo",
                 "--trials", "30000", "--seed", "7", "--out", str(out)])
    assert code == 0
    rep = ComparisonReport.from_csv_text(out.read_text())
    by_method = {r.method: r for r in rep.rows}
    assert by_method["quadrature"].value == pytest.approx(
        by_method["sum"].value, rel=1e-5)
    gap = abs(by_method["montecarlo"].value - by_method["sum"].value)
    assert gap <= 3.0 * by_method["montecarlo"].err_est


def test_cli_verify_full_battery(capsys):
    assert main(["verify", "--seed", "12345"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "12345", "--threads", "8"]) == 0
    second = capsys.readouterr().out
    # numeric output is independent of the thread budget
    assert first == second
    assert first.count("PASS") == len(first.strip().splitlines())


@pytest.mark.parametrize("ensemble,N,L", [("truncated-orthogonal", 6, 2),
                                          ("real-ginibre", 4, 0)])
def test_cli_expected_reports_computed_quadrature_error(tmp_path, ensemble, N, L):
    from realeig import (QuadratureSpec, Rule, SeriesParams,
                         expected_real_quadrature, gin_expected_real_quadrature)

    out = tmp_path / "e.csv"
    code = main(["expected", "--ensemble", ensemble, "--N", str(N), "--L", str(L),
                 "--m", "1", "--methods", "quadrature", "--rel-tol", "1e-8",
                 "--out", str(out)])
    assert code == 0
    row, = ComparisonReport.from_csv_text(out.read_text()).rows
    spec = QuadratureSpec(rel_tol=1e-8, rule=Rule.TANH_SINH)
    if ensemble == "real-ginibre":
        want = gin_expected_real_quadrature(N, 1, spec, return_err=True)
    else:
        want = expected_real_quadrature(SeriesParams(N, L, 1), spec, return_err=True)
    assert (row.value, row.err_est) == want
    assert math.isfinite(want[1]) and want[1] > 0.0


def test_cli_expected_sum_uses_gj_cache_and_rel_tol(tmp_path, monkeypatch):
    from realeig import cache, expected_real_sum

    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "default"))
    out = tmp_path / "e.csv"
    argv = ["expected", "--N", "12", "--L", "2", "--m", "1", "--methods", "sum",
            "--out", str(out)]

    def rows():
        return [(r.quantity, r.method, r.value, r.err_est)
                for r in ComparisonReport.from_csv_text(out.read_text()).rows]

    # neither flag: the library's default-tolerance sum, bit for bit
    assert main(argv) == 0
    cold = rows()
    assert cold[0][2:] == expected_real_sum(12, 2, 1, return_err=True)
    assert list((tmp_path / "default").glob("gj_*.npz"))
    loads = []
    real_load = cache.load_gj_table
    monkeypatch.setattr(cache, "load_gj_table",
                        lambda *a: loads.append(real_load(*a)) or loads[-1])
    assert main(argv) == 0
    assert loads and loads[0] is not None and len(loads[0]) >= 11
    assert rows() == cold
    # --rel-tol is the table tolerance, and --cache-dir the table's home
    tight = tmp_path / "tight"
    assert main(argv + ["--rel-tol", "1e-8", "--cache-dir", str(tight)]) == 0
    want = expected_real_sum(12, 2, 1, rel_tol=1e-8, return_err=True)
    assert rows()[0][2:] == want
    assert real_load(tight, 2, 1, 1e-8).rel_tol == 1e-8


def test_cli_expected_rejects_ginibre_sum_before_any_method(monkeypatch):
    # the sum route is truncated-only: a Ginibre request for it is a usage
    # error before the Monte Carlo method runs a single trial
    from realeig import cli

    def never(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the method list was checked")

    monkeypatch.setattr(cli, "estimate_expected_real", never)
    assert main(["expected", "--ensemble", "real-ginibre", "--N", "4",
                 "--methods", "montecarlo,sum"]) == 4


def test_cli_ginibre_four_factor_weight_exits_nonconvergent(tmp_path, monkeypatch):
    # the level-4 Ginibre convolution leaves double range: exit 3, not 4
    from realeig import weights

    monkeypatch.setattr(weights, "_registry", {})
    assert main(["expected", "--ensemble", "real-ginibre", "--N", "4", "--m", "4",
                 "--methods", "quadrature", "--cache-dir", str(tmp_path),
                 "--out", str(tmp_path / "e.csv")]) == 3


def test_cli_warm_expected_loads_the_weight_and_builds_nothing(tmp_path, monkeypatch):
    # a cold run builds the (2, 3) weight at its one spec and saves it; a
    # warm run with an empty registry loads it from --cache-dir, and the
    # route reads the loaded table
    from realeig import weights

    argv = ["expected", "--N", "4", "--L", "2", "--m", "3", "--methods", "quadrature",
            "--cache-dir", str(tmp_path), "--out", str(tmp_path / "e.csv")]
    monkeypatch.setattr(weights, "_registry", {})
    rows = lambda: ComparisonReport.from_csv_text((tmp_path / "e.csv").read_text()).rows
    assert main(argv) == 0
    cold = rows()
    assert len(list(tmp_path.glob("weights_truncated_L2_m3_*.npz"))) == 1
    builds = []
    real_build = weights._build_table
    monkeypatch.setattr(weights, "_build_table",
                        lambda *a: builds.append(a) or real_build(*a))
    monkeypatch.setattr(weights, "_registry", {})
    assert main(argv) == 0
    assert builds == []
    assert rows() == cold
