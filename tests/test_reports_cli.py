import json
import math
import subprocess
import sys

import numpy as np
import pytest

from realeig.cli import main
from realeig.errors import DomainError
from realeig.reports import ComparisonReport, ReportRow
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
    code = main(["weak", "--L", "2", "--m", "1", "--N-list", "32,64,128,256",
                 "--out", str(out), "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = ComparisonReport.from_csv_text(out.read_text())
    slope = [r for r in rep.rows if r.quantity == "fitted_slope_top_half"]
    assert len(slope) == 1
    # desk-scale sweep already lands near the 1/B(1, 1/2) coefficient
    assert slope[0].value == pytest.approx(0.5, rel=0.05)
    # reuses the on-disk coefficient cache on the second run
    code = main(["weak", "--L", "2", "--m", "1", "--N-list", "32,64",
                 "--out", str(out), "--cache-dir", str(tmp_path)])
    assert code == 0


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
    from realeig import QuadratureSpec, cache, expected_real_sum

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
    want = expected_real_sum(12, 2, 1, QuadratureSpec(rel_tol=1e-8), return_err=True)
    assert rows()[0][2:] == want
    assert real_load(tight, 2, 1, 1e-8).rel_tol == 1e-8
