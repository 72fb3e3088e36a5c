"""Sweep, report, and fit orchestration."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from fixedpoint import fixed_system
from xdp import distance, experiments, linalg
from xdp.cli import main
from xdp.config import ExperimentConfig, config_from_json
from xdp.experiments import (CriterionReport, _sweep_text, run_criterion_report,
                             run_decay_fit, run_distance_sweep)
from xdp.precision import working

HEADER = ["n", "d_squared", "d_squared_times_log_n", "precision_bits", "min_pivot"]


def _cfg(**kw):
    kw.setdefault("poly", "1:1,2:-1")
    kw.setdefault("precision_bits", 128)
    return ExperimentConfig(**kw)


def test_sweep_trivial_polynomial_all_zero():
    cfg = _cfg(poly="1:1", r=0, n_schedule=(1, 2, 4))
    rows = run_distance_sweep(cfg)
    assert [row.n for row in rows] == [1, 2, 4]
    assert all(row.d_squared == 0 for row in rows)
    data = list(csv.reader(io.StringIO(_sweep_text(rows, "csv"))))
    assert data[0] == HEADER
    assert len(data) == 4
    assert data[1][1] == "0.0"
    assert data[1][3] == "128"


def test_sweep_pinned_value_and_logn_column():
    cfg = _cfg(r=0, n_schedule=(1, 2))
    rows = run_distance_sweep(cfg)
    with working(128):
        target = (2 + mp.sqrt(2)) / 4
        assert abs(rows[0].d_squared - target) < mpf(10) ** -30
        assert rows[0].d_squared_times_log_n == 0
        assert abs(rows[1].d_squared_times_log_n
                   - rows[1].d_squared * mp.log(2)) < mpf(10) ** -30
    assert all(row.min_pivot > 0 for row in rows)
    assert rows[1].min_pivot <= rows[0].min_pivot


def test_sweep_warm_cache_identical_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    cache = tmp_path / "cache"
    argv = ["distance", "--poly", "1:1,2:-1", "--r", "0", "--schedule", "1,2,4",
            "--precision", "128", "--cache-dir", str(cache), "--out", str(out)]
    assert main(argv) == 0
    cold = out.read_bytes()
    assert len(list(cache.glob("*.json"))) == 1
    assert main(argv) == 0
    assert out.read_bytes() == cold


def test_sweep_cache_slice_matches_fresh(tmp_path):
    cache = tmp_path / "cache"
    big = _cfg(r=0, n_schedule=(1, 2, 4), cache_dir=str(cache))
    rows_big = run_distance_sweep(big)
    small = _cfg(r=0, n_schedule=(1, 2), cache_dir=str(cache))
    rows_small = run_distance_sweep(small)
    assert len(list(cache.glob("*.json"))) == 1          # sliced, not re-stored
    for a, b in zip(rows_small, rows_big[:2]):
        assert a.n == b.n
        assert a.d_squared == b.d_squared
        assert a.min_pivot == b.min_pivot


def test_sweep_reports_escalated_precision(tmp_path, monkeypatch):
    # a pivot of 2^-48 is indeterminate at 128 bits and decided at 256
    def fake(P, r, n, bits):
        G, g = fixed_system([[1, 0], [0, Fraction(1, 2 ** 48)]],
                            [Fraction(1, 2), Fraction(1, 2 ** 25)], bits)
        return G, g, 0
    monkeypatch.setattr(distance, "_build_gram", fake)
    cache = tmp_path / "cache"
    cfg = _cfg(r=0, n_schedule=(1, 2), cache_dir=str(cache))
    rows = run_distance_sweep(cfg)
    assert [row.precision_bits for row in rows] == [256, 256]
    with working(256):
        assert rows[1].d_squared == mpf(1) / 2
        assert rows[1].min_pivot == mpf(2) ** -48
    stored = [json.loads(p.read_text()) for p in cache.glob("*.json")]
    assert [s["precision_bits"] for s in stored] == [256]
    cold = _sweep_text(rows, "csv")
    assert list(csv.reader(io.StringIO(cold)))[1][3] == "256"
    # warm: reads the stored profile
    assert _sweep_text(run_distance_sweep(cfg), "csv") == cold


def test_warm_sweep_builds_and_factors_nothing(tmp_path, monkeypatch):
    out = tmp_path / "sweep.json"
    argv = ["distance", "--poly", "1:1,2:-1", "--r", "1/3", "--schedule", "1,4,16",
            "--precision", "128", "--format", "json",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
    assert main(argv) == 0
    cold = out.read_bytes()

    def spy(*args, **kwargs):
        raise AssertionError("warm sweep recomputed the profile")
    monkeypatch.setattr(distance, "_build_gram", spy)
    monkeypatch.setattr(linalg, "ldl_profile", spy)
    assert main(argv) == 0
    assert out.read_bytes() == cold


def test_sweep_json_output():
    rows = run_distance_sweep(_cfg(r=0, n_schedule=(1,), format="json"))
    payload = json.loads(_sweep_text(rows, "json"))
    assert payload["rows"][0]["n"] == 1
    assert payload["rows"][0]["d_squared"].startswith("0.85355339059327376220")


def test_run_functions_write_no_file(tmp_path):
    # cfg.output is the CLI's to write: the library leaves it alone
    out = tmp_path / "out"
    out.mkdir()
    cfg = _cfg(r=-1, n_schedule=(1, 2, 4), rect="-2,1,-20,20", T=20,
               output=str(out / "result"))
    run_distance_sweep(cfg)
    run_decay_fit(cfg)
    run_criterion_report(cfg)
    assert list(out.iterdir()) == []


def test_decay_fit_degenerate_and_negative_slope():
    fit = run_decay_fit(_cfg(poly="1:1", r=0, n_schedule=(1, 2, 4, 8)))
    assert fit.slope == float("-inf")
    assert fit.residual == 0.0

    fit_half = run_decay_fit(_cfg(r=Fraction(1, 2), n_schedule=(1, 2, 4, 8, 16, 32, 64)))
    assert fit_half.slope < 0
    assert fit_half.n_used == (8, 16, 32, 64)
    assert fit_half.residual >= 0.0

    fit_one = run_decay_fit(_cfg(r=1, n_schedule=(1, 2, 4, 8, 16, 32, 64)))
    assert fit_one.slope <= fit_half.slope


def test_decay_fit_carries_the_sweep_rows(tmp_path):
    # criterion 9 checks strict decay on these rows instead of a second sweep
    cfg = _cfg(r=Fraction(1, 2), n_schedule=(1, 2, 4, 8, 16), cache_dir=str(tmp_path))
    fit = run_decay_fit(cfg)
    assert fit.rows == tuple(run_distance_sweep(cfg))
    assert [row.n for row in fit.rows] == [1, 2, 4, 8, 16]


def test_report_zeros_present_floor():
    cfg = _cfg(r=-1, n_schedule=(1, 2, 4, 8), rect="-2,1,-20,20", T=20)
    rep = run_criterion_report(cfg)
    assert isinstance(rep, CriterionReport)
    assert rep.verdict == "consistent-zeros-present"
    assert rep.zeros_found.total_count == 5
    assert any("floor" in line for line in rep.evidence)
    with working(128):
        floor = mpf(8) / 9
        assert min(d.d_squared for d in rep.distances) >= floor - mpf(10) ** -9


def test_report_zero_free_cases():
    rep = run_criterion_report(_cfg(poly="1:1", r=0, n_schedule=(1, 2, 4),
                                    rect="-1,1,-2,2", T=5))
    assert rep.verdict == "consistent-zero-free"
    assert rep.C.partial == 0
    assert all(d.d_squared == 0 for d in rep.distances)

    rep_half = run_criterion_report(_cfg(r=Fraction(1, 2),
                                         n_schedule=(1, 2, 4, 8, 16),
                                         rect="-1,1,0.5,40.5", T=40))
    assert rep_half.verdict == "consistent-zero-free"
    assert rep_half.zeros_found.total_count == 4
    assert len(rep_half.C.ordinates) == 0
    assert any("monotone" in line for line in rep_half.evidence)


def test_report_at_r_0_counts_no_on_line_zero_as_right_of_r():
    # every zero of 1 - 2^{-s} lies on Re s = 0; at 128 bits the polish
    # leaves one at Re ~ 1.6e-58, which must not raise the remark-1 floor
    rep = run_criterion_report(_cfg(r=0, n_schedule=(1, 2, 4, 8, 16),
                                    rect="-2,1,-20,20", T=20))
    assert rep.zeros_found.total_count == 5
    assert len(rep.C.ordinates) == 5
    assert rep.verdict == "consistent-zero-free"
    assert rep.evidence[0] == ("remark-1 floor not applicable: no located zero "
                               "has Re(z) - r > line_tol = 1/1000000000")
    assert rep.evidence[2].startswith("lower-bound inequality observed (worst margin ")


def test_report_says_when_every_min_norm_system_is_singular():
    # 5 on-line ordinates, and only n m = 2 and 4 rows: NSingular at every n
    rep = run_criterion_report(_cfg(r=0, n_schedule=(1, 2),
                                    rect="-2,1,-20,20", T=20))
    assert len(rep.C.ordinates) == 5
    assert rep.evidence[2] == ("lower-bound inequality not checked: the min-norm "
                               "system is singular at every n")
    assert rep.verdict == "consistent-zero-free"


def test_report_refuses_an_out_of_range_r_before_the_census(monkeypatch):
    def spent(*args, **kwargs):
        raise AssertionError("census work before the shift was checked")

    cfg = _cfg(r=10 ** 30, n_schedule=(1, 2), rect="-2,1,-20,20", T=20)
    for name in ("strip_bounds", "find_zeros", "constant_C"):
        monkeypatch.setattr(experiments, name, spent)
    with pytest.raises(ValueError):
        run_criterion_report(cfg)


def test_report_refuses_a_non_positive_height_before_the_sweep(monkeypatch, capsys):
    def spent(*args, **kwargs):
        raise AssertionError("sweep work before the height was checked")

    for T in (0, -2):
        with pytest.raises(ValueError, match="T must be > 0"):
            config_from_json({"poly": "1:1,2:-1", "T": T})
    monkeypatch.setattr(experiments, "run_distance_sweep", spent)
    assert main(["report", "--poly", "1:1,2:-1", "--r", "0", "--rect=-2,1,-20,20",
                 "--height", "0"]) == 1
    assert capsys.readouterr().err == "xdp: T must be > 0, got 0\n"


def test_report_requires_rect_and_height():
    with pytest.raises(ValueError):
        run_criterion_report(_cfg(r=0, n_schedule=(1, 2)))
    with pytest.raises(ValueError):
        run_criterion_report(_cfg(r=0, n_schedule=(1, 2), rect="-1,1,-2,2"))
