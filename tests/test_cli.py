"""Command-line entry points, exit codes, and file outputs."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from xdp import cli, lubinsky
from xdp.cli import main
from xdp.lubinsky import min_norm
from xdp.numio import mp_to_str
from xdp.precision import working


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["not-a-command"]) == 1


def test_distance_writes_csv(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["distance", "--poly", "1:1,2:-1", "--r", "0",
                 "--schedule", "1,2", "--precision", "128",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "d_squared", "d_squared_times_log_n",
                       "precision_bits", "min_pivot"]
    assert rows[1][0] == "1"
    assert rows[1][1].startswith("0.85355339059327376220")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_distance_stdout_matches_out_file(fmt, tmp_path, capsys):
    argv = ["distance", "--poly", "1:1,2:-1", "--r", "1/2", "--schedule", "1,3",
            "--precision", "128", "--format", fmt]
    out = tmp_path / f"d.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_distance_bad_poly_exits_1(tmp_path):
    assert main(["distance", "--poly", "0:1", "--r", "0",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["distance", "--poly", "1:1", "--precision", "16",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_zeros_json_report(tmp_path):
    out = tmp_path / "z.json"
    code = main(["zeros", "--poly", "1:1,2:-1", "--rect=-1,1,0.5,10",
                 "--precision", "192", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["poly"] == "1:1,2:-1"
    assert payload["count"] == 1
    (z,) = payload["zeros"]
    assert z["mult"] == 1
    with working(192):
        assert abs(mpf(z["re"])) < mpf(10) ** -25
        assert abs(mpf(z["im"]) - 2 * mp.pi / mp.log(2)) < mpf(10) ** -25
        assert mpf(z["residual"]) < mpf(10) ** -30


def test_zeros_boundary_zero_exits_2(tmp_path):
    assert main(["zeros", "--poly", "1:1,2:-1", "--rect=-1,1,0,10",
                 "--out", str(tmp_path / "z.json")]) == 2


@pytest.mark.parametrize("argv, option, value", [
    (["zeros", "--poly", "1:1,2:-1", "--precision", "128"], "--rect", "-1,1,1/2,20"),
    (["constant-c", "--poly", "1:1,2:-1", "--height", "10", "--precision", "128"],
     "--r", "-1/2"),
    (["lubinsky", "--n-grid", "4,8", "--precision", "64"], "--u", "-1/2"),
    (["min-norm", "--n", "4", "--precision", "64"], "--t", "-1/2,3"),
])
def test_negative_option_values(argv, option, value, capsys):
    # "--opt -value" reads the same as "--opt=-value"
    assert main(argv + [option, value]) == 0
    spaced = capsys.readouterr()
    assert main(argv + [f"{option}={value}"]) == 0
    assert spaced.out == capsys.readouterr().out
    assert spaced.err == ""
    # a missing value is still missing, not the next option
    assert main(argv + [option, "--precision=64"]) == 1
    assert "expected one argument" in capsys.readouterr().err


def test_constant_c_json(tmp_path):
    out = tmp_path / "c.json"
    code = main(["constant-c", "--poly", "1:1,2:-1", "--r", "0",
                 "--height", "25", "--precision", "128", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["ordinates"]) == 5
    assert payload["multiplicities"] == [1] * 5
    assert payload["line_tolerance"] == "1/1000000000"
    with working(128):
        partial = mpf(payload["partial"])
        tail = mpf(payload["tail_bound"])
        target = mp.log(2) / mp.tanh(mp.log(2) / 4)
        assert abs(partial + tail / 2 - target) <= tail


def test_min_norm_json(tmp_path):
    out = tmp_path / "m.json"
    assert main(["min-norm", "--n", "2", "--t", "0",
                 "--precision", "128", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 2
    assert payload["t"] == ["0.0"]
    with working(128):
        assert abs(mpf(payload["value"]) - (2 + mp.sqrt(2)) / 4) < mpf(10) ** -30
        assert mpf(payload["interp_residual"]) < mpf(10) ** -30
    # duplicate ordinates are a mathematical failure
    assert main(["min-norm", "--n", "2", "--t", "0,0",
                 "--out", str(tmp_path / "m2.json")]) == 2


def test_min_norm_prints_the_library_residual(monkeypatch, capsys):
    # one pass of the stream: the residual comes from the kernel sums the
    # value is factored from, with no second evaluation of psi
    passes = []
    stream = lubinsky._psi_stream

    def spy(n, ts, P):
        passes.append(n)
        return stream(n, ts, P)
    monkeypatch.setattr(lubinsky, "_psi_stream", spy)
    assert main(["min-norm", "--n", "40", "--t", "0,5/2,-7", "--precision", "128"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert passes == [40]
    sol = min_norm(40, [Fraction(0), Fraction(5, 2), Fraction(-7)], bits=128)
    assert payload["interp_residual"] == mp_to_str(sol.residual, 128)
    assert payload["value"] == mp_to_str(sol.value, 128)


@pytest.mark.parametrize("n", [0, -3])
def test_min_norm_order_below_one_exits_1(n, capsys):
    # a single n is not a grid, and the message says so
    assert main(["min-norm", f"--n={n}", "--t", "1"]) == 1
    assert capsys.readouterr().err == f"xdp: need n >= 1, got {n}\n"


def test_lubinsky_csv(tmp_path):
    out = tmp_path / "l.csv"
    assert main(["lubinsky", "--u", "0", "--n-grid", "4,8",
                 "--precision", "128", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "u", "K_n", "ratio"]
    assert [row[0] for row in rows[1:]] == ["4", "8"]
    with working(128):
        k4 = 1 + mp.fsum((mp.sqrt(k) - mp.sqrt(k - 1)) ** 2 for k in (2, 3, 4))
        assert abs(mpf(rows[1][2]) - k4) < mpf(10) ** -20
        assert abs(mpf(rows[1][3]) - k4 / (mp.log(4) / 4)) < mpf(10) ** -15


def test_lubinsky_off_zero_to_10_12(capsys):
    # u != 0 by Euler-Maclaurin past the start: the ratio rises strictly
    # toward 1 + 4u^2 up to n = 10^12
    grid = "10000,100000,1000000,1000000000,1000000000000"
    assert main(["lubinsky", "--u", "9.06472", "--n-grid", grid]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [row[0] for row in rows] == grid.split(",")
    with working(256):
        limit = 1 + 4 * mpf("9.06472") ** 2
        ratios = [mpf(row[3]) for row in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < limit


def test_report_and_decay_fit(tmp_path):
    rep_out = tmp_path / "rep.json"
    code = main(["report", "--poly", "1:1,2:-1", "--r", "-1",
                 "--schedule", "1,2,4", "--rect=-2,1,-20,20",
                 "--height", "20", "--precision", "128", "--out", str(rep_out)])
    assert code == 0
    payload = json.loads(rep_out.read_text())
    assert payload["verdict"] == "consistent-zeros-present"
    assert payload["zeros"]["count"] == 5
    assert any("floor" in line for line in payload["evidence"])

    fit_out = tmp_path / "fit.json"
    assert main(["decay-fit", "--poly", "1:1", "--r", "0",
                 "--schedule", "1,2,4", "--out", str(fit_out)]) == 0
    fit = json.loads(fit_out.read_text())
    assert fit["slope"] == "-inf"


def test_report_constant_polynomial(capsys):
    # m = 1 has no zeros and no strip edges: they are written as null
    assert main(["report", "--poly", "1:1", "--r", "0", "--schedule", "1,2",
                 "--rect=-1,1,-2,2", "--height", "5", "--precision", "128"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strip"] == {"alpha": None, "beta": None, "no_zeros": True}
    assert payload["verdict"] == "consistent-zero-free"


def test_lubinsky_beyond_2048_bits(tmp_path):
    out = tmp_path / "l.csv"
    assert main(["lubinsky", "--u", "0", "--n-grid", "2000",
                 "--precision", "2600", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert [row[0] for row in rows[1:]] == ["2000"]


def test_validate_subset_and_bad_suite(capsys, tmp_path):
    assert main(["validate", "--suite", "nonsense"]) == 1
    assert main(["validate", "--suite", "acceptance", "--criteria", "2"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    assert main(["validate", "--suite", "acceptance", "--criteria", "0"]) == 1


def test_cache_gc_cli(tmp_path, capsys):
    assert main(["cache-gc", "--cache-dir", str(tmp_path),
                 "--max-bytes", "1000"]) == 0
    assert "0" in capsys.readouterr().out


def test_cache_gc_refuses_a_negative_limit(tmp_path, capsys):
    entry = tmp_path / "xdp-gram-0.json"
    entry.write_text("{}")
    argv = ["cache-gc", "--cache-dir", str(tmp_path), "--max-bytes"]
    assert main(argv + ["-1"]) == 1
    assert entry.exists()
    assert capsys.readouterr().err == "xdp: max_bytes must be >= 0, got -1\n"
    # 0 still evicts every entry
    assert main(argv + ["0"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert not entry.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"poly": "1:1,2:-1", "r": "0",
                                    "schedule": [1, 2],
                                    "precision_bits": 128}))
    out = tmp_path / "d.csv"
    code = main(["distance", "--config", str(cfg_file),
                 "--schedule", "1", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 2                      # header + single overridden row
    assert rows[1][3] == "128"                 # file setting survives



def _refuse(*args, **kwargs):
    raise AssertionError("the library ran before the output path was checked")


@pytest.mark.parametrize("command, entry, argv", [
    ("distance", "run_distance_sweep", ["--poly", "1:1,2:-1", "--r", "0"]),
    ("report", "run_criterion_report", ["--poly", "1:1,2:-1", "--r", "0",
                                        "--rect=-1,1,-5,5", "--height", "5"]),
    ("lubinsky", "kernel_asymptotics_report", ["--u", "0", "--n-grid", "2,4"]),
    ("min-norm", "min_norm", ["--n", "4", "--t", "0,1"]),
])
def test_bad_out_fails_before_computing(command, entry, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, entry, _refuse)
    assert main([command, *argv, "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    assert "does not exist" in capsys.readouterr().err
    assert main([command, *argv, "--out", str(tmp_path)]) == 1
    assert "is a directory" in capsys.readouterr().err


def test_config_output_checked_before_computing(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"poly": "1:1,2:-1",
                                    "output": str(tmp_path / "missing" / "x.csv")}))
    monkeypatch.setattr(cli, "run_distance_sweep", _refuse)
    assert main(["distance", "--config", str(cfg_file)]) == 1
    assert "does not exist" in capsys.readouterr().err

@pytest.mark.parametrize("entry", [
    {"r": [1]}, {"rect": 5}, {"rect": [1, 2]}, {"schedule": [1, "a"]},
    {"schedule": 5}, {"poly": 5}, {"T": [1]}, {"precision_bits": [1]},
    {"line_tol": {}}, {"output": 5}, {"cache_dir": 5}, {"r": "1/0"},
    {"r": float("inf")}, {"r": float("nan")}, {"T": float("inf")},
    {"rect": [0, 1, 0, float("inf")]}, {"rect": [float("nan"), 1, 0, 1]},
    {"r": "abc"}, {"line_tol": "1/0"},
])
def test_config_value_of_wrong_type_exits_1(entry, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"poly": "1:1,2:-1", **entry}))
    assert main(["distance", "--config", str(cfg_file), "--n-max", "2"]) == 1
    # one "xdp:" line, and it names the setting
    (key,) = entry
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"xdp: {key} "), lines


@pytest.mark.parametrize("argv", [
    ["constant-c", "--poly", "1:1,2:-1", "--height", "1/0"],
    ["constant-c", "--poly", "1:1,2:-1", "--height", "1e400"],
    ["zeros", "--poly", "1:1,2:-1", "--rect", "0,1/0,0,1"],
    ["zeros", "--poly", "1:1,2:-1", "--rect", "-1,1,1,2", "--tol", "1/0"],
    ["zeros", "--poly", "1:1/0,2:-1", "--rect", "-1,1,1,2"],
    ["zeros", "--poly", "1:1,2:1/0i", "--rect", "-1,1,1,2"],
    ["zeros", "--poly", "1:1,2:-1", "--rect", "0,1,0,1e400"],
    ["distance", "--poly", "1:1/0,2:-1", "--n-max", "2"],
    ["lubinsky", "--u", "1/0", "--n-grid", "10"],
    ["min-norm", "--n", "3", "--t", "1/0"],
])
def test_number_out_of_range_exits_1(argv):
    # zero denominators and values outside double range are input errors
    assert _assert_exit_contract(argv) == 1


# Small rationals with 0, repeats and negative values well represented.
_SMALL_RATIONALS = st.one_of(
    st.sampled_from(["0", "1/2", "-1/2", "9", "-3"]),
    st.fractions(min_value=-12, max_value=12, max_denominator=6).map(str))
_CONTRACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _assert_exit_contract(argv):
    # exit 0, 1 or 2; a failure says so in exactly one "xdp:" line
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("xdp:"), (argv, lines)
    return code


@_CONTRACT
@given(grid=st.one_of(st.lists(st.integers(-2, 40), min_size=1, max_size=4),
                     st.sets(st.integers(2, 40), min_size=1, max_size=4).map(sorted)),
       u=_SMALL_RATIONALS, bits=st.sampled_from([64, 128]))
def test_lubinsky_exit_contract(grid, u, bits):
    _assert_exit_contract(["lubinsky", f"--u={u}",
                           "--n-grid=" + ",".join(map(str, grid)),
                           f"--precision={bits}"])


@_CONTRACT
@given(n=st.integers(-2, 40), ts=st.lists(_SMALL_RATIONALS, min_size=1, max_size=4),
       bits=st.sampled_from([64, 128]))
def test_min_norm_exit_contract(n, ts, bits):
    _assert_exit_contract(["min-norm", f"--n={n}", "--t=" + ",".join(ts),
                           f"--precision={bits}"])


# Polynomials with m = 1, real, complex and multiple zeros; rectangles left
# of the axis and through the zeros of 1 - 2^{-s} at 2 pi i k / log 2 (an
# edge on Re = 0 or Im = 0 runs through the zero at 0).
_POLYS = st.one_of(
    st.sampled_from(["1:1", "1:-3/2", "1:1,2:-1", "1:1,2:-1-1i", "1:1,2:-2,4:1",
                     "1:1,2:-1/4"]),
    st.tuples(_SMALL_RATIONALS, _SMALL_RATIONALS, _SMALL_RATIONALS).map(
        lambda c: f"1:1,2:{c[0]}+{c[1]}i,3:{c[2]}i".replace("+-", "-")))
_EDGES = st.lists(st.sampled_from(["0", "-1", "-3", "1/2", "2", "-5/2"]),
                  min_size=2, max_size=2, unique=True).map(
    lambda e: sorted(e, key=Fraction))


@_CONTRACT
@given(poly=_POLYS, x=_EDGES, y=_EDGES, bits=st.sampled_from([64, 128]))
def test_zeros_exit_contract(poly, x, y, bits):
    rect = f"{x[0]},{x[1]},{y[0]},{y[1]}"
    _assert_exit_contract(["zeros", "--poly", poly, "--rect", rect,
                           "--precision", str(bits)])


@_CONTRACT
@given(poly=_POLYS, r=_SMALL_RATIONALS,
       height=st.sampled_from(["1/2", "3", "10", "0", "-2"]),
       bits=st.sampled_from([64, 128]))
def test_constant_c_exit_contract(poly, r, height, bits):
    _assert_exit_contract(["constant-c", "--poly", poly, "--r", r,
                           "--height", height, "--precision", str(bits)])


# Sweep inputs: m = 1, multiple zeros, complex coefficients and coefficients
# near 1e300 and 1e-300, whose terms leave double range.
_SWEEP_POLYS = st.one_of(
    st.sampled_from(["1:1", "1:1,2:-1", "1:1,2:-2,4:1", "1:1,2:1e300",
                     "1:1e300,2:-1", "1:1,2:-3e-300", "1:1,2:-1-1i"]),
    st.tuples(_SMALL_RATIONALS, _SMALL_RATIONALS).map(
        lambda c: f"1:1,2:{c[0]},3:{c[1]}i"))
_SWEEP_CONTRACT = settings(max_examples=30, deadline=None, derandomize=True,
                           database=None)


@_SWEEP_CONTRACT
@given(poly=_SWEEP_POLYS, r=_SMALL_RATIONALS, n=st.integers(-1, 6),
       bits=st.sampled_from([64, 128]))
def test_distance_exit_contract(poly, r, n, bits):
    _assert_exit_contract(["distance", "--poly", poly, f"--r={r}",
                           f"--n-max={n}", f"--precision={bits}"])


@_SWEEP_CONTRACT
@given(poly=_SWEEP_POLYS, r=_SMALL_RATIONALS, n=st.integers(-1, 4),
       x=_EDGES, y=_EDGES, height=st.sampled_from(["1/2", "2", "3", "0"]),
       bits=st.sampled_from([64, 128]))
def test_report_exit_contract(poly, r, n, x, y, height, bits):
    _assert_exit_contract(["report", "--poly", poly, f"--r={r}", f"--n-max={n}",
                           f"--rect={x[0]},{x[1]},{y[0]},{y[1]}",
                           f"--height={height}", f"--precision={bits}"])


@_SWEEP_CONTRACT
@given(poly=_SWEEP_POLYS, r=_SMALL_RATIONALS, n=st.sampled_from([4, 6, 8, 2, -1]),
       bits=st.sampled_from([64, 128]))
def test_decay_fit_exit_contract(poly, r, n, bits):
    _assert_exit_contract(["decay-fit", "--poly", poly, f"--r={r}",
                           f"--n-max={n}", f"--precision={bits}"])
