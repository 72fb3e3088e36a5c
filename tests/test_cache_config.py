"""Profile cache persistence and experiment configuration."""

import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest

from xdp.cache import CACHE_VERSION, cache_gc, cache_path, load_gram, store_gram
from xdp.config import (DEFAULT_SCHEDULE, ExperimentConfig, config_from_json,
                        geometric_schedule, parse_rect, parse_schedule)
from xdp.distance import _audited_profile
from xdp.dpcore import DirichletPolynomial
from xdp.experiments import run_distance_sweep
from xdp.zeros import Rectangle

P_BASE = DirichletPolynomial.parse("1:1,2:-1")


def _profile(n, r=0, bits=128):
    return _audited_profile(P_BASE, r, n, bits)[1]


def test_store_load_roundtrip(tmp_path):
    prof = _profile(3)
    path = store_gram(tmp_path, P_BASE, 0, 128, prof, 128)
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["version"] == CACHE_VERSION == 3
    assert payload["poly"] == "1:1,2:-1"
    assert payload["r"] == "0"
    assert payload["n"] == 3
    assert payload["precision_bits"] == 128
    assert payload["dropped"] == 0
    assert len(payload["d_squared"]) == len(payload["pivots"]) == 3
    assert isinstance(payload["d_squared"][0], str)

    loaded, bits = load_gram(tmp_path, P_BASE, 0, 128, n_min=2)
    assert bits == 128
    assert loaded == prof            # every value bit for bit, band None


def test_store_escalated_profile(tmp_path):
    # stored under the requested precision, with the precision it used
    prof = _profile(4, bits=256)
    store_gram(tmp_path, P_BASE, 0, 128, prof, 256)
    loaded, bits = load_gram(tmp_path, P_BASE, 0, 128, n_min=4)
    assert bits == 256 and loaded == prof
    assert load_gram(tmp_path, P_BASE, 0, 256, n_min=1) is None


def test_load_misses(tmp_path):
    assert load_gram(tmp_path, P_BASE, 0, 128, n_min=1) is None
    path = store_gram(tmp_path, P_BASE, 0, 128, _profile(2), 128)
    # stored n too small for the request
    assert load_gram(tmp_path, P_BASE, 0, 128, n_min=3) is None
    # key differs in r and in precision
    assert load_gram(tmp_path, P_BASE, Fraction(1, 2), 128, n_min=1) is None
    assert load_gram(tmp_path, P_BASE, 0, 256, n_min=1) is None
    assert load_gram(tmp_path, P_BASE, 0, 128, n_min=2) is not None
    # a file of the older Gram format at the same path is a miss
    old = json.loads(path.read_text())
    old.update(version=1, G=[], g=[])
    path.write_text(json.dumps(old))
    assert load_gram(tmp_path, P_BASE, 0, 128, n_min=1) is None
    # a truncated list or a value that is not a number is a miss, not an error
    for key, val in (("pivots", old["pivots"][:1]), ("d_squared", ["0.5", "abc"])):
        path.write_text(json.dumps({**old, "version": CACHE_VERSION, key: val}))
        assert load_gram(tmp_path, P_BASE, 0, 128, n_min=1) is None


def test_version_2_profile_is_a_miss_and_overwritten(tmp_path):
    # version 2 stored d^2 from Gram entries rounded at the working precision;
    # since version 3 they are rounded once at the factorization's fixed point,
    # so the last bits move and an old file must not serve a sweep
    cache = tmp_path / "cache"
    cfg = ExperimentConfig(poly="1:1,2:-1", r=Fraction(1, 2), n_schedule=(1, 2, 4),
                           precision_bits=128, cache_dir=str(cache),
                           output=str(tmp_path / "cold.csv"))
    cold = run_distance_sweep(replace(cfg, cache_dir=None))
    path = cache_path(cache, P_BASE, Fraction(1, 2), 128)
    cache.mkdir()
    old = json.loads(store_gram(tmp_path, P_BASE, Fraction(1, 2), 128, _profile(4), 128)
                     .read_text())
    old.update(version=2, d_squared=["0.5"] * 4)
    path.write_text(json.dumps(old))
    assert load_gram(cache, P_BASE, Fraction(1, 2), 128, n_min=1) is None
    rows = run_distance_sweep(cfg)
    assert [row.d_squared for row in rows] == [row.d_squared for row in cold]
    assert json.loads(path.read_text())["version"] == CACHE_VERSION
    loaded, _ = load_gram(cache, P_BASE, Fraction(1, 2), 128, n_min=4)
    assert loaded.d_squared[3] == rows[2].d_squared


def test_load_touches_mtime_and_tolerates_corruption(tmp_path):
    path = store_gram(tmp_path, P_BASE, 0, 128, _profile(2), 128)
    os.utime(path, (1_000_000, 1_000_000))
    assert load_gram(tmp_path, P_BASE, 0, 128, n_min=1) is not None
    assert path.stat().st_mtime > 1_000_000

    path.write_text("{ not json")
    assert load_gram(tmp_path, P_BASE, 0, 128, n_min=1) is None


def test_cache_file_holds_order_n_numbers(tmp_path):
    n = 256
    path = store_gram(tmp_path, P_BASE, Fraction(1, 2), 256,
                      _profile(n, Fraction(1, 2), 256), 256)
    payload = json.loads(path.read_text())
    assert len(payload["d_squared"]) == len(payload["pivots"]) == n
    assert set(payload) == {"version", "poly", "r", "n", "precision_bits",
                            "dropped", "d_squared", "pivots"}


def test_key_separates_polynomials(tmp_path):
    other = DirichletPolynomial.parse("1:1,3:-1")
    assert cache_path(tmp_path, P_BASE, 0, 128) != cache_path(tmp_path, other, 0, 128)
    assert cache_path(tmp_path, P_BASE, 0, 128) == cache_path(
        tmp_path, DirichletPolynomial.parse("1:1,2:-1"), Fraction(0), 128)


def test_cache_gc(tmp_path):
    assert cache_gc(tmp_path, 10_000) == 0
    p_old = store_gram(tmp_path, P_BASE, 0, 128, _profile(2), 128)
    p_new = store_gram(tmp_path, P_BASE, Fraction(1, 2), 128,
                       _profile(2, Fraction(1, 2)), 128)
    os.utime(p_old, (1_000_000, 1_000_000))
    limit = p_new.stat().st_size + 1
    assert cache_gc(tmp_path, limit) == 1
    assert p_new.exists() and not p_old.exists()
    assert cache_gc(tmp_path, limit) == 0


def test_config_defaults_and_validation():
    cfg = ExperimentConfig(poly="1:1,2:-1")
    assert cfg.n_schedule == DEFAULT_SCHEDULE == (1, 2, 4, 8, 16, 32, 64, 128, 256)
    assert cfg.precision_bits == 256
    assert cfg.r == Fraction(0)
    assert cfg.format == "csv"

    with pytest.raises(ValueError):
        ExperimentConfig(poly="1:1", n_schedule=(1, 2, 2))
    with pytest.raises(ValueError):
        ExperimentConfig(poly="1:1", n_schedule=(2, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(poly="1:1", n_schedule=(0, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(poly="1:1", precision_bits=32)
    with pytest.raises(ValueError):
        ExperimentConfig(poly="1:1", format="xml")
    with pytest.raises(ValueError):
        ExperimentConfig(poly="")
    with pytest.raises(ValueError, match="line_tol"):
        ExperimentConfig(poly="1:1", line_tol=-1)
    assert ExperimentConfig(poly="1:1", line_tol=0).line_tol == 0


def test_schedule_and_rect_parsing():
    assert parse_schedule("1,2,4") == (1, 2, 4)
    assert parse_schedule(" 3 , 9 ") == (3, 9)
    with pytest.raises(ValueError):
        parse_schedule("4,2")
    with pytest.raises(ValueError):
        parse_schedule("")

    assert geometric_schedule(256) == DEFAULT_SCHEDULE
    assert geometric_schedule(100) == (1, 2, 4, 8, 16, 32, 64, 100)
    assert geometric_schedule(1) == (1,)
    with pytest.raises(ValueError):
        geometric_schedule(0)

    rect = parse_rect("-1,1,0.5,100.5")
    assert rect == Rectangle(-1, 1, Fraction(1, 2), Fraction(201, 2))
    with pytest.raises(ValueError):
        parse_rect("1,2,3")
    with pytest.raises(ValueError):
        parse_rect("1,0,0,1")


def test_config_from_json_and_overrides():
    obj = {"poly": "1:1,2:-1", "r": "1/2", "schedule": [1, 2, 4],
           "precision_bits": 128, "rect": "-1,1,0,2", "T": 25,
           "output": "out.csv", "format": "csv", "cache_dir": "/tmp/c"}
    cfg = config_from_json(obj)
    assert cfg.r == Fraction(1, 2)
    assert cfg.n_schedule == (1, 2, 4)
    assert cfg.precision_bits == 128
    assert cfg.rect == Rectangle(-1, 1, 0, 2)
    assert cfg.T == Fraction(25)
    assert cfg.cache_dir == "/tmp/c"

    merged = config_from_json(obj, overrides={"r": "0", "schedule": "1,8"})
    assert merged.r == Fraction(0)
    assert merged.n_schedule == (1, 8)
    assert merged.precision_bits == 128

    with pytest.raises(ValueError):
        config_from_json({"poly": "1:1", "format": "yaml"})
    with pytest.raises(ValueError):
        config_from_json({"poly": "1:1", "unknown_key": 1})
