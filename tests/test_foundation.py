"""Exact arithmetic, the fixed-point format, precision policy, and
serialization round-trips."""

import ast
import inspect
import math
import pathlib
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

import xdp
from fixedpoint import fixed_system
from xdp.distance import distance_profile
from xdp.dpcore import DirichletPolynomial
from xdp.exact import (GaussianRational, as_fraction, fixed_mpc, fixed_mpf, fixed_ratio,
                       fraction_to_mpf, to_fixed, to_mp)
from xdp.linalg import ldl_profile
from xdp.lubinsky import min_norm
from xdp.numio import mp_to_str, str_to_mp
from xdp.precision import (
    DEFAULT_PRECISION_BITS,
    resolve_bits,
    working,
)
from xdp.zeros import Rectangle, find_zeros

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def test_as_fraction_exact_paths():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(Fraction(7, 9)) == Fraction(7, 9)
    with mp.workprec(80):
        assert as_fraction(mpf(3.5)) == Fraction(7, 2)
        assert as_fraction(mpf(0)) == Fraction(0)
        # mpf is dyadic: conversion must be exact, not approximate
        x = mpf(1) / 3
        q = as_fraction(x)
        assert fraction_to_mpf(q) == x


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_gaussian_rational_ring(a, b, c, d):
    z = GaussianRational(a, b)
    w = GaussianRational(c, d)
    # against Python complex (approximately; parts are small rationals)
    zc, wc = complex(z), complex(w)
    assert abs(complex(z * w) - zc * wc) < 1e-9
    assert abs(complex(z + w) - (zc + wc)) < 1e-12
    assert abs(complex(z - w) - (zc - wc)) < 1e-12
    # exact identities
    assert (z * w).conjugate() == z.conjugate() * w.conjugate()
    assert z * w == w * z
    assert z.abs2() == a * a + b * b
    if w:
        assert (z / w) * w == z


def test_gaussian_rational_division_exact():
    z = GaussianRational(1, 2)
    w = GaussianRational(3, -1)
    q = z / w
    assert q * w == z
    assert (1 / GaussianRational(0, 1)) == GaussianRational(0, -1)
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0, 0)


def test_gaussian_rational_from_value():
    assert GaussianRational.from_value(1 + 2j) == GaussianRational(1, 2)
    assert GaussianRational.from_value(0.25) == GaussianRational(Fraction(1, 4))
    assert GaussianRational.from_value((1, Fraction(1, 3))) == GaussianRational(1, Fraction(1, 3))
    assert str(GaussianRational(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"
    assert str(GaussianRational(2)) == "2"


def test_to_mp_real_vs_complex():
    with working(128):
        x = to_mp(GaussianRational(Fraction(1, 3)))
        assert isinstance(x, mpf)
        z = to_mp(GaussianRational(0, Fraction(1, 3)))
        assert isinstance(z, mpmath.mpc)
        assert z.real == 0


def test_precision_policy():
    assert resolve_bits(None) == DEFAULT_PRECISION_BITS == 256
    assert resolve_bits(128) == 128
    with pytest.raises(ValueError):
        resolve_bits(32)
    ambient = mp.prec
    with working(512):
        assert mp.prec == 512
    assert mp.prec == ambient


def _half_up(q: Fraction, P: int) -> int:
    return math.floor(q * Fraction(2) ** P + Fraction(1, 2))


@given(st.integers(min_value=-2**400, max_value=2**400),
       st.integers(min_value=1, max_value=2**200), st.integers(min_value=-70, max_value=300))
@settings(max_examples=300, deadline=None)
@example(1, 2, 0)            # ties go up, on both sides of zero
@example(-1, 2, 0)
@example(3, 1, -1)
@example(-3, 1, -1)
@example(5, 5, -1)
@example(-5, 5, -1)
@example(-(2**70 + 2**69), 1, -70)
@example(3, 3 * 2**300, 299)
@example(0, 7, -70)
def test_fixed_ratio_rounds_half_up(num, den, P):
    want = _half_up(Fraction(num, den), P)
    assert fixed_ratio(num, den, P) == want
    # the same value unreduced, and through to_fixed
    assert fixed_ratio(3 * num, 3 * den, P) == want
    assert to_fixed(Fraction(num, den), P) == want


def test_to_fixed_takes_every_exact_form():
    with working(80):
        third = mpf(1) / 3
    assert to_fixed(third, 100) == _half_up(as_fraction(third), 100)
    assert to_fixed(0.1, 60) == _half_up(Fraction(0.1), 60)
    assert to_fixed("-2.5", 0) == -2
    assert to_fixed(7, -1) == 4


def _once(x: int, exp: int, bits: int):
    """x 2^exp as an exact Fraction, rounded once, to nearest, at bits."""
    q = Fraction(x) * Fraction(2) ** exp
    return from_rational(q.numerator, q.denominator, bits, round_nearest)


parts = st.integers(min_value=-2**600, max_value=2**600)


@given(parts, parts, st.integers(min_value=-700, max_value=100),
       st.integers(min_value=2, max_value=400))
@settings(max_examples=200, deadline=None)
@example(2**64 + 1, -(2**64 + 3), -70, 64)      # exact ties at bits
@example(2**200 + 2**136, 0, -300, 64)
@example(0, 1, 0, 53)
def test_fixed_mpf_and_mpc_round_once(x, y, exp, bits):
    with mp.workprec(53):           # the ambient precision plays no part
        re, z = fixed_mpf(x, exp, bits), fixed_mpc(x, y, exp, bits)
    assert isinstance(re, mpf) and isinstance(z, mpmath.mpc)
    assert re._mpf_ == _once(x, exp, bits)
    assert z._mpc_ == (_once(x, exp, bits), _once(y, exp, bits))


def _raw(x):
    return x._mpc_ if isinstance(x, mpmath.mpc) else x._mpf_


def test_results_do_not_depend_on_the_ambient_precision():
    with working(256):
        A = [[mpf(1) / (i + j + 1) + (i == j) for j in range(5)] for i in range(5)]
        g = [mpf(1) / (k + 2) for k in range(5)]
    G, gf = fixed_system(A, g, 256)
    P = DirichletPolynomial.parse("1:1,2:1i,3:-1/2")
    ts = [Fraction(0), Fraction(5, 2), Fraction(-7)]

    def run():
        prof = ldl_profile(G, gf, 256)
        sol = min_norm(12, ts, bits=128, with_coeffs=True)
        zs = find_zeros(DirichletPolynomial.parse("1:1,2:-1"), Rectangle(-1, 1, 1, 10),
                        bits=128)
        return ([_raw(v) for v in prof.d_squared + prof.pivots], prof.inner,
                [_raw(r.d_squared) for r in distance_profile(P, 0, 6, bits=128)],
                [_raw(v) for v in (sol.value, sol.residual, *sol.coeffs)],
                [_raw(z) for z, _ in zs.zeros], _raw(zs.residual))
    with mp.workprec(53):
        low = run()
    with mp.workprec(1024):
        high = run()
    assert low == high
    assert len(low[-2]) == 1


@given(st.integers(min_value=1, max_value=2**256 - 1), st.integers(min_value=-400, max_value=400),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_decimal_roundtrip_exact(man, exp, neg):
    with working(256):
        x = mpf(man) * mpf(2) ** exp
        if neg:
            x = -x
    s = mp_to_str(x, 256)
    assert str_to_mp(s, 256) == x


def test_irrational_and_zero_roundtrip():
    with working(256):
        values = (mpf(2) ** mpf("0.5"), -mpf(3) ** mpf("0.5"),
                  mpf(2) ** mpf("0.5") * mpf(2) ** -3000)
    for x in values:
        assert str_to_mp(mp_to_str(x, 256), 256) == x
    assert mp_to_str(mpf(0)) == "0.0"
    assert str_to_mp(mp_to_str(mpf(0))) == 0


def test_package_exports_names_not_submodules():
    assert len(xdp.__all__) == len(set(xdp.__all__))
    for name in xdp.__all__:
        assert not isinstance(getattr(xdp, name), types.ModuleType), name
    namespace = {}
    exec("from xdp import *", namespace)
    assert set(xdp.__all__) <= set(namespace)
    failures = {name for name, obj in vars(xdp.errors).items()
                if isinstance(obj, type) and issubclass(obj, xdp.errors.XdpError)}
    assert failures <= set(xdp.__all__)


def test_every_exported_function_has_a_docstring():
    bare = [name for name in xdp.__all__ if inspect.isfunction(getattr(xdp, name))
            and not (getattr(xdp, name).__doc__ or "").strip()]
    assert bare == []


def test_no_module_imports_a_name_it_does_not_use():
    # stdlib ast in place of a linter: every name a module binds by import
    # is read by some Name node of the same module
    unused = []
    for path in sorted(pathlib.Path(xdp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
