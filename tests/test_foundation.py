"""Exact arithmetic, precision policy, and serialization round-trips."""

import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import xdp
from xdp.exact import GaussianRational, as_fraction, fraction_to_mpf, to_mp
from xdp.numio import mp_to_str, str_to_mp
from xdp.precision import (
    DEFAULT_PRECISION_BITS,
    resolve_bits,
    working,
)

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
