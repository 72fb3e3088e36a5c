"""Dirichlet-polynomial algebra: evaluation, kappa sums, strip bounds, inverse.

Expected values are frozen closed forms; oracles are computed here with raw
mpmath/Fraction arithmetic, independent of the implementation under test.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from xdp.dpcore import (
    DirichletPolynomial,
    _mp_pair,
    _mp_terms,
    dp_eval,
    inverse_coeffs,
    kappa_partial_sums,
    strip_bounds,
)
from xdp.exact import GaussianRational, to_mp

P_ONE = DirichletPolynomial.parse("1:1")            # P == 1
P_BASE = DirichletPolynomial.parse("1:1,2:-1")      # 1 - 2^{-s}
P_PLUS = DirichletPolynomial.parse("1:1,2:1,3:1")   # 1 + 2^{-s} + 3^{-s}


# =========================================================================
# construction and the shared text format
# =========================================================================

def test_constructor_invariants():
    with pytest.raises(ValueError):
        DirichletPolynomial([0, 1])          # a_1 = 0
    with pytest.raises(ValueError):
        DirichletPolynomial([])
    p = DirichletPolynomial([1, -1, 0, 0])   # trailing zeros trimmed
    assert p.m == 2
    q = DirichletPolynomial([Fraction(1, 3), 0, GaussianRational(0, 1)])
    assert q.m == 3
    assert q.coeffs[1] == GaussianRational(0)


def test_parse_and_canonical_text():
    p = DirichletPolynomial.parse("1:1,2:-1")
    assert p.m == 2
    assert p.coeffs[0] == GaussianRational(1)
    assert p.coeffs[1] == GaussianRational(-1)
    assert p.to_text() == "1:1,2:-1"
    # sparse, fractions, complex parts
    q = DirichletPolynomial.parse("1:1/2, 4:-2/3+1/5i")
    assert q.m == 4
    assert q.coeffs[0] == GaussianRational(Fraction(1, 2))
    assert q.coeffs[1] == GaussianRational(0)
    assert q.coeffs[3] == GaussianRational(Fraction(-2, 3), Fraction(1, 5))
    assert DirichletPolynomial.parse(q.to_text()) == q
    # decimals parse exactly
    assert DirichletPolynomial.parse("1:0.25").coeffs[0] == GaussianRational(Fraction(1, 4))
    with pytest.raises(ValueError):
        DirichletPolynomial.parse("0:1")
    with pytest.raises(ValueError):
        DirichletPolynomial.parse("2:1")     # missing a_1
    with pytest.raises(ValueError):
        DirichletPolynomial.parse("1:1,1:2")  # duplicate index


def test_json_form_roundtrip():
    q = DirichletPolynomial.parse("1:1,3:-1/3+2i")
    j = q.to_json()
    assert DirichletPolynomial.from_json(j) == q
    # numeric entries accepted on read
    p = DirichletPolynomial.from_json({"coeffs": [[1, 1, 0], [2, -1, 0]]})
    assert p == P_BASE


coeff_ints = st.integers(min_value=-4, max_value=4)


@given(st.lists(coeff_ints, min_size=1, max_size=6), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_parse_format_roundtrip_property(nums, den):
    coeffs = [Fraction(v, den) for v in nums]
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    p = DirichletPolynomial(coeffs)
    assert DirichletPolynomial.parse(p.to_text()) == p


# =========================================================================
# dp_eval and the (P, P') evaluator
# =========================================================================

def derivative(P, s, bits):
    with mp.workprec(bits):
        return _mp_pair(_mp_terms(P), to_mp(s))[1]


def test_dp_eval_pinned():
    assert dp_eval(P_BASE, 0) == 0
    v = dp_eval(P_PLUS, 1, bits=256)
    with mp.workprec(256):
        expected = mpf(1) + mpf(1) / 2 + mpf(1) / 3   # 11/6
        assert abs(v - expected) < mpf(2) ** -250
    # zero of 1 - 2^{-s} at s = 2*pi*i/log 2
    with mp.workprec(256):
        s = mpc(0, 2 * mp.pi / mp.log(2))
    assert abs(dp_eval(P_BASE, s, bits=256)) < mpf(2) ** -245


def test_dp_derivative_pinned():
    # P = 1 - 2^{-s}: P'(s) = log(2) * 2^{-s}; at s=0 -> log 2
    with mp.workprec(256):
        assert abs(derivative(P_BASE, 0, 256) - mp.log(2)) < mpf(2) ** -250
    assert derivative(P_ONE, 3.7, 256) == 0
    with mp.workprec(256):
        expected = -mp.log(3) / 3
        assert abs(derivative(DirichletPolynomial.parse("1:1,3:1"), 1, 256)
                   - expected) < mpf(2) ** -250


def test_derivative_matches_finite_differences():
    # oracle: central difference, step 1e-20, 256-bit; relative 1e-10
    p = DirichletPolynomial.parse("1:2,2:-1/3,5:1+1i")
    with mp.workprec(300):
        for s in (mpc(1, 1), mpc(-2, 7), mpc(0.5, -3)):
            h = mpf(10) ** -20
            fd = (dp_eval(p, s + h, bits=300) - dp_eval(p, s - h, bits=300)) / (2 * h)
            dv = derivative(p, s, 300)
            assert abs(dv - fd) / abs(dv) < mpf(10) ** -10


# =========================================================================
# kappa profile
# =========================================================================

def test_kappa_partial_sums_pinned():
    prof = kappa_partial_sums(P_ONE, 0)
    assert list(prof.S) == [GaussianRational(1)]
    assert prof.exact

    prof = kappa_partial_sums(P_BASE, Fraction(1, 2))
    assert list(prof.S) == [GaussianRational(1), GaussianRational(0)]
    assert prof.exact
    assert prof.tail_value == GaussianRational(0)

    prof = kappa_partial_sums(P_BASE, 0, bits=256)
    assert not prof.exact
    with mp.workprec(256):
        assert abs(prof.S[0] - 1) < mpf(2) ** -250
        assert abs(prof.S[1] - (1 - mp.sqrt(2))) < mpf(2) ** -250


def test_kappa_tail_is_dp_value():
    # S_m == P(r - 1/2) for several (P, r)
    for p in (P_BASE, P_PLUS, DirichletPolynomial.parse("1:1/2,2:1/3,5:-2")):
        for r in (0, Fraction(1, 2), -1, Fraction(3, 2)):
            prof = kappa_partial_sums(p, r, bits=192)
            with mp.workprec(192):
                rq = Fraction(r)
                shift = mpf(rq.numerator) / rq.denominator - mpf(1) / 2
                want = dp_eval(p, shift, bits=192)
                got = prof.tail_value
                if isinstance(got, GaussianRational):
                    got = to_mp(got)
                assert abs(got - want) < mpf(2) ** -180


def kappa_at(profile, x):
    """kappa_r(x) from the step heights: 0 below 1, S_floor(x) up to m, S_m beyond."""
    j = min(math.floor(x), profile.m)
    return profile.S[j - 1] if j >= 1 else 0


def test_kappa_eval_steps_and_jumps():
    prof = kappa_partial_sums(P_PLUS, Fraction(1, 2))   # S = (1, 2, 3)
    assert kappa_at(prof, Fraction(1, 2)) == 0
    assert kappa_at(prof, 1) == 1
    assert kappa_at(prof, Fraction(39, 20)) == 1       # 1.95 -> floor 1
    assert kappa_at(prof, 2) == 2                      # right-closed jump
    assert kappa_at(prof, 2.5) == 2
    assert kappa_at(prof, 3) == 3
    assert kappa_at(prof, 100) == 3                    # constant tail


def test_kappa_eval_inexact_profile():
    prof = kappa_partial_sums(P_BASE, 0, bits=256)
    with mp.workprec(256):
        assert abs(kappa_at(prof, 2) - (1 - mp.sqrt(2))) < mpf(2) ** -250
        assert abs(kappa_at(prof, 100) - (1 - mp.sqrt(2))) < mpf(2) ** -250
        assert kappa_at(prof, 0.5) == 0


# =========================================================================
# strip bounds
# =========================================================================

def test_strip_bounds_pinned():
    sb = strip_bounds(P_ONE)
    assert sb.no_zeros

    sb = strip_bounds(P_BASE, bits=256)
    assert not sb.no_zeros
    with mp.workprec(256):
        assert abs(sb.alpha) < mpf(2) ** -120
        assert abs(sb.beta) < mpf(2) ** -120

    sb = strip_bounds(DirichletPolynomial.parse("1:1,2:-4"), bits=256)
    with mp.workprec(256):
        assert abs(sb.alpha - 2) < mpf(2) ** -120
        assert abs(sb.beta - 2) < mpf(2) ** -120
    assert sb.alpha <= sb.beta


def test_strip_bounds_ordering_property():
    for text in ("1:1,2:1,3:1", "1:3,2:-1/2,4:1/7", "1:1,6:-5", "1:-2,2:1+1i,3:0.5"):
        sb = strip_bounds(DirichletPolynomial.parse(text), bits=128)
        assert sb.alpha <= sb.beta


# =========================================================================
# formal Dirichlet inverse
# =========================================================================

def test_inverse_coeffs_pinned():
    inv = inverse_coeffs(P_BASE, 8)
    assert [c for c in inv.mu] == [GaussianRational(v) for v in (1, 1, 0, 1, 0, 0, 0, 1)]

    inv = inverse_coeffs(DirichletPolynomial.parse("1:1,2:1"), 8)
    # mu(2^j) = (-1)^j, zero elsewhere
    expect = {1: 1, 2: -1, 4: 1, 8: -1}
    for n in range(1, 9):
        assert inv.mu[n - 1] == GaussianRational(expect.get(n, 0))

    inv = inverse_coeffs(DirichletPolynomial.parse("1:2/3"), 5)
    assert inv.mu[0] == GaussianRational(Fraction(3, 2))   # mu(1) = 1/a_1


def poly_from_ints(nums, dens):
    coeffs = [Fraction(n, d) for n, d in zip(nums, dens)]
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return DirichletPolynomial(coeffs)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_convolution_identity_exact(nums, den, N):
    # sum_{d | n, d <= m} a_d mu(n/d) = [n == 1], exactly in rational arithmetic
    p = poly_from_ints(nums, [den] * len(nums))
    inv = inverse_coeffs(p, N)
    for n in range(1, N + 1):
        total = GaussianRational(0)
        for d in range(1, min(p.m, n) + 1):
            if n % d == 0:
                total = total + p.coeffs[d - 1] * inv.mu[n // d - 1]
        assert total == GaussianRational(1 if n == 1 else 0)


def test_convolution_identity_gaussian():
    p = DirichletPolynomial.parse("1:1+1i,2:-1/2,3:2-1/3i")
    inv = inverse_coeffs(p, 24)
    for n in (1, 2, 6, 12, 24):
        total = GaussianRational(0)
        for d in range(1, min(p.m, n) + 1):
            if n % d == 0:
                total = total + p.coeffs[d - 1] * inv.mu[n // d - 1]
        assert total == GaussianRational(1 if n == 1 else 0)
