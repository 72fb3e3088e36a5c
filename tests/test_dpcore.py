"""Dirichlet-polynomial algebra: evaluation, kappa sums, strip bounds, phases.

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

from bounded import run_bounded
from xdp import dpcore
from xdp.dpcore import (
    DirichletPolynomial,
    _factor_chain,
    _mp_pair,
    _mp_terms,
    _phases,
    _prime_phase,
    _spf_sieve,
    dp_eval,
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
    assert prof.S[-1] == GaussianRational(0)

    prof = kappa_partial_sums(P_BASE, 0, bits=256)
    assert not prof.exact
    assert prof.S[0] == 1                       # 1^e is rational: exact
    with mp.workprec(256):
        assert abs(to_mp(prof.S[1]) - (1 - mp.sqrt(2))) < mpf(2) ** -250


_SHIFT_LIMITS = """
from fractions import Fraction
from xdp.dpcore import DirichletPolynomial, _integer_root, kappa_partial_sums
assert _integer_root(2, 10 ** 30) is None and _integer_root(3, 10 ** 9) is None
assert _integer_root(2 ** 40, 40) == 2 and _integer_root(7, 1) == 7
P = DirichletPolynomial.parse("1:1,2:-1")
for r in ("1e-30", "1e-9"):
    prof = kappa_partial_sums(P, r, bits=128)
    assert not prof.exact and prof.S[0] == 1
for r in ("1e30", "-1e30", "1e8", Fraction(1, 2) - 10 ** 30):
    try:
        kappa_partial_sums(P, r, bits=128)
    except ValueError as exc:
        assert "out of range" in str(exc)
    else:
        raise AssertionError(r)
"""


def test_kappa_shifts_tiny_and_out_of_range():
    # r = 10^-30 asks _integer_root for a 10^30-th root, and r = 10^30 for
    # powers of about 10^30 bits: the root is ruled out by its bit length,
    # and the power refused with ValueError, each at once; a P with m = 1
    # needs no power, so any r goes
    done = run_bounded(["-c", _SHIFT_LIMITS])
    assert done.returncode == 0, done.stderr
    assert kappa_partial_sums(P_ONE, 10 ** 30).S == (GaussianRational(1),)


def test_kappa_tail_is_dp_value():
    # S_m == P(r - 1/2) for several (P, r)
    for p in (P_BASE, P_PLUS, DirichletPolynomial.parse("1:1/2,2:1/3,5:-2")):
        for r in (0, Fraction(1, 2), -1, Fraction(3, 2)):
            prof = kappa_partial_sums(p, r, bits=192)
            with mp.workprec(192):
                rq = Fraction(r)
                shift = mpf(rq.numerator) / rq.denominator - mpf(1) / 2
                want = dp_eval(p, shift, bits=192)
                got = prof.S[-1]
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
        assert abs(to_mp(kappa_at(prof, 2)) - (1 - mp.sqrt(2))) < mpf(2) ** -250
        assert abs(to_mp(kappa_at(prof, 100)) - (1 - mp.sqrt(2))) < mpf(2) ** -250
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


# -- prime phases: round(2^P p^{-it}) exactly -------------------------------

def _phase_reference(t, p: int, P: int):
    """round(2^P cos(t log p)), round(-2^P sin(t log p)) from mpmath at
    P + 128 bits past the magnitude of t log p."""
    with mp.workprec(P + 128 + max(0, mp.mag(t) + 8)):
        theta = t * mp.log(p)
        scale = mpf(2) ** P
        return int(mp.nint(mp.cos(theta) * scale)), int(mp.nint(-mp.sin(theta) * scale))


def _primes(n: int) -> list:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_prime_phase_rounds_to_nearest_on_the_lattice(bits):
    # t = k 2 pi / log 2 puts t log 2 within a few units of 2^-bits of a
    # multiple of 2 pi, where sin is tiny and cos within 2^-2bits of 1, and
    # 10^-13 off it; one dict of logs serves every call, as in the stream
    P = bits + 64
    logs = {}
    with mp.workprec(bits):
        step = 2 * mp.pi / mp.log(2)
        ts = [k * step for k in range(-300, 301)]
        ts += [t + mpf("1e-13") for t in ts]
    for t in ts:
        for p in (2, 3):
            got = _prime_phase(t._mpf_, p, P, logs)
            assert got == _phase_reference(t, p, P), (bits, t, p)
            assert _prime_phase(t._mpf_, p, P) == got


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_prime_phase_rounds_to_nearest_for_large_and_tiny_t(bits):
    P = bits + 64
    primes = _primes(10 ** 4)
    with mp.workprec(bits):
        ts = [mpf(10) ** 6, -mpf(10) ** 6, mpf(10) ** 12, -mpf(10) ** 12, mpf(2) ** -200]
    for t in ts:
        logs = {}
        for p in primes:
            assert _prime_phase(t._mpf_, p, P, logs) == _phase_reference(t, p, P), (bits, t, p)
    assert _prime_phase(mpf(0)._mpf_, 7, P) == (1 << P, 0)


def test_prime_phase_widens_until_the_rounding_is_decided(monkeypatch):
    # with 4 guard bits no first pass can decide (the series alone may be
    # off by more than 2^4 units), so every value takes the widening loop
    # and still rounds to nearest
    monkeypatch.setattr(dpcore, "_PHASE_GUARD", 4)
    P = 192
    with mp.workprec(128):
        ts = [mpf("0.1"), mpf(10) ** 6 + mpf("1e-13"), 7 * 2 * mp.pi / mp.log(2)]
    for t in ts:
        for p in (2, 3, 97):
            assert _prime_phase(t._mpf_, p, P) == _phase_reference(t, p, P)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("support", [(1, 2, 4, 8), (1, 6, 9, 12)])
def test_sparse_chain_phases_match_the_dense_chain(support, bits):
    # the zero engine walks only the support's chain, the psi stream every
    # k <= n: both round the same products, so at each k they agree exactly
    P = bits + 64
    m = support[-1]
    chain = _factor_chain(support, m)
    assert {k for k, _, _ in chain} >= set(support) - {1}
    spf = _spf_sieve(m)
    dense = [(k, p, k // p if p else 0) for k, p in enumerate(spf) if k]
    with mp.workprec(bits):
        ts = [mpf(0), mpf("9.06472"), mpf(10) ** 30]
    for t in ts:
        want = dict(enumerate(_phases(dense, t._mpf_, P, {}, m), 1))
        got = list(_phases(chain, t._mpf_, P, {}, m))
        assert [want[k] for k, _, _ in chain] == got, (support, bits, t)

