"""Inner products, Gram data, and approximation distances.

Pinned closed forms (derived by hand, checked against quadrature here):
for P = 1 - 2^{-s} at r = 0 the single-generator data is
  <rho_1, rho_1> = 2 - sqrt(2),   <rho_1, 1> = 1 - sqrt(2)/2,
  d_1^2 = (2 + sqrt(2))/4,        optimal b_1 = 1/2,  E([1]) = 1.
Independent oracles: tanh-sinh quadrature of the step products over their
breakpoint partition, and k * <rho_k, 1> = P(r + 1/2). The breakpoint sums
below, exact in integers, are the reference the closed-form Gram build is
checked against entry for entry.
"""

import math
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, round_nearest

from bounded import run_bounded
from fixedpoint import fixed_system
from xdp import distance
from xdp.dpcore import DirichletPolynomial, dp_eval, kappa_partial_sums
from xdp.distance import (
    _build_gram,
    _rounded_gram,
    distance_profile,
    distance_squared,
    mellin_identity_residual,
)
from xdp.errors import NSingular, PrecisionExhausted
from xdp.exact import GUARD_BITS, GaussianRational, fixed_ratio, to_mp
from xdp.linalg import audited_profile, ldl_profile
from xdp.precision import working

P_ONE = DirichletPolynomial.parse("1:1")
P_BASE = DirichletPolynomial.parse("1:1,2:-1")
P_MIX = DirichletPolynomial.parse("1:1,2:1i,3:-1/2")
P_M4 = DirichletPolynomial.parse("1:1,2:-2,4:1")
P_M6 = DirichletPolynomial.parse("1:1,2:1/3,3:-1/5,4:2,5:1/7-1i,6:-1")   # lcm 60


# (P, r) pairs on which the closed-form build must equal the breakpoint one
REFERENCE_CASES = [
    ("1:1,2:-1", 0), ("1:1,2:-1/3+2/3i,3:-1/3+2/3i", 0), ("1:1,2:1i,3:-1/2", 0),
    ("1:1,2:1/2+1/2i,3:-1/3i", Fraction(1, 3)), ("1:1,2:-3,4:3,8:-1", Fraction(1, 2)),
    ("1:1,5:2,7:-1/2i", -1), ("1:1,2:1/3,3:-1/5,4:2,5:1/7-1i,6:-1", Fraction(1, 2)),
    ("1:1,6:-1/3,9:1i,12:1/5+2/7i", Fraction(1, 4)), ("1:1", 0),
    ("1:1,2:-2,4:1", Fraction(1, 3)),
]


def _integer_profile(prof):
    """(Q, L, s, prods) in Python ints: S_a = (s[a-1][0] + i s[a-1][1]) / Q,
    L = lcm(1..m) and prods[a-1][b-1] = s_a conj(s_b)."""
    Q = lcm(*(x.denominator for z in prof.S for x in (z.re, z.im)))
    s = [(z.re.numerator * (Q // z.re.denominator), z.im.numerator * (Q // z.im.denominator))
         for z in prof.S]
    prods = [[(ua * ub + va * vb, va * ub - ua * vb) for ub, vb in s] for ua, va in s]
    return Q, lcm(*range(1, len(s) + 1)), s, prods


def _pair_numerator(prods, L, j, k):
    """(re, im) with <rho_j, rho_k> = (re + i im) / (Q^2 j k L), summed over
    the merged breakpoints: over D = j k L the breakpoints 1/(j a) and
    1/(k b) are k L/a and j L/b, and on (lo, hi] rho_j is S_a with
    a = min(k L // hi, m), rho_k is S_b with b = min(j L // hi, m)."""
    m = len(prods)
    kL, jL = k * L, j * L
    top = min(kL, jL)
    pts = sorted({p for a in range(1, m + 1) for p in (kL // a, jL // a) if p <= top}
                 | {0}, reverse=True)
    re = im = 0
    for hi, lo in zip(pts, pts[1:]):
        pr, pi = prods[min(kL // hi, m) - 1][min(jL // hi, m) - 1]
        re += pr * (hi - lo)
        im += pi * (hi - lo)
    return re, im


def _indicator_numerator(s, L):
    """(re, im) with <rho_1, 1> = (re + i im) / (Q L)
    = sum_{a<m} S_a (1/a - 1/(a+1)) + S_m / m."""
    m = len(s)
    w = [L // a - L // (a + 1) for a in range(1, m)] + [L // m]
    return (sum(u * c for (u, _), c in zip(s, w)),
            sum(v * c for (_, v), c in zip(s, w)))


def reference_gram(P, r, n, bits):
    """(G, g, scale) as _build_gram lays them out, every entry from the
    breakpoint sums and rounded once with the same scale."""
    Q, L, s, prods = _integer_profile(kappa_partial_sums(P, r, bits=bits))
    top = _pair_numerator(prods, L, 1, 1)[0].bit_length() - (Q * Q * L).bit_length() + 1
    scale = top - (top & 1)
    shift = bits + GUARD_BITS - scale
    G = [[None] * n for _ in range(n)]
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            re, im = _pair_numerator(prods, L, j, k)
            x, y = (fixed_ratio(v, Q * Q * j * k * L, shift) for v in (re, im))
            G[k - 1][j - 1], G[j - 1][k - 1] = (x, y), (x, -y)
    re, im = _indicator_numerator(s, L)
    g = [(fixed_ratio(re, Q * L * k, shift + scale // 2),
          -fixed_ratio(im, Q * L * k, shift + scale // 2)) for k in range(1, n + 1)]
    return G, g, scale


def _rounded(re, im, den, bits):
    """(re + i im)/den with each part rounded once, to nearest, at bits."""
    x = mp.make_mpf(from_rational(re, den, bits, round_nearest))
    return mpc(x, mp.make_mpf(from_rational(im, den, bits, round_nearest))) if im else x


def rho_inner(P, r, j, k, bits):
    """<rho_j, rho_k> at the requested precision, from the breakpoint sum."""
    Q, L, _, prods = _integer_profile(kappa_partial_sums(P, r, bits=bits))
    re, im = _pair_numerator(prods, L, j, k)
    return _rounded(re, im, Q * Q * j * k * L, bits)


def indicator_inner(P, r, k, bits):
    """<rho_k, 1> at the requested precision, from the breakpoint sum."""
    Q, L, s, _ = _integer_profile(kappa_partial_sums(P, r, bits=bits))
    re, im = _indicator_numerator(s, L)
    return _rounded(re, im, Q * L * k, bits)


def round_fixed(v, shift):
    """The Gaussian rational v times 2^shift, each part rounded to nearest
    with ties up, as _build_gram rounds."""
    return tuple(math.floor(x * Fraction(2) ** shift + Fraction(1, 2)) for x in (v.re, v.im))


def oracle_pair_inner(prof, j, k):
    """<rho_j, rho_k> of an exact profile, merged breakpoint by breakpoint
    in Gaussian-rational arithmetic."""
    m = prof.m
    S = prof.S
    top = Fraction(1, max(j, k))
    bot = Fraction(1, m * max(j, k))
    pts = sorted(p for p in ({Fraction(1, j * a) for a in range(1, m + 1)}
                             | {Fraction(1, k * a) for a in range(1, m + 1)})
                 if bot <= p <= top)
    total = S[m - 1] * S[m - 1].conjugate() * bot
    for lo, hi in zip(pts, pts[1:]):
        mid = (lo + hi) / 2
        a = min(int(1 / (j * mid)), m)
        b = min(int(1 / (k * mid)), m)
        total = total + S[a - 1] * S[b - 1].conjugate() * (hi - lo)
    return total


def oracle_indicator_inner(prof, k):
    """<rho_k, 1> = (1/k) [sum_{a<m} S_a (1/a - 1/(a+1)) + S_m / m], exact."""
    m = prof.m
    S = prof.S
    total = S[m - 1] * Fraction(1, m)
    for a in range(1, m):
        total = total + S[a - 1] * (Fraction(1, a) - Fraction(1, a + 1))
    return total * Fraction(1, k)


def quad_rho_inner(P, r, j, k, bits=256):
    """Quadrature oracle for the generator inner product."""
    prof = kappa_partial_sums(P, r, bits=bits)
    with working(bits):
        pts = sorted({mpf(1) / (j * a) for a in range(1, P.m + 1)}
                     | {mpf(1) / (k * a) for a in range(1, P.m + 1)})

        def kappa(x):       # 0 below 1, S_floor(x) up to m, S_m beyond
            i = min(int(mp.floor(x)), P.m)
            return to_mp(prof.S[i - 1]) if i >= 1 else mpf(0)

        def f(x):
            return kappa(1 / (j * x)) * mp.conj(kappa(1 / (k * x)))

        return mp.quad(f, [mpf(0)] + pts)


def test_rho_inner_pinned():
    with working(256):
        v = rho_inner(P_BASE, 0, 1, 1, bits=256)
        assert abs(v - (2 - mp.sqrt(2))) < mpf(2) ** -245


def test_rho_inner_against_quadrature():
    cases = [(P_BASE, 0, 1, 1), (P_BASE, 0, 2, 3), (P_BASE, Fraction(1, 2), 2, 5),
             (P_MIX, 0, 1, 2), (P_MIX, -1, 3, 4), (P_ONE, Fraction(1, 2), 1, 7)]
    with working(256):
        for (P, r, j, k) in cases:
            got = rho_inner(P, r, j, k, bits=256)
            want = quad_rho_inner(P, r, j, k)
            assert abs(got - want) < mpf(10) ** -40, (P.to_text(), r, j, k)


def test_rho_inner_conjugate_symmetry():
    with working(192):
        for (j, k) in [(1, 2), (2, 5), (3, 3)]:
            a = rho_inner(P_MIX, 0, j, k, bits=192)
            b = rho_inner(P_MIX, 0, k, j, bits=192)
            assert abs(a - mp.conj(b)) < mpf(2) ** -180


def test_indicator_inner_pinned_and_mellin_at_one():
    with working(256):
        v = indicator_inner(P_BASE, 0, 1, bits=256)
        assert abs(v - (1 - mp.sqrt(2) / 2)) < mpf(2) ** -245
        # k * <rho_k, 1> = P(r + 1/2), any P, r
        for P in (P_BASE, P_MIX, P_ONE):
            for r in (0, Fraction(1, 2), -1):
                want = dp_eval(P, Fraction(r) + Fraction(1, 2), bits=256)
                for k in (1, 2, 7):
                    got = k * indicator_inner(P, r, k, bits=256)
                    assert abs(got - want) < mpf(10) ** -70


def test_build_gram_reciprocal_max_structure():
    # P == 1: rho_k is the indicator of (0, 1/k], so G[j][k] = 1/max(j+1,k+1)
    # (0-indexed) and g[k] = 1/(k+1)
    system, prof, used = distance._audited_profile(P_ONE, 0, 6, 256)
    G, g = _rounded_gram(*system, 256)
    assert len(G) == len(g) == 6
    assert prof.dropped == 0
    assert min(prof.pivots) > 0
    assert used == 256
    with working(256):
        for i in range(6):
            for j in range(6):
                assert abs(G[i][j] - mpf(1) / max(i + 1, j + 1)) < mpf(2) ** -250
        for k in range(6):
            assert abs(g[k] - mpf(1) / (k + 1)) < mpf(2) ** -250
        # pivots in the units of G: det G_k / det G_{k-1} = 1/k^2
        for k in range(6):
            assert abs(prof.pivots[k] - mpf(1) / (k + 1) ** 2) < mpf(2) ** -250


def test_build_gram_hermitian_psd():
    G, g, scale = _build_gram(P_MIX, 0, 8, 192)
    for i in range(8):
        assert G[i][i][1] == 0
        for j in range(8):
            assert G[i][j] == (G[j][i][0], -G[j][i][1])
    with working(192):
        prof = ldl_profile(G, g, 192)
    assert prof.dropped == 0 and prof.band is None
    assert min(prof.pivots) > 0


@pytest.mark.parametrize("bits", [128, 256])
def test_build_gram_equals_breakpoint_reference(bits):
    # the closed form sum_{u,v} c_u conj(c_v) / max(j u, k v) and the merged
    # breakpoint sums are the same rationals, so every rounded entry, g and
    # the scale agree exactly; complex, irrational, composite-support and
    # constant profiles at n = 64
    for poly, r in REFERENCE_CASES:
        P = DirichletPolynomial.parse(poly)
        assert _build_gram(P, r, 64, bits) == reference_gram(P, r, 64, bits), (poly, r)


_SPARSE_HIGH_DEGREE = """
from xdp.distance import distance_profile
from xdp.dpcore import DirichletPolynomial
prof = distance_profile(DirichletPolynomial.parse("1:1,10000:-1"), 0, 8, bits=128)
d2 = [res.d_squared for res in prof]
assert len(d2) == 8 and all(0 <= v <= 1 for v in d2), d2
assert all(b <= a for a, b in zip(d2, d2[1:])), d2
"""


def test_sparse_high_degree_profile():
    # two terms of degree 10^4: the Gram build walks the support, so no
    # table grows with the degree m
    done = run_bounded(["-c", _SPARSE_HIGH_DEGREE])
    assert done.returncode == 0, done.stderr


def test_lcm_from_prime_powers_equals_math_lcm():
    assert [distance._lcm_to(m) for m in range(1, 501)] == [
        lcm(*range(1, m + 1)) for m in range(1, 501)]


_SPARSE_MELLIN = """
from mpmath import mp, mpf
from xdp.distance import mellin_identity_residual
from xdp.dpcore import DirichletPolynomial
s = mp.mpc(0.5, 1)
for m in (10 ** 4, 10 ** 5):
    P = DirichletPolynomial.parse(f"1:1,{m}:-1")
    res = mellin_identity_residual(P, 0, [1] * 8, s, bits=128)
    assert res < mpf(2) ** -100, (m, res)
"""


def test_sparse_high_degree_mellin_identity():
    # Abel summation leaves one power per support point and generator, not
    # two per step of the profile: degree 10^5 takes about as long as 10^4
    done = run_bounded(["-c", _SPARSE_MELLIN])
    assert done.returncode == 0, done.stderr


def test_distance_squared_pinned():
    for method in ("projection", "det-ratio"):
        res = distance_squared(P_BASE, 0, 1, method=method, bits=256)
        with working(256):
            want = (2 + mp.sqrt(2)) / 4
            assert abs(res.d_squared - want) < mpf(10) ** -30
        assert res.n == 1
        assert res.method == method
        assert 0 <= res.d_squared <= 1
    res = distance_squared(P_BASE, 0, 1, method="projection", bits=256)
    assert res.coeffs is not None
    with working(256):
        assert abs(res.coeffs[0] - mpf(1) / 2) < mpf(2) ** -245


def test_distance_constant_polynomial_is_zero():
    for r in (0, Fraction(1, 2), -1):
        for method in ("projection", "det-ratio"):
            res = distance_squared(P_ONE, r, 5, method=method, bits=256)
            assert res.d_squared < mpf(10) ** -50


def test_methods_agree_and_profile_monotone():
    rng = random.Random(7)
    with working(256):
        for _ in range(6):
            m = rng.randint(2, 4)
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
            coeffs[0] = Fraction(rng.randint(1, 3))
            if coeffs[-1] == 0:
                coeffs[-1] = Fraction(1)
            P = DirichletPolynomial(coeffs)
            r = rng.choice([0, Fraction(1, 2), Fraction(-1, 2)])
            prof = distance_profile(P, r, 6, bits=256)
            assert len(prof) == 6
            for i, res in enumerate(prof):
                assert res.n == i + 1
                assert 0 <= res.d_squared <= 1
                alt = distance_squared(P, r, res.n, method="projection", bits=256)
                denom = max(res.d_squared, mpf(2) ** -200)
                assert abs(res.d_squared - alt.d_squared) / denom < mpf(2) ** -128
            for a, b in zip(prof, prof[1:]):
                assert b.d_squared <= a.d_squared + mpf(2) ** -200


def test_profile_matches_projection_complex():
    prof = distance_profile(P_MIX, 0, 8, bits=256)
    with working(256):
        for res in prof:
            alt = distance_squared(P_MIX, 0, res.n, method="projection", bits=256)
            denom = max(res.d_squared, alt.d_squared)
            assert denom > 0
            assert abs(res.d_squared - alt.d_squared) / denom < mpf(2) ** -128


def test_build_gram_exact_matches_per_pair_build():
    # the integer build rounds each entry once, as the Gaussian-rational
    # oracle rounded once to the fixed point gives it: every entry is ==,
    # and the helpers agree with the oracle at the working precision
    n = 24
    for bits in (128, 256):
        frac = bits + 64
        for P in (P_BASE, P_MIX, P_M4, P_M6):
            prof = kappa_partial_sums(P, Fraction(1, 2), bits=bits)
            assert prof.exact
            G, g, scale = _build_gram(P, Fraction(1, 2), n, bits)
            top = oracle_pair_inner(prof, 1, 1).re * Fraction(2) ** -scale
            assert Fraction(1, 4) <= top < 2
            with working(bits):
                for j in range(1, n + 1):
                    for k in range(j, n + 1):
                        v = oracle_pair_inner(prof, j, k)
                        assert isinstance(v, GaussianRational)
                        x, y = round_fixed(v, frac - scale)
                        assert G[k - 1][j - 1] == (x, y), (P.to_text(), bits, j, k)
                        assert G[j - 1][k - 1] == (x, -y), (P.to_text(), bits, j, k)
                        if gcd(j, k) == 1:
                            assert rho_inner(P, Fraction(1, 2), j, k, bits) == to_mp(v)
                    w = oracle_indicator_inner(prof, j)
                    x, y = round_fixed(w, frac - scale // 2)
                    assert g[j - 1] == (x, -y)
                    assert indicator_inner(P, Fraction(1, 2), j, bits) == to_mp(w)


@pytest.mark.parametrize("bits", [128, 256])
def test_mpf_gram_entries_within_one_ulp(bits):
    # irrational kappa profiles, e.g. (1, 1 - sqrt 2) for 1 - 2^{-s} at r = 0:
    # each entry is summed exactly from the steps, whose irrational powers
    # carry 32 guard bits, rounded once to 2^-(bits+64) of G_11 and, in the
    # projection's mpf form, once more at bits; (1 - 2^{1/6})^2 at r = 1/3
    # for (1 - 2^{-s})^2 cancels to about 0.015
    n = 48
    for poly, r in (("1:1,2:-1", 0), ("1:1,2:1i,3:-1/2", 0),
                    ("1:1,2:1/2+1/2i,3:-1/3i", Fraction(1, 3)),
                    ("1:1,2:-2,4:1", Fraction(1, 3))):
        P = DirichletPolynomial.parse(poly)
        assert not kappa_partial_sums(P, r, bits=bits).exact
        G, g = _rounded_gram(*_build_gram(P, r, n, bits), bits)
        ref, ref_g = _rounded_gram(*_build_gram(P, r, n, 700), 700)
        with working(700):
            tol = mpf(2) ** -(bits - 1)
            for j in range(n):
                for k in range(n):
                    assert abs(G[j][k] - ref[j][k]) <= tol * abs(ref[j][k]), (poly, j, k)
                assert abs(g[j] - ref_g[j]) <= tol * abs(ref_g[j]), (poly, j)


@pytest.mark.parametrize("bits", [128, 256])
def test_profile_against_a_768_bit_build(bits):
    # with the exact sums rounded once at 2^-(bits+64) of G_11 and no mpf
    # Gram on the way, every d^2_n, n <= 48, is within 2^-(bits-2) relative
    P = DirichletPolynomial.parse("1:1,2:1/2+1/2i,3:-1/3i")
    prof = distance_profile(P, Fraction(1, 3), 48, bits=bits)
    ref = distance_profile(P, Fraction(1, 3), 48, bits=768)
    with working(768):
        for res, want in zip(prof, ref):
            assert abs(res.d_squared - want.d_squared) <= mpf(2) ** -(bits - 2) * want.d_squared, res.n


_TINY_SHIFTS = """
from mpmath import mpf
from xdp.distance import distance_profile
from xdp.dpcore import DirichletPolynomial
P = DirichletPolynomial.parse("1:1,2:-1")
base = distance_profile(P, 0, 8, bits=256)
for r in ("1e-30", "1e-9"):
    near = distance_profile(P, r, 8, bits=256)
    assert max(abs(a.d_squared - b.d_squared) for a, b in zip(base, near)) < 2 * mpf(r)
"""


def test_tiny_shift_is_near_r_zero():
    # r = 10^-30 puts a 10^30-th root in the kappa profile, once a sweep
    # that never returned; each d^2_n, n <= 8, is within 2 r of r = 0
    done = run_bounded(["-c", _TINY_SHIFTS])
    assert done.returncode == 0, done.stderr


def _band_gram(bits):
    # pivot 2^{-3 bits / 8} sits in [2^{-bits/2}, 2^{-bits/4}) at every precision
    G, g = fixed_system([[1, 0], [0, Fraction(1, 2 ** (3 * bits // 8))]],
                        [Fraction(1, 2), Fraction(1, 2 ** (3 * bits // 16))], bits)
    return G, g, 0


def test_profile_escalates_then_exhausts(monkeypatch):
    calls = []

    def band_at_128(P, r, n, bits):
        calls.append(bits)
        return _band_gram(bits) if bits == 128 else _build_gram(P, r, n, bits)

    def band_build(P, r, n, bits):
        calls.append(bits)
        return _band_gram(bits)

    # an indeterminate system is rebuilt at doubled precision
    monkeypatch.setattr(distance, "_build_gram", band_at_128)
    _, prof, used = distance._audited_profile(P_BASE, 0, 2, 128)
    assert used == 256 and calls == [128, 256]
    monkeypatch.undo()
    assert prof.d_squared == [res.d_squared for res in distance_profile(P_BASE, 0, 2, bits=256)]
    # three doublings, then PrecisionExhausted, on every d^2 path
    monkeypatch.setattr(distance, "_build_gram", band_build)
    for method in ("det-ratio", "projection"):
        calls.clear()
        with pytest.raises(PrecisionExhausted):
            distance_squared(P_BASE, 0, 2, method=method, bits=128)
        assert calls == [128, 256, 512, 1024]
    with pytest.raises(PrecisionExhausted):
        distance_profile(P_BASE, 0, 2, bits=128)


def test_profile_reports_escalated_precision(monkeypatch):
    # 2^-48 is indeterminate at 128 bits and decided at 256
    def fake(P, r, n, bits):
        G, g = fixed_system([[1, 0], [0, Fraction(1, 2 ** 48)]],
                            [Fraction(1, 2), Fraction(1, 2 ** 25)], bits)
        return G, g, 0
    monkeypatch.setattr(distance, "_build_gram", fake)
    prof = distance_profile(P_BASE, 0, 2, bits=128)
    assert [res.precision_bits for res in prof] == [256, 256]
    assert [res.d_squared for res in prof] == [mpf(3) / 4, mpf(1) / 2]
    assert distance_squared(P_BASE, 0, 2, bits=128).precision_bits == 256
    proj = distance_squared(P_BASE, 0, 2, method="projection", bits=128)
    assert proj.precision_bits == 256
    assert proj.d_squared == mpf(1) / 2


def test_projection_refuses_a_dropped_generator(monkeypatch):
    # LU has no drop rule: a generator the audit drops (here the second of
    # two equal ones, pivot 0) is an NSingular on the projection, while the
    # profile goes on without it
    def dependent(P, r, n, bits):
        return (*fixed_system([[1, 1], [1, 1]], [1, 1], bits), 0)
    monkeypatch.setattr(distance, "_build_gram", dependent)
    assert distance_squared(P_BASE, 0, 2, bits=128).d_squared == 0
    with pytest.raises(NSingular) as err:
        distance_squared(P_BASE, 0, 2, method="projection", bits=128)
    assert err.value.index == 1 and err.value.pivot == 0


@pytest.mark.parametrize("bits", [128, 256])
def test_profile_solve_matches_projection_coeffs(bits):
    # x = G^{-1} g by the profile's integer back-substitution, in units of
    # 2^-(bits + GUARD_BITS + scale/2), against mpmath's LU on the rounded
    # Gram data, at n = 48
    n = 48
    for poly, r in (("1:1,2:-1", 0), ("1:1,2:1i,3:-1/2", 0),
                    ("1:1,2:1/2+1/2i,3:-1/3i", Fraction(1, 3))):
        P = DirichletPolynomial.parse(poly)
        (_, _, scale), prof, used = audited_profile(lambda p: _build_gram(P, r, n, p), bits)
        proj = distance_squared(P, r, n, method="projection", bits=bits)
        assert used == proj.precision_bits == bits
        exp = -(bits + GUARD_BITS) - scale // 2
        with working(bits + 64):
            x = [mpc(mp.ldexp(xr, exp), mp.ldexp(xi, exp)) for xr, xi in prof.solve()]
            top = max(abs(v) for v in proj.coeffs)
            err = max(abs(a - b) for a, b in zip(x, proj.coeffs))
            assert err <= mpf(2) ** -(bits - 24) * top, (poly, mp.log(err / top, 2))


def test_mellin_identity_pinned_and_random():
    with working(256):
        # P == 1, b = [1], r = 0: both sides are 1/s
        assert mellin_identity_residual(P_ONE, 0, [1], mp.mpc(0.5, 3), bits=256) < mpf(2) ** -240
        rng = random.Random(11)
        for _ in range(5):
            m = rng.randint(2, 5)
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
            coeffs[0], coeffs[-1] = Fraction(1), Fraction(rng.randint(1, 2))
            P = DirichletPolynomial(coeffs)
            b = [Fraction(rng.randint(-2, 2), 2) for _ in range(rng.randint(1, 6))]
            for s in (mpf("0.5"), mp.mpc(0.5, 1), mp.mpc(0.5, 10)):
                res = mellin_identity_residual(P, Fraction(1, 2), b, s, bits=256)
                assert res < mpf(2) ** -200
    with pytest.raises(ValueError):
        mellin_identity_residual(P_ONE, 0, [1], mp.mpc(-1, 2), bits=128)


def test_input_validation():
    with pytest.raises(ValueError):
        distance_squared(P_BASE, 0, 0)
    with pytest.raises(ValueError):
        distance_squared(P_BASE, 0, 3, method="nope")
    with pytest.raises(ValueError):
        distance_squared(P_BASE, 0, 0, method="projection")
