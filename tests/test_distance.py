"""Inner products, Gram systems, and approximation distances.

Pinned closed forms (derived by hand, checked against quadrature here):
for P = 1 - 2^{-s} at r = 0 the single-generator data is
  <rho_1, rho_1> = 2 - sqrt(2),   <rho_1, 1> = 1 - sqrt(2)/2,
  d_1^2 = (2 + sqrt(2))/4,        optimal b_1 = 1/2,  E([1]) = 1.
Independent oracles: tanh-sinh quadrature of the step products over their
breakpoint partition, and k * <rho_k, 1> = P(r + 1/2).
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from xdp import distance
from xdp.dpcore import DirichletPolynomial, dp_eval, kappa_partial_sums
from xdp.distance import (
    _build_gram,
    _indicator_inner_profile,
    _pair_inner,
    approximant_distance,
    distance_profile,
    distance_squared,
    gram_system,
    mellin_identity_residual,
)
from xdp.errors import PrecisionExhausted
from xdp.exact import GaussianRational, to_mp
from xdp.linalg import ldl_profile
from xdp.precision import working

P_ONE = DirichletPolynomial.parse("1:1")
P_BASE = DirichletPolynomial.parse("1:1,2:-1")
P_MIX = DirichletPolynomial.parse("1:1,2:1i,3:-1/2")


def rho_inner(P, r, j, k, bits):
    """<rho_j, rho_k> at the requested precision."""
    prof = kappa_partial_sums(P, r, bits=bits)
    with working(bits):
        return to_mp(_pair_inner(prof, j, k))


def indicator_inner(P, r, k, bits):
    """<rho_k, 1> at the requested precision."""
    prof = kappa_partial_sums(P, r, bits=bits)
    with working(bits):
        return to_mp(_indicator_inner_profile(prof, k))


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


def test_gram_system_reciprocal_max_structure():
    # P == 1: rho_k is the indicator of (0, 1/k], so G[j][k] = 1/max(j+1,k+1)
    # (0-indexed) and g[k] = 1/(k+1)
    gs = gram_system(P_ONE, 0, 6, bits=256)
    assert gs.n == 6
    assert gs.dropped == 0
    assert gs.min_pivot > 0
    assert gs.precision_bits == 256
    with working(256):
        for i in range(6):
            for j in range(6):
                assert abs(gs.G[i][j] - mpf(1) / max(i + 1, j + 1)) < mpf(2) ** -250
        for k in range(6):
            assert abs(gs.g[k] - mpf(1) / (k + 1)) < mpf(2) ** -250


def test_gram_system_hermitian_psd():
    gs = gram_system(P_MIX, 0, 8, bits=192)
    with working(192):
        for i in range(8):
            assert abs(mp.im(gs.G[i][i])) < mpf(2) ** -180
            for j in range(8):
                assert abs(gs.G[i][j] - mp.conj(gs.G[j][i])) < mpf(2) ** -180
        assert gs.min_pivot > 0


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


def test_profile_mpc_twin_identical():
    # the cache returns every entry as mpc; zero imaginary parts change nothing
    G, g = _build_gram(P_BASE, 0, 16, 256)
    with working(256):
        twin = ldl_profile([[mpc(x, 0) for x in row] for row in G],
                           [mpc(x, 0) for x in g])
        plain = ldl_profile(G, g)
    assert twin.d_squared == plain.d_squared
    assert twin.pivots == plain.pivots


def test_build_gram_exact_matches_per_pair_build():
    n = 24
    for P in (P_BASE, P_MIX):
        prof = kappa_partial_sums(P, Fraction(1, 2), bits=192)
        assert prof.exact
        G, g = _build_gram(P, Fraction(1, 2), n, 192)
        with working(192):
            for j in range(1, n + 1):
                for k in range(j, n + 1):
                    v = _pair_inner(prof, j, k)
                    assert isinstance(v, GaussianRational)
                    assert G[k - 1][j - 1] == to_mp(v)
                    assert G[j - 1][k - 1] == mp.conj(to_mp(v))
                w = _indicator_inner_profile(prof, j)
                assert g[j - 1] == mp.conj(to_mp(w))



@pytest.mark.parametrize("bits", [128, 256])
def test_mpf_gram_entries_within_one_ulp(bits):
    # 1 - 2^{-s} at r = 0 has the irrational kappa profile (1, 1 - sqrt 2):
    # its mixed-sign step sums run with guard bits and round once per entry
    n = 48
    G, _ = _build_gram(P_BASE, 0, n, bits)
    ref, _ = _build_gram(P_BASE, 0, n, 700)
    with working(700):
        tol = mpf(2) ** -(bits - 1)
        for j in range(n):
            for k in range(n):
                assert abs(G[j][k] - ref[j][k]) <= tol * abs(ref[j][k]), (j, k)

def _band_gram(bits):
    # pivot 2^{-3 bits / 8} sits in [2^{-bits/2}, 2^{-bits/4}) at every precision
    with working(bits):
        z = mpf(0)
        return ([[mpf(1), z], [z, mpf(2) ** -(3 * bits // 8)]],
                [mpf(1) / 2, mpf(2) ** -(3 * bits // 16)])


def test_profile_escalates_then_exhausts(monkeypatch):
    calls = []

    def real_build(P, r, n, bits):
        calls.append(bits)
        return _build_gram(P, r, n, bits)

    def band_build(P, r, n, bits):
        calls.append(bits)
        return _band_gram(bits)

    # an indeterminate cached system is rebuilt at doubled precision
    monkeypatch.setattr(distance, "_build_gram", real_build)
    _, _, prof, used = distance._audited_profile(P_BASE, 0, 2, 128, *_band_gram(128))
    assert used == 256 and calls == [256]
    assert prof.d_squared == [res.d_squared for res in distance_profile(P_BASE, 0, 2, bits=256)]
    # three doublings, then PrecisionExhausted
    calls.clear()
    monkeypatch.setattr(distance, "_build_gram", band_build)
    with pytest.raises(PrecisionExhausted):
        distance_profile(P_BASE, 0, 2, bits=128)
    assert calls == [128, 256, 512, 1024]
    with pytest.raises(PrecisionExhausted):
        distance_squared(P_BASE, 0, 2, bits=128)


def test_profile_reports_escalated_precision(monkeypatch):
    # 2^-48 is indeterminate at 128 bits and decided at 256
    def fake(P, r, n, bits):
        with working(bits):
            z = mpf(0)
            return [[mpf(1), z], [z, mpf(2) ** -48]], [mpf(1) / 2, mpf(2) ** -25]
    monkeypatch.setattr(distance, "_build_gram", fake)
    prof = distance_profile(P_BASE, 0, 2, bits=128)
    assert [res.precision_bits for res in prof] == [256, 256]
    assert [res.d_squared for res in prof] == [mpf(3) / 4, mpf(1) / 2]
    assert distance_squared(P_BASE, 0, 2, bits=128).precision_bits == 256


def test_approximant_distance_pinned():
    with working(256):
        # E([1]) = 1 - 2(1 - sqrt2/2) + (2 - sqrt2) = 1, exactly
        e1 = approximant_distance(P_BASE, 0, [1], bits=256)
        assert abs(e1 - 1) < mpf(2) ** -245
        # at the optimum it matches d^2 and dominates it nearby
        opt = distance_squared(P_BASE, 0, 1, method="projection", bits=256)
        e_opt = approximant_distance(P_BASE, 0, opt.coeffs, bits=256)
        assert abs(e_opt - opt.d_squared) < mpf(2) ** -200
        for delta in ("0.01", "-0.02"):
            e = approximant_distance(P_BASE, 0, [opt.coeffs[0] + mpf(delta)], bits=256)
            assert e > e_opt - mpf(2) ** -200


def test_approximant_distance_multi_n():
    with working(192):
        opt = distance_squared(P_MIX, 0, 4, method="projection", bits=192)
        e = approximant_distance(P_MIX, 0, opt.coeffs, bits=192)
        assert abs(e - opt.d_squared) < mpf(2) ** -150


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
        gram_system(P_BASE, 0, 0)
    with pytest.raises(ValueError):
        approximant_distance(P_BASE, 0, [])
