"""Weighted-L^2 orthonormal system, reproducing kernels, min-norm bound.

The weight is (1/2pi) dt / (1/4 + t^2). Pinned values:
  K_2(0,0) = 1 + (sqrt2 - 1)^2 = 4 - 2 sqrt2
  min_norm(2, [0]).value = 1/(4 - 2 sqrt2) = (2 + sqrt2)/4,
which coincides with d^2_{1,0} of 1 - 2^{-s}: the lower bound is tight there.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, round_nearest

from xdp import linalg, lubinsky
from xdp.distance import distance_profile
from xdp.dpcore import DirichletPolynomial
from xdp.errors import DuplicateOrdinates, NSingular, PrecisionExhausted, RemainderNotProven
from xdp.exact import GUARD_BITS
from xdp.lubinsky import (
    _EM_START,
    kernel,
    kernel_asymptotics_report,
    kernel_matrix,
    min_norm,
    psi_eval,
    psi_inner,
    psi_inner_max_deviation,
)
from xdp.precision import working


def test_psi_eval_pinned():
    with working(256):
        assert psi_eval(1, mpf("3.7"), bits=256) == 1
        v = psi_eval(2, 0, bits=256)
        assert abs(v - (mp.sqrt(2) - 1)) < mpf(2) ** -250
        # directly against the defining powers
        t = mpf("1.25")
        want = mp.power(5, mp.mpc(0.5, -t)) - mp.power(4, mp.mpc(0.5, -t))
        assert abs(psi_eval(5, t, bits=256) - want) < mpf(2) ** -245


def test_psi_inner_orthonormal():
    with working(256):
        for (n, m) in [(1, 1), (2, 2), (7, 7), (1, 5), (2, 3), (4, 12), (37, 36)]:
            want = 1 if n == m else 0
            got = psi_inner(n, m, bits=256)
            assert abs(got - want) < mpf(2) ** -235, (n, m)
        # integer four-term oracle at a bigger index
        n, m = 211, 210
        expect = (min(n, m) - min(n, m - 1) - min(n - 1, m) + min(n - 1, m - 1))
        assert abs(psi_inner(n, m, bits=256) - expect) < mpf(2) ** -230


def test_psi_inner_bulk_deviation():
    dev = psi_inner_max_deviation(120, bits=256)
    assert dev < mpf(2) ** -235
    assert dev > 0  # honest floating computation, not symbolic shortcut


@pytest.mark.parametrize("n_max", [1, 2, 17, 60])
def test_psi_inner_max_deviation_matches_exact_fractions(n_max):
    # the row-reusing integer loop against four exact Fraction terms per pair,
    # on the stream's own fixed-point sqrt(k), rounded once at the end
    bits = 256
    P = bits + GUARD_BITS
    got = psi_inner_max_deviation(n_max, bits=bits)
    s = [math.isqrt(k << (2 * P)) for k in range(n_max + 1)]
    assert s == [lubinsky._sqrt_fixed(k, P) for k in range(n_max + 1)]

    def term(a, b):
        if a == 0 or b == 0:
            return Fraction(0)
        lo, hi = (a, b) if a <= b else (b, a)
        return Fraction(s[a] * s[b] * s[lo] * ((1 << 2 * P) // s[hi]), 1 << (4 * P))

    def rounded(x):
        return from_rational(x.numerator, x.denominator, bits, round_nearest)

    want = Fraction(0)
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1):
            val = term(n, m) - term(n, m - 1) - term(n - 1, m) + term(n - 1, m - 1)
            want = max(want, abs(val - (n == m)))
            if n == n_max:
                # psi_inner is the one-pair form of the same terms
                assert psi_inner(n, m, bits=bits)._mpf_ == rounded(val)
    assert isinstance(got, mpf)
    assert got._mpf_ == rounded(want)
    if n_max > 1:
        assert got > 0


@pytest.mark.parametrize("bits", [128, 256])
def test_psi_inner_max_deviation_within_documented_bound(bits):
    # docstring bound 4 n_max^{3/2} 2^-P; the diagonal grows as n^{3/2}
    n_max = 500
    dev = psi_inner_max_deviation(n_max, bits=bits)
    with working(bits + 64):
        bound = 4 * mpf(n_max) ** 1.5 * mpf(2) ** -(bits + GUARD_BITS)
        assert 0 < dev < bound


def test_kernel_pinned_and_symmetry():
    with working(256):
        assert kernel(1, mpf("0.3"), mpf("-2"), bits=256) == 1
        v = kernel(2, 0, 0, bits=256)
        assert abs(v - (4 - 2 * mp.sqrt(2))) < mpf(2) ** -245
        # raw-power oracle for a small off-diagonal case
        u, v_ = mpf("0.5"), mpf("-1.5")
        want = mpf(0)
        for k in range(1, 6):
            pk = mp.power(k, mp.mpc(0.5, -u))
            qk = mp.power(k, mp.mpc(0.5, -v_))
            if k > 1:
                pk -= mp.power(k - 1, mp.mpc(0.5, -u))
                qk -= mp.power(k - 1, mp.mpc(0.5, -v_))
            want += pk * mp.conj(qk)
        got = kernel(5, u, v_, bits=256)
        assert abs(got - want) < mpf(2) ** -240
        assert abs(kernel(5, u, v_, bits=256) - mp.conj(kernel(5, v_, u, bits=256))) \
            < mpf(2) ** -240


def test_kernel_matrix_structure():
    t = [0, mpf("9.06"), mpf("18.13")]
    km = kernel_matrix(8, t, bits=192)
    assert km.n == 8
    assert len(km.H) == 3
    with working(192):
        for i in range(3):
            for j in range(3):
                want = kernel(8, t[i], t[j], bits=192)
                assert abs(km.H[i][j] - want) < mpf(2) ** -180
    with pytest.raises(DuplicateOrdinates):
        kernel_matrix(8, [0, mpf("1e-10")], bits=192)
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        kernel_matrix(0, [0], bits=192)


def test_min_norm_pinned():
    with working(256):
        one = min_norm(1, [mpf("4.2")], bits=256)
        assert abs(one.value - 1) < mpf(2) ** -245
        two = min_norm(2, [0], bits=256, with_coeffs=True)
        want = (2 + mp.sqrt(2)) / 4
        assert abs(two.value - want) < mpf(2) ** -245
        assert two.n == 2
        # constraint F(0) = 1 and value = sum |c_k|^2
        f0 = mp.fsum(two.coeffs[k] * psi_eval(k + 1, 0, bits=256) for k in range(2))
        assert abs(f0 - 1) < mpf(2) ** -240
        norm2 = mp.fsum(abs(c) ** 2 for c in two.coeffs)
        assert abs(norm2 - two.value) < mpf(2) ** -240


def test_min_norm_multi_ordinate_constraints():
    t = [0, mpf("2.5"), mpf("-7")]
    with working(192):
        sol = min_norm(12, t, bits=192, with_coeffs=True)
        assert sol.value > 0
        for ti in t:
            fi = mp.fsum(sol.coeffs[k] * psi_eval(k + 1, ti, bits=192)
                         for k in range(12))
            assert abs(fi - 1) < mpf(2) ** -170
        norm2 = mp.fsum(abs(c) ** 2 for c in sol.coeffs)
        assert abs(norm2 - sol.value) < mpf(2) ** -170
        # without coeffs the value is identical
        bare = min_norm(12, t, bits=192)
        assert bare.coeffs is None
        assert abs(bare.value - sol.value) < mpf(2) ** -170


def test_min_norm_singular_kernel():
    # K_1(u, v) = 1 for all u, v: two constraints, rank one
    with pytest.raises(NSingular):
        min_norm(1, [0, 5], bits=128)


def test_min_norm_band_pivot_escalates_once(monkeypatch):
    # at n = 64 the ordinates 0 and 10^-6 give a second pivot near 2^-37.6 of
    # the first: in [2^-64, 2^-32) at 128 bits, so H is rebuilt from a new
    # stream pass at 256 bits, where it is decided, and the value keeps 126
    # bits against a 768-bit build
    scales = []
    stream = lubinsky._psi_stream

    def spy(n, ts, P):
        scales.append(P)
        return stream(n, ts, P)
    monkeypatch.setattr(lubinsky, "_psi_stream", spy)
    with working(128):
        t = [mpf(0), mpf("1e-6")]
    value = min_norm(64, t, bits=128).value
    assert scales == [192, 320]
    want = min_norm(64, t, bits=768).value
    with working(768):
        assert abs(value - want) <= mpf(2) ** -126 * want


def _resummed_residual(n, ts, bits):
    """(max_i |sum_k c_k psi_k(t_i) - 1| rounded once at bits, audited bits):
    x = H^{-1} 1 from the audited build, each c_k = sum_j conj(psi_k(t_j)) x_j
    unrounded, and the sum over k re-run in integers on the stream rows."""
    def build(p):
        return lubinsky._fixed_kernel(next(lubinsky._kernel_sums([n], ts, p))[1], p)
    _, prof, used = linalg.audited_profile(build, bits)
    P = used + GUARD_BITS
    xs = prof.solve()
    res = [[-(1 << (3 * P)), 0] for _ in ts]
    for psi in lubinsky._psi_stream(n, ts, P):
        cr = sum(pr * xr + pi * xi for (pr, pi), (xr, xi) in zip(psi, xs))
        ci = sum(pr * xi - pi * xr for (pr, pi), (xr, xi) in zip(psi, xs))
        for r, (ar, ai) in zip(res, psi):
            r[0] += cr * ar - ci * ai
            r[1] += cr * ai + ci * ar
    worst = max(a * a + b * b for a, b in res)
    with mp.workprec(worst.bit_length() + 1):
        exact = mpf(worst)
    with working(bits):
        return mp.ldexp(mp.sqrt(exact), -3 * P), used


@pytest.mark.parametrize("case", ["one", "three", "band"])
@pytest.mark.parametrize("bits", [128, 256])
def test_min_norm_residual_is_the_resummed_interpolation_error(case, bits):
    # the residual from the kernel sums is the interpolation error of the
    # exact coefficients, rounded once, and far below 2^-bits; the band case
    # is the one of test_min_norm_band_pivot_escalates_once, whose residual
    # comes from the rebuilt sums
    n, t = {"one": (40, [mpf("9.06")]),
            "three": (40, [0, mpf("2.5"), mpf("-7")]),
            "band": (64, [0, mpf("1e-6")])}[case]
    with working(bits):
        ts = [mpf(x) for x in t]
    sol = min_norm(n, ts, bits=bits)
    want, used = _resummed_residual(n, ts, bits)
    assert used == (256 if case == "band" and bits == 128 else bits)
    assert sol.residual == want
    assert sol.residual < mpf(2) ** -(bits + 32)


def test_min_norm_exhausts_precision_in_the_band(monkeypatch):
    # fake sums whose second pivot 2^{-3 bits/8} stays in the band at every
    # precision: three doublings, then PrecisionExhausted
    seen = []

    def band_sums(grid, ts, bits):
        P = bits + GUARD_BITS
        seen.append(bits)
        one = 1 << (2 * P)
        for n in grid:
            yield n, [[(one, 0), (one, 0)], [(one, 0), (one + (one >> (3 * bits // 8)), 0)]]
    monkeypatch.setattr(lubinsky, "_kernel_sums", band_sums)
    with pytest.raises(PrecisionExhausted):
        min_norm(4, [0, 5], bits=128)
    assert seen == [128, 256, 512, 1024]


def test_profile_receives_integer_pairs_only(monkeypatch):
    # d^2 and min-norm hand ldl_profile Gaussian integers: no mpf matrix is
    # built on either path
    received = []
    profile = linalg.ldl_profile

    def spy(G, g, bits):
        received.extend(x for row in G for x in row)
        received.extend(g)
        return profile(G, g, bits)
    monkeypatch.setattr(linalg, "ldl_profile", spy)
    distance_profile(DirichletPolynomial.parse("1:1,2:1i,3:-1/2"), 0, 6, bits=128)
    n_gram = len(received)
    assert n_gram == 6 * 6 + 6
    min_norm(12, [0, mpf("2.5"), mpf("-7")], bits=128, with_coeffs=True)
    assert len(received) == n_gram + 3 * 3 + 3
    assert all(type(x) is tuple and len(x) == 2 and all(type(v) is int for v in x)
               for x in received)


def test_kernel_asymptotics_report():
    rows = kernel_asymptotics_report(0, [100, 1000, 10000], bits=128)
    assert [row.n for row in rows] == [100, 1000, 10000]
    with working(128):
        # brute-force K_100(0,0)
        want = mpf(0)
        prev = mpf(0)
        for k in range(1, 101):
            s = mp.sqrt(k)
            want += (s - prev) ** 2
            prev = s
        assert abs(rows[0].value - want) < mpf(2) ** -110
        for row in rows:
            assert abs(row.ratio - row.value / (mp.log(row.n) / 4)) < mpf(2) ** -100
    assert rows[0].ratio > rows[1].ratio > rows[2].ratio
    with pytest.raises(ValueError):
        kernel_asymptotics_report(0, [100, 50], bits=128)


@pytest.mark.parametrize("bits", [128, 256])
def test_kernel_asymptotics_report_across_em_start(bits):
    # direct sum up to _EM_START, Euler-Maclaurin beyond it
    grid = [_EM_START, _EM_START + 1, 4000]
    rows = kernel_asymptotics_report(0, grid, bits=bits)
    assert [row.n for row in rows] == grid
    for row in rows:
        same = kernel(row.n, 0, 0, bits=bits)
        finer = kernel(row.n, 0, 0, bits=bits + 128)
        with working(bits + 128):
            tol = mpf(2) ** -(bits - 16) * row.value
            assert abs(row.value - same) < tol, row.n
            assert abs(row.value - finer) < tol, row.n


def test_kernel_asymptotics_report_beyond_2048_bits():
    # 200 correction terms from k = 1000 stop near 2160 bits; past 2048 bits
    # the direct sum runs further, so 2600 bits is still proven
    bits = 2600
    assert lubinsky._em_start(2048) == _EM_START
    grid = [2000, 6000]
    assert grid[0] < lubinsky._em_start(bits) < grid[1]
    rows = kernel_asymptotics_report(0, grid, bits=bits)
    for row in rows:
        want = kernel(row.n, 0, 0, bits=bits)
        with working(bits):
            assert abs(row.value - want) < mpf(2) ** -(bits - 16) * row.value, row.n


def _ordinates_of_the_lemma(bits):
    with working(bits):
        return [mpf(0), mpf(1) / 3, 2 * mp.pi / mp.log(2), mpf(-7), mpf(25)]


@pytest.mark.parametrize("bits", [128, 256])
def test_laurent_series_of_the_diagonal_term(bits):
    # sum_j c_j x^{-j} against |x^w - (x-1)^w|^2 in closed form, w = 1/2 - iu,
    # at the precision the Euler-Maclaurin sums run at
    x = _EM_START + 1
    for u in _ordinates_of_the_lemma(bits):
        with working(bits + 64):
            w = mpc(mpf(1) / 2, -u)
            want = abs(mp.power(x, w) - mp.power(x - 1, w)) ** 2
        with working(bits + lubinsky._EM_GUARD):
            got, _ = lubinsky._Laurent(u).series(x, 0, -(bits + 16))
        with working(bits + 64):
            assert abs(got - want) < mpf(2) ** -bits, u


def test_laurent_coefficients_lemma():
    # c_1 = 1/4 + u^2; c_j = sum_m d_m conj(d_{j+1-m}) is real and is the
    # table's 2 Re d_{j+1}; |c_j| <= (2|w|)_{j+1}/(j+1)! <= the integer majorant
    bits = 300
    for u in _ordinates_of_the_lemma(bits):
        with working(bits):
            w = mpc(mpf(1) / 2, -u)
            lau = lubinsky._Laurent(u)
            assert abs(lau.coeff(1) - (mpf(1) / 4 + u * u)) <= mpf(2) ** -(bits - 4) * lau.coeff(1)
            d = [None, w]
            for m in range(1, 61):
                d.append(d[m] * (m - w) / (m + 1))
            for j in range(1, 61):
                conv = mp.fsum(d[m] * mp.conj(d[j + 1 - m]) for m in range(1, j + 1))
                bound = mp.rf(2 * abs(w), j + 1) / mp.factorial(j + 1)
                tol = mpf(2) ** -(bits - 16) * bound
                assert abs(conv.imag) <= tol, (u, j)
                c = lau.coeff(j)
                assert abs(c - conv.real) <= tol, (u, j)
                assert abs(c) <= bound, (u, j)
                assert lau.majorant(j) >= bound, (u, j)


def test_start_grows_with_w():
    # W = ceil(sqrt(1 + 4u^2)) exactly; u = 0 and 2 pi/log 2 keep the start
    for u in _ordinates_of_the_lemma(256) + [mpf(100), mpf(62), mpf("62.5"), mpf(10) ** 30]:
        W = lubinsky._two_w_ceil(u)
        x = 1 + 4 * (Fraction(u.man_exp[0]) * Fraction(2) ** u.man_exp[1]) ** 2
        assert (W - 1) ** 2 < x <= W ** 2, u
    step = _lattice_step(256)
    assert lubinsky._EM_START_PER_W * lubinsky._two_w_ceil(mpf(0)) <= _EM_START
    assert lubinsky._EM_START_PER_W * lubinsky._two_w_ceil(step) <= _EM_START
    assert lubinsky._EM_START_PER_W * lubinsky._two_w_ceil(mpf(62)) == _EM_START
    assert lubinsky._EM_START_PER_W * lubinsky._two_w_ceil(mpf(100)) == 1608


def test_kernel_asymptotics_report_raises_without_proven_remainder(monkeypatch):
    # two correction terms cannot reach 256 bits: no unproven value comes back
    monkeypatch.setattr(lubinsky, "_EM_MAX_TERMS", 2)
    with pytest.raises(RemainderNotProven):
        kernel_asymptotics_report(0, [_EM_START + 10], bits=256)
    with pytest.raises(RemainderNotProven):
        kernel_asymptotics_report(_lattice_step(256), [_EM_START + 10], bits=256)


# The kernels benchmark's min_norm inputs: 16 lattice ordinates k 2pi/log 2
# of 1 - 2^{-s}, at n = 512.
_LATTICE_KS = (-31, -28, -26, -25, -23, -17, -15, -13, -7, -3, 12, 17, 18, 21, 30, 32)


def _lattice_step(bits):
    with working(bits):
        return 2 * mp.pi / mp.log(2)


@pytest.mark.parametrize("bits", [128, 256])
def test_kernel_matrix_and_min_norm_against_a_finer_build(bits):
    # exact sums with one rounding per entry: H within 2^-(bits-2) of the
    # largest diagonal entry, the min-norm value within 2^-(bits-4) relative
    step = _lattice_step(bits)
    with working(bits):
        t = [k * step for k in _LATTICE_KS]
    H = kernel_matrix(512, t, bits=bits).H
    fine = kernel_matrix(512, t, bits=bits + 128).H
    value = min_norm(512, t, bits=bits).value
    want = min_norm(512, t, bits=bits + 128).value
    with working(bits + 128):
        scale = max(abs(fine[i][i]) for i in range(len(t)))
        worst = max(abs(H[i][j] - fine[i][j])
                    for i in range(len(t)) for j in range(len(t)))
        assert worst <= mpf(2) ** -(bits - 2) * scale
        assert abs(value - want) <= mpf(2) ** -(bits - 4) * want


@pytest.mark.parametrize("bits", [128, 256])
def test_report_rows_off_zero_against_a_finer_build(bits):
    step = _lattice_step(bits)
    grid = [1000, 3000, 10000]
    rows = kernel_asymptotics_report(step, grid, bits=bits)
    fine = kernel_asymptotics_report(step, grid, bits=bits + 128)
    with working(bits + 128):
        for row, want in zip(rows, fine):
            assert abs(row.value - want.value) <= mpf(2) ** -(bits - 2) * want.value, row.n
            assert abs(row.ratio - want.ratio) <= mpf(2) ** -(bits - 2) * want.ratio, row.n


def _em_start_at(u, bits):
    return max(lubinsky._em_start(bits), lubinsky._EM_START_PER_W * lubinsky._two_w_ceil(u))


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_report_em_rows_against_the_direct_stream(bits):
    # every Euler-Maclaurin row against the direct stream's K_n(u, u), which
    # is what kernel(n, u, u) sums, within 2^-(bits-16) relative
    with working(bits):
        us = [mpf(1) / 3, _lattice_step(bits), mpf(-7), mpf(25), mpf(100)]
    for u in us:
        a = _em_start_at(u, bits)
        grid = [a + 1, 3000, 20000] if bits <= 256 else [a + 1, 5000]
        rows = kernel_asymptotics_report(u, grid, bits=bits)
        _, sums = lubinsky._kernel_grid(grid, [u], bits)
        with working(bits + 64):
            for row, (n, S) in zip(rows, sums):
                want = lubinsky._rounded_kernel(S, bits)[0][0]
                assert row.n == n
                assert abs(row.value - want) <= mpf(2) ** -(bits - 16) * want, (u, n)


@pytest.mark.parametrize("bits", [128, 256])
def test_report_off_zero_is_symmetric_in_u(bits):
    # K_n(-u, -u) = K_n(u, u) to 2^-(bits-16); nothing in the stream's
    # rounding promises bit equality. -u is formed at bits: mpmath negates
    # at its ambient precision, 53 bits by default, which would change u
    step = _lattice_step(bits)
    with working(bits):
        minus = -step
    grid = [_EM_START, 3000, 10000]
    rows = kernel_asymptotics_report(step, grid, bits=bits)
    mirrored = kernel_asymptotics_report(minus, grid, bits=bits)
    with working(bits + 64):
        for row, other in zip(rows, mirrored):
            assert abs(row.value - other.value) <= mpf(2) ** -(bits - 16) * row.value, row.n


def test_huge_ordinate_stays_on_the_stream(monkeypatch):
    # at u = 10^30 the start is about 1.6e31, so a grid to 2000 is summed
    # directly: no Euler-Maclaurin call, and each row is kernel(n, u, u)
    calls = []
    em_tails = lubinsky._em_tails

    def spy(*args):
        calls.append(args)
        return em_tails(*args)
    monkeypatch.setattr(lubinsky, "_em_tails", spy)
    with working(128):
        u = mpf(10) ** 30
    rows = kernel_asymptotics_report(u, [100, 2000], bits=128)
    assert calls == []
    assert [row.n for row in rows] == [100, 2000]
    for row in rows:
        assert row.value == kernel(row.n, u, u, bits=128)


@pytest.mark.parametrize("bits", [128, 256])
def test_large_ordinates_keep_every_digit(bits):
    # t log k is formed beyond the magnitude of t: 10^30 and 10^30 + 1 are
    # exact at both precisions, so a finer build is the same problem
    with working(bits):
        u = mpf(10) ** 30
        v = u + 1
    tol = mpf(2) ** -(bits - 2)
    got = kernel(50, u, u, bits=bits)
    want = kernel(50, u, u, bits=bits + 512)
    value = min_norm(8, [u, v], bits=bits).value
    fine = min_norm(8, [u, v], bits=768).value
    with working(768):
        assert abs(got - want) <= tol * want
        # H enters the factorization unrounded, at 2^-(bits+64), and the
        # value is rounded once at bits
        assert abs(value - fine) <= tol * fine


def test_spf_sieve():
    n = 2000
    spf = lubinsky._spf_sieve(n)
    for k in range(n + 1):
        least = next((p for p in range(2, math.isqrt(k) + 1) if k % p == 0), 0)
        assert spf[k] == least, k


@pytest.mark.parametrize("bits", [128, 256])
def test_phases_from_prime_phases(bits):
    # e_k = k^{-it} 2^P within 2 log2 k units (the bound in lubinsky's guard
    # derivation), against mp.power at P + 32, past the magnitude of t log k;
    # e == 1 at t = 0
    n = 2000
    P = bits + GUARD_BITS
    spf = lubinsky._spf_sieve(n)
    with working(bits):
        ts = [mpf(0), 2 * mp.pi / mp.log(2), mpf(-10) ** 4]
    for t in ts:
        gen = lubinsky._phases(n, t._mpf_, P, spf)
        with working(P + 32):
            for k, (x, y) in enumerate(gen, 1):
                # spy: the product table never holds more than m <= n // 2
                table = gen.gi_frame.f_locals
                assert len(table["re"]) - 1 <= n // 2
                assert len(table["im"]) - 1 <= n // 2
                if t == 0:
                    assert (x, y) == (1 << P, 0)
                    continue
                want = mp.power(k, mpc(0, -t)) * mpf(2) ** P
                err = abs(mpc(x, y) - want)
                assert err <= max(1, 2 * math.log2(k)), (t, k, err)


def test_kernel_grid_is_one_pass_of_separate_calls(monkeypatch):
    t = [0, mpf("2.5"), mpf("-7"), mpf("9.06")]
    grid = [1, 2, 5, 17, 40]
    bits = 192
    # the scale of the stream depends on bits alone, not on n or ordinates
    scales = []
    stream = lubinsky._psi_stream

    def spy(n, ts, P):
        scales.append(P)
        return stream(n, ts, P)
    monkeypatch.setattr(lubinsky, "_psi_stream", spy)
    _, sums = lubinsky._kernel_grid(grid, t, bits)
    kms = [(n, lubinsky._rounded_kernel(S, bits)) for n, S in sums]
    sols = list(lubinsky._min_norms(grid, t, bits, with_coeffs=True))
    assert [n for n, _ in kms] == grid
    for (n, H), sol in zip(kms, sols):
        alone = kernel_matrix(n, t, bits=bits)
        assert H == alone.H
        for i, u in enumerate(t):
            for j, v in enumerate(t):
                assert kernel(n, u, v, bits=bits) == H[i][j], (n, i, j)
        try:
            want = min_norm(n, t, bits=bits, with_coeffs=True)
        except NSingular as exc:
            assert isinstance(sol, NSingular)
            assert (sol.index, sol.pivot) == (exc.index, exc.pivot)
        else:
            assert sol == want
    # K_n(u, v) does not depend on which other ordinates share the pass
    assert kernel_matrix(17, t[1:3], bits=bits).H[0][1] == kms[3][1][1][2]
    with pytest.raises(ValueError):
        lubinsky._kernel_grid([5, 5], t, bits)
    assert set(scales) == {bits + GUARD_BITS}
    # and the stream does not depend on where it stops
    with working(bits):
        ts = [mpf(x) for x in t]
    assert list(stream(17, ts, 256)) == list(stream(40, ts, 256))[:17]


@pytest.mark.parametrize("bits", [128, 256])
def test_zero_ordinate_next_to_nonzero_ones(bits):
    # the real psi_k(0) = sqrt(k) - sqrt(k-1) in fixed point beside complex
    # columns
    n = 300
    t = [0, mpf("2.5"), mpf("-7")]
    H = kernel_matrix(n, t, bits=bits).H
    fine = kernel_matrix(n, t, bits=bits + 128).H
    got = [kernel(n, 0, mpf("2.5"), bits=bits), kernel(n, mpf("-7"), 0, bits=bits)]
    want = [kernel(n, 0, mpf("2.5"), bits=bits + 128),
            kernel(n, mpf("-7"), 0, bits=bits + 128)]
    with working(bits + 128):
        tol = mpf(2) ** -(bits - 16)
        for i in range(3):
            for j in range(3):
                assert abs(H[i][j] - fine[i][j]) <= tol * abs(fine[i][j]), (i, j)
        for a, b in zip(got, want):
            assert abs(a - b) <= tol * abs(b)
        assert got[0] == H[0][1]


# -- kernel sums: one exact limb product per block ---------------------------

def _pair_loop_sums(grid, ts, bits):
    """The kernel sums by the plain pair loop over the same stream."""
    P = bits + GUARD_BITS
    l = len(ts)
    re = [[0] * l for _ in range(l)]
    im = [[0] * l for _ in range(l)]
    out = []
    for k, psi in enumerate(lubinsky._psi_stream(grid[-1], ts, P), 1):
        for i, (ar, ai) in enumerate(psi):
            for j in range(i, l):
                br, bi = psi[j]
                re[i][j] += ar * br + ai * bi
                im[i][j] += ai * br - ar * bi
        if k in grid:
            out.append((k, [[(re[i][j], im[i][j]) if i <= j else (re[j][i], -im[j][i])
                             for j in range(l)] for i in range(l)]))
    return out


def _ordinates(kind: str, bits: int) -> list:
    with working(bits):
        if kind == "zero":
            return [mpf(0)]
        if kind == "1e6":
            return [mpf(10) ** 6, -mpf(10) ** 6]
        step = 2 * mp.pi / mp.log(2)
        return [k * step for k in range(-8, 8)]


@pytest.mark.parametrize("bits", [128, 256, 1024])
@pytest.mark.parametrize("kind", ["zero", "1e6", "lattice"])
def test_kernel_sums_equal_the_pair_loop(kind, bits):
    # l = 1, 2 and 16 ordinates; the grid straddles a block of _ROWS rows,
    # so sums carry across blocks and a block ends early at each n
    rows = lubinsky._ROWS
    ts = _ordinates(kind, bits)
    grid = [1, 2, rows - 1, rows, rows + 1] if len(ts) < 16 else [3, rows - 1, rows, rows + 1]
    assert list(lubinsky._kernel_sums(grid, ts, bits)) == _pair_loop_sums(grid, ts, bits)


def test_kernel_sums_limb_bounds():
    # every limb product is below 2^32 in size, so a block of _ROWS rows keeps
    # each float64 partial sum of X^T X an integer below 2^48 < 2^53, and
    # the folded re/im sums of up to _MAX_LIMBS limbs below 2^62 < 2^63
    limb = 1 << lubinsky._LIMB
    assert lubinsky._LIMB == 16 and lubinsky._ROWS <= 1 << 16
    assert lubinsky._ROWS * limb * limb <= 2 ** 48 < 2 ** 53
    assert 2 * lubinsky._MAX_LIMBS * lubinsky._ROWS * limb * limb <= 2 ** 62 < 2 ** 63


def test_block_sums_exact_at_the_extremes():
    # a full block of the largest and most negative W-limb values: all low
    # limbs 0xffff, top limbs at 0x7fff and -0x8000
    W = 3
    hi, lo = (1 << (16 * W - 1)) - 1, -(1 << (16 * W - 1))
    rows = [[(hi, lo), (lo, hi)] if k % 2 else [(lo, lo), (hi, hi)]
            for k in range(lubinsky._ROWS)]
    upper = np.triu_indices(2)
    got = lubinsky._block_sums(rows, upper)
    want_re, want_im = [], []
    for i, j in zip(*upper):
        want_re.append(sum(r[i][0] * r[j][0] + r[i][1] * r[j][1] for r in rows))
        want_im.append(sum(r[i][1] * r[j][0] - r[i][0] * r[j][1] for r in rows))
    assert got == want_re + want_im
