"""Argument-principle zero location and the spectral constant.

Frozen facts used as oracles:
  1 - 2^{-s} vanishes exactly at s = 2 pi i k / log 2, all simple;
  (1 - 2^{-s})^2 = 1 - 2*2^{-s} + 4^{-s} has the same zeros, all double;
  1 - (1+i) 2^{-s} vanishes at s = 1/2 + i pi/(4 log 2) (mod the lattice);
  sum over the full lattice of 1/(1/4 + t^2) = log2 * coth(log2 / 4).
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from xdp.cli import main
from xdp.dpcore import DirichletPolynomial, _mp_pair, _mp_terms, dp_eval
from xdp.exact import GaussianRational, as_fraction, to_fixed, to_mp
from xdp.errors import ContourTooClose, QuadratureNotConverged
from xdp import zeros
from xdp.precision import working
from xdp.zeros import (
    Rectangle,
    constant_C,
    find_zeros,
    winding_count,
    zeros_on_line,
)

P_BASE = DirichletPolynomial.parse("1:1,2:-1")
P_SQ = DirichletPolynomial.parse("1:1,2:-2,4:1")
P_CPLX = DirichletPolynomial.parse("1:1,2:-1-1i")
P_ONE = DirichletPolynomial.parse("1:1")
P_CUBE = DirichletPolynomial.parse("1:1,2:-3,4:3,8:-1")    # (1 - 2^{-s})^3
P_THREE = DirichletPolynomial.parse("1:1,2:-2/3-1/3i,3:-2/3+1/3i")


def lattice_t(k, bits=256):
    with working(bits):
        return 2 * mp.pi * k / mp.log(2)


def test_rectangle_basics():
    r = Rectangle(-1, 1, mpf("0.5"), mpf("100.5"))
    assert r.width == 2
    with pytest.raises(ValueError):
        Rectangle(1, -1, 0, 1)
    with pytest.raises(ValueError):
        Rectangle(0, 1, 2, 2)


def test_winding_pinned_counts():
    assert winding_count(P_BASE, Rectangle(-1, 1, -mpf("0.5"), mpf("0.5"))) == 1
    assert winding_count(P_BASE, Rectangle(-1, 1, mpf("0.5"), mpf("100.5"))) == 11
    assert winding_count(P_BASE, Rectangle(-1, 1, 1, 8)) == 0
    assert winding_count(P_SQ, Rectangle(-1, 1, -mpf("0.5"), mpf("0.5"))) == 2
    assert winding_count(P_SQ, Rectangle(-1, 1, mpf("0.5"), mpf("100.5"))) == 22


def test_winding_additive_split():
    top = Rectangle(-1, 1, mpf("50.25"), mpf("100.5"))
    bottom = Rectangle(-1, 1, mpf("0.5"), mpf("50.25"))
    whole = Rectangle(-1, 1, mpf("0.5"), mpf("100.5"))
    s = winding_count(P_BASE, bottom) + winding_count(P_BASE, top)
    assert s == winding_count(P_BASE, whole)


@pytest.mark.parametrize("P, mult", [(P_SQ, 2), (P_BASE, 1)])
@pytest.mark.parametrize("gap", [Fraction(1, 10 ** 4), Fraction(1, 10 ** 5)])
def test_winding_resolves_a_zero_just_off_an_edge(P, mult, gap):
    # an edge this close to the double zero at 0 counts it about half, 1,
    # on every level whose nodes are coarser than the gap; such a level must
    # not settle the count, whichever side of the edge the zero is on
    left, right, bottom = Fraction(-7, 80), Fraction(32, 625), Fraction(-239, 2500)
    assert winding_count(P, Rectangle(left, right, bottom, gap)) == mult
    assert winding_count(P, Rectangle(left, right, bottom, -gap)) == 0


def test_winding_conjugate_symmetry():
    # real coefficients: zeros come in conjugate pairs
    p = DirichletPolynomial.parse("1:1,2:1,3:1")
    up = Rectangle(-3, 1, mpf("0.25"), mpf("12.25"))
    down = Rectangle(-3, 1, -mpf("12.25"), -mpf("0.25"))
    assert winding_count(p, up) == winding_count(p, down)


def test_contour_through_zero_raises():
    with pytest.raises(ContourTooClose):
        winding_count(P_BASE, Rectangle(-1, 0, -1, 1))   # zero s=0 on right edge
    with pytest.raises(ContourTooClose):
        winding_count(P_BASE, Rectangle(-1, 1, -1, float(2 * 3.141592653589793 / 0.6931471805599453)))


@pytest.mark.xfail(strict=True, reason=(
    "the contact test's 1e-12 floor on |P| does not scale with multiplicity: "
    "a triple zero 1e-5 off an edge passes it and is counted about half; a "
    "contact test proven from _certify's Taylor bound on each edge gap will fix it"))
@pytest.mark.parametrize("k, lo, hi, want", [
    (1, Fraction(-1, 10), Fraction(-1, 10 ** 5), 0),
    (68, Fraction(-1, 10), Fraction(1, 10 ** 5), 3),
])
def test_winding_triple_zero_just_off_an_edge(k, lo, hi, want):
    # (1 - 2^{-s})^3 has triple zeros at 2 pi i k / log 2
    t = as_fraction(lattice_t(k))
    rect = Rectangle(Fraction(-7, 80), Fraction(1, 20), t + lo, t + hi)
    assert winding_count(P_CUBE, rect) == want


def _lattice_point(k, bits):
    with working(bits):
        return mpc(0, lattice_t(k, bits))


def _at(f, z):
    """z rounded to the fixed point (X, Y) of f's evaluator."""
    return to_fixed(z.real, f.prec), to_fixed(z.imag, f.prec)


def _exact(f, z, bits):
    """The fixed point z = (X + iY) 2^-prec as an mpc, exactly at bits."""
    with working(bits):
        return mpc(mpf(z[0]) / 2 ** f.prec, mpf(z[1]) / 2 ** f.prec)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("k0", [0, 110318, 110317800077])     # heights 0, 1e6, 1e12
def test_certificate_counts_simple_lattice_zeros(k0, bits):
    f = zeros._Poly(P_BASE, bits)
    for k in range(k0, k0 + 12):
        z = _lattice_point(k, bits)
        assert zeros._certify(f, _at(f, z), 1) is not None, k
        with working(bits):
            nearby = z + mpc(mpf(10) ** -8, -mpf(10) ** -8)   # a Newton start
        assert zeros._certify(f, _at(f, nearby), 1) is not None, k
        assert zeros._certify(f, _at(f, z), 2) is None, k


def _cplx_zero(bits):
    with working(bits):
        return mpc(mpf(1) / 2, mp.pi / (4 * mp.log(2)))


@pytest.mark.parametrize("P, bits, w, zero", [
    (P_BASE, 256, 1, lambda bits: _lattice_point(3, bits)),
    (P_SQ, 128, 2, lambda bits: _lattice_point(3, bits)),
    (P_CUBE, 256, 3, lambda bits: _lattice_point(3, bits)),
    (P_CPLX, 192, 1, _cplx_zero),
])
def test_certificate_pair_within_its_error_of_a_finer_mp_pair(P, bits, w, zero):
    # the polish's first Newton step takes (P, P') from the certificate; each
    # is within its stated error eps (1 + log m) sum |b_k| of the exact value,
    # eps = (|Re z| log m + 3 log2 m + 3n + 6) 2^-prec, here read off a
    # bits + 256 _mp_pair at the same fixed point
    f = zeros._Poly(P, bits)
    with working(bits):
        far = mpc(mpf(1) / 7, mp.pi / 3)        # no zero within 1e-6
    assert all(zeros._certify(f, _at(f, far), k) is None for k in (1, 2, 3))
    z0 = _at(f, zero(bits))
    got = zeros._certify(f, z0, w)
    assert got is not None
    _, e = f.fixed_terms(*z0)
    fine = bits + 256
    with working(fine):
        z = _exact(f, z0, fine)
        want = _mp_pair(_mp_terms(P), z)
        (pr, pi), (dr, di) = got
        have = (mpc(pr, pi) * mpf(2) ** e, mpc(dr, di) * mpf(2) ** (e - f.prec))
        log_m = mp.log(P.m)
        size = mp.fsum(abs(to_mp(a)) * mp.power(k, -z.real) for k, a in P.items())
        eps = ((abs(z.real) * log_m + 3 * log_m / mp.log(2) + 3 * len(list(P.items())) + 6)
               * mpf(2) ** -f.prec)
        bound = eps * (1 + log_m) * size
        for h, x in zip(have, want):
            assert abs(h - x) <= bound
            assert abs(h - x) <= mpf(2) ** -(bits + 32) * (1 + log_m) * size


@pytest.mark.parametrize("z", [mpc("0.3", "5.1"), mpc(-30, "1e6"), mpc("17.5", "-2.25")])
def test_fixed_pair_builds_composites_from_primes(z):
    # 6, 9 and 12 without 2 or 3 among the terms: every k^-z is a product of
    # prime powers; (P, P') within eps (1 + log m) sum |b_k| of a bits + 256
    # _mp_pair (the bound in _certify's docstring), far left of the axis too
    P = DirichletPolynomial.parse("1:1,6:-1/3,9:1i,12:1/5+2/7i")
    f = zeros._Poly(P, 128)
    assert f.chain == ([(p, zeros._fixed_log(p, f.prec)) for p in (2, 3)],
                       [(6, 2, 3), (9, 3, 3), (12, 2, 6)])
    at = _at(f, z)
    (pr, pi), (dr, di) = f.fixed_pair(*at)
    _, e = f.fixed_terms(*at)
    with working(128 + 256):
        x = _exact(f, at, 128 + 256)
        want = _mp_pair(_mp_terms(P), x)
        have = (mpc(pr, pi) * mpf(2) ** e, mpc(dr, di) * mpf(2) ** (e - f.prec))
        log_m = mp.log(12)
        size = mp.fsum(abs(to_mp(a)) * mp.power(k, -x.real) for k, a in P.items())
        eps = (abs(x.real) * log_m + 3 * log_m / mp.log(2) + 3 * 4 + 6) * mpf(2) ** -f.prec
        for h, w in zip(have, want):
            assert abs(h - w) <= eps * (1 + log_m) * size


@pytest.mark.parametrize("P, mult", [(P_SQ, 2), (P_CUBE, 3)])
def test_certificate_counts_multiple_zeros(P, mult):
    for bits in (128, 256):
        f = zeros._Poly(P, bits)
        z = _at(f, _lattice_point(0, bits))
        assert zeros._certify(f, z, mult) is not None
        for wrong in range(1, 6):
            if wrong != mult:
                assert zeros._certify(f, z, wrong) is None, wrong
        z = _at(f, _lattice_point(5, bits))
        assert zeros._certify(f, z, mult) is not None


def test_certificate_counts_two_close_simple_zeros():
    # 1 - (2 + e) 2^{-s} + (1 + e) 4^{-s} = (1 - 2^{-s})(1 - (1 + e) 2^{-s})
    # vanishes at 0 and at log2(1 + e) ~ 1.4e-7, both simple: inside every
    # radius the certificate tries, so it counts 2 there and never 1
    P = DirichletPolynomial.parse("1:1,2:-20000001/10000000,4:10000001/10000000")
    f = zeros._Poly(P, 256)
    z = _at(f, _lattice_point(0, 256))
    assert zeros._certify(f, z, 2) is not None
    assert zeros._certify(f, z, 1) is None
    assert zeros._certify(f, z, 3) is None
    with working(256):
        far = _at(f, mpc(mp.log(1 + mpf(10) ** -7) / mp.log(2), 0))
    assert zeros._certify(f, far, 2) is not None
    assert zeros._certify(f, far, 1) is None


def test_find_zeros_high_on_the_line():
    # doubles locate the zeros at |s| ~ 1e6 and the certificate counts each
    # once
    rect = Rectangle(-1, 1, 10 ** 6 + Fraction(1, 3), 10 ** 6 + 40)
    zs = find_zeros(P_BASE, rect, bits=256)
    assert zs.total_count == 5
    assert [m for (_, m) in zs.zeros] == [1] * 5
    with working(256):
        step = 2 * mp.pi / mp.log(2)
        for k, (z, _) in enumerate(zs.zeros, start=110318):
            assert abs(z - mp.mpc(0, k * step)) < mpf("1e-20"), k


def test_constant_c_double_zeros_wind_no_mp_contour():
    c = constant_C(P_SQ, 0, 200, Fraction(1, 10 ** 9), bits=128)
    assert len(c.ordinates) == 45
    assert c.multiplicities == (2,) * 45


def test_find_zeros_single_simple():
    zs = find_zeros(P_BASE, Rectangle(-1, 1, -5, 5), tol=mpf("1e-30"), bits=256)
    assert zs.total_count == 1
    assert len(zs.zeros) == 1
    (z, mult), = zs.zeros
    assert mult == 1
    with working(256):
        assert abs(z) < mpf("1e-30")
    assert zs.residual <= mpf("1e-30")


def test_find_zeros_lattice_strip():
    zs = find_zeros(P_BASE, Rectangle(-1, 1, mpf("0.5"), 30), tol=mpf("1e-30"), bits=256)
    assert zs.total_count == 3
    assert [m for (_, m) in zs.zeros] == [1, 1, 1]
    with working(256):
        for k, (z, _) in enumerate(zs.zeros, start=1):
            want = mp.mpc(0, lattice_t(k))
            assert abs(z - want) < mpf("1e-25"), k
    # sorted by height
    ims = [mp.im(z) for (z, _) in zs.zeros]
    assert ims == sorted(ims)


def test_find_zeros_double_zero():
    zs = find_zeros(P_SQ, Rectangle(-1, 1, -5, 5), tol=mpf("1e-30"), bits=256)
    assert zs.total_count == 2
    assert len(zs.zeros) == 1
    (z, mult), = zs.zeros
    assert mult == 2
    with working(256):
        assert abs(z) < mpf("1e-20")


def test_find_zeros_empty():
    zs = find_zeros(P_BASE, Rectangle(-1, 1, 1, 8), tol=mpf("1e-30"), bits=128)
    assert zs.total_count == 0
    assert zs.zeros == ()
    assert zs.residual == 0


def test_find_zeros_complex_coefficients():
    zs = find_zeros(P_CPLX, Rectangle(0, 1, 0, 2), tol=mpf("1e-30"), bits=256)
    assert zs.total_count == 1
    (z, mult), = zs.zeros
    assert mult == 1
    with working(256):
        want = mp.mpc(mpf(1) / 2, mp.pi / (4 * mp.log(2)))
        assert abs(z - want) < mpf("1e-25")


def test_find_zeros_residuals_match_dp_eval():
    zs = find_zeros(P_CPLX, Rectangle(-1, 2, -20, 20), bits=192)
    assert zs.total_count > 1
    assert zs.residuals == tuple(abs(dp_eval(P_CPLX, z, bits=192)) for z, _ in zs.zeros)
    assert zs.residual == max(zs.residuals)


def test_split_cell_cuts_a_long_cell_into_thirds_of_a_zero(monkeypatch):
    # a strip of height 100 and width 2 with 11 zeros: 3 (11 + 1) = 36
    # pieces, fewer than 100 // 2 = 50; a square cell is cut 2 x 2
    strip = Rectangle(-1, 1, Fraction(1, 2), Fraction(201, 2))
    pieces = zeros._split_cell(strip, 11, 0)
    assert len(pieces) == 36
    assert all(c.re_lo == -1 and c.re_hi == 1 for c in pieces)
    assert [c.im_lo for c in pieces[1:]] == [c.im_hi for c in pieces[:-1]]
    assert (pieces[0].im_lo, pieces[-1].im_hi) == (strip.im_lo, strip.im_hi)
    assert len(zeros._split_cell(Rectangle(-1, 1, -1, 2), 1, 0)) == 4
    # the level loop winds those pieces in one batch and polishes the 11
    # that hold a zero, one each, as the next level
    f = zeros._Poly(P_BASE, 128)
    batches, levels = [], []
    real_windings, real_polish = zeros._windings, zeros._polish

    def windings(f, rects):
        batches.append(list(rects))
        return real_windings(f, rects)

    def polish(f, cells, tol):
        levels.append(list(cells))
        return real_polish(f, cells, tol)

    monkeypatch.setattr(zeros, "_windings", windings)
    monkeypatch.setattr(zeros, "_polish", polish)
    with working(128):
        zeros._zeros_in(f, strip, 11, mpf(2) ** -64)
    assert batches == [pieces]
    assert levels[0] == []
    assert all(c in pieces for c, _ in levels[1])
    assert [w for _, w in levels[1]] == [1] * 11


def test_constant_c_winds_each_level_in_one_call(monkeypatch):
    # the double zeros of (1 - 2^-s)^2 up to T = 1000, 221 on the line: the
    # 4619 rectangles of the strip and its cuts take one call per draw of
    # each level, not one per cut cell
    calls = []
    real = zeros._windings

    def spy(f, rects):
        calls.append(len(rects))
        return real(f, rects)

    monkeypatch.setattr(zeros, "_windings", spy)
    c = constant_C(P_SQ, 0, 1000, Fraction(1, 10 ** 9), bits=128)
    assert len(c.ordinates) == 221 and set(c.multiplicities) == {2}
    assert len(calls) <= 10
    assert sum(calls) == 4619


def test_windings_give_each_rectangle_its_own_verdict():
    # hit: its bottom edge passes through the zero of P_BASE at 0, where its
    # last level-0 node lands exactly, so P is 0.0 there in doubles; touch:
    # the zero at 0 is on its right edge; far: no shift reaches it; wide:
    # out of double range after its shift
    tau = zeros._unit_nodes(1)[0][-1]
    hit = Rectangle(-Fraction(tau), 1 - Fraction(tau), 0, 1)
    touch = Rectangle(-1, 0, -1, 1)
    far = Rectangle(-10 ** 7 - 2, -10 ** 7, 0, 1)
    wide = Rectangle(-900, 900, 1, 5)
    clean = Rectangle(-1, 1, 8, 10)
    f = zeros._Poly(P_BASE, 128)
    got = zeros._windings(f, [hit, touch, far, wide, clean])
    assert [type(v) for v in got[:4]] == [ContourTooClose] * 4
    assert [str(v) for v in got[:4]] == [
        "contour node hit a zero exactly", "polynomial nearly vanishes on the contour",
        f"Re s = {-10 ** 7 - 1:.6g} is too far from the axis",
        "terms leave double range on the contour"]
    assert got[4] == winding_count(f, clean) == 1
    for rect in (hit, touch, far, wide):
        with pytest.raises(ContourTooClose):
            winding_count(f, rect)


def _one_by_one(f, rects):
    """Each rectangle's own winding_count, or the exception it raised."""
    out = []
    for rect in rects:
        try:
            out.append(winding_count(f, rect))
        except (ContourTooClose, QuadratureNotConverged) as exc:
            out.append(type(exc))
    return out


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(P=st.sampled_from([P_BASE, P_SQ, P_CPLX, P_THREE]),
       nx=st.integers(1, 4), ny=st.integers(1, 12), seed=st.integers(0, 10 ** 6),
       through_zero=st.booleans(), block=st.sampled_from([1, 5, zeros._BLOCK]))
def test_batch_matches_each_rectangles_own_count(P, nx, ny, seed, through_zero, block):
    # jittered cuts as _split_cell makes them; with through_zero, extra cuts
    # on Re = 0 and Im = 0 put a corner on the zero of P_BASE and P_SQ at 0,
    # in a cell too short for those edges to pass another zero
    f = zeros._Poly(P, 128)
    rng = random.Random(seed)
    cell = Rectangle(-1, 1, Fraction(-1, 3), 8 if through_zero else 40)
    xs = zeros._cuts(cell.re_lo, cell.re_hi, nx, rng)
    ys = zeros._cuts(cell.im_lo, cell.im_hi, ny, rng)
    if through_zero:
        xs = sorted(set(xs) | {Fraction(0)})
        ys = sorted(set(ys) | {Fraction(0)})
    rects = [Rectangle(x0, x1, y0, y1)
             for y0, y1 in zip(ys, ys[1:]) for x0, x1 in zip(xs, xs[1:])]
    own = _one_by_one(f, rects)
    saved, zeros._BLOCK = zeros._BLOCK, block
    try:
        got = zeros._windings(f, rects)
    finally:
        zeros._BLOCK = saved
    assert [type(v) if isinstance(v, Exception) else v for v in got] == own


def test_zeros_on_line():
    zs = find_zeros(P_BASE, Rectangle(-1, 1, mpf("0.5"), 30), tol=mpf("1e-30"), bits=256)
    ts = zeros_on_line(zs, 0, mpf("1e-10"))
    assert len(ts) == 3
    with working(256):
        for k, t in enumerate(ts, start=1):
            assert abs(t - lattice_t(k)) < mpf("1e-20")
    assert zeros_on_line(zs, Fraction(1, 2), mpf("1e-10")) == []
    zc = find_zeros(P_CPLX, Rectangle(0, 1, 0, 2), tol=mpf("1e-30"), bits=256)
    on = zeros_on_line(zc, Fraction(1, 2), mpf("1e-10"))
    assert len(on) == 1


def test_constant_c_trivial_polynomial():
    c = constant_C(P_ONE, 0, 100, mpf("1e-9"), bits=128)
    assert c.partial == 0
    assert c.tail_bound == 0
    assert c.ordinates == ()
    assert c.multiplicities == ()


def test_constant_c_small_height():
    c = constant_C(P_BASE, 0, 25, Fraction(1, 10 ** 9), bits=256)
    assert c.T == 25
    assert c.line_tolerance == Fraction(1, 10 ** 9)
    assert len(c.ordinates) == 5      # k = -2..2
    with working(256):
        want = mp.fsum(1 / (mpf(1) / 4 + lattice_t(k) ** 2) for k in range(-2, 3))
        assert abs(c.partial - want) < mpf("1e-9")
        tb = mpf(3) / 2 * mp.log(2) / (2 * mp.pi) * 2 / 25
        assert abs(c.tail_bound - tb) < mpf("1e-15")
        # bracketing of the full lattice constant, as in the larger sweeps
        truth = mp.log(2) * mp.coth(mp.log(2) / 4)
        assert abs(c.partial + c.tail_bound / 2 - truth) <= c.tail_bound


def test_constant_c_counts_double_zeros_once():
    # (1 - 2^{-s})^2 has the zeros of 1 - 2^{-s}, each double: the zero
    # engine polishes them to 2^-(bits/2) like simple ones
    bits = 128
    simple = constant_C(P_BASE, 0, 100, Fraction(1, 10 ** 9), bits=bits)
    double = constant_C(P_SQ, 0, 100, Fraction(1, 10 ** 9), bits=bits)
    assert len(simple.ordinates) == len(double.ordinates) == 23
    eps = mpf(2) ** -(bits // 2)
    for a, b in zip(simple.ordinates, double.ordinates):
        assert abs(a - b) < eps
    assert abs(simple.partial - double.partial) < eps
    with working(bits):
        assert abs(double.partial - mpf("4.0378")) < mpf("1e-4")
    assert simple.multiplicities == (1,) * 23
    assert double.multiplicities == (2,) * 23


def test_constant_c_partial_weights_each_zero_once():
    # multiplicities ride along; partial stays the sum over distinct zeros
    c = constant_C(P_SQ, 0, 100, Fraction(1, 10 ** 9), bits=128)
    with working(128):
        want = mp.fsum(1 / (mpf(1) / 4 + t * t) for t in c.ordinates)
    assert c.partial == want
    assert len(c.multiplicities) == len(c.ordinates)


def test_constant_c_double_zeros_high_up_exit_0(capsys):
    assert main(["constant-c", "--poly", "1:1,2:-2,4:1", "--r", "0",
                 "--height", "1000", "--precision", "128"]) == 0
    assert '"ordinates"' in capsys.readouterr().out


def test_constant_c_ordinates_carry_working_precision():
    c = constant_C(P_BASE, 0, 40, Fraction(1, 10 ** 9), bits=256)
    assert len(c.ordinates) == 9
    for k, t in zip(range(-4, 5), c.ordinates):
        assert abs(t - lattice_t(k)) < mpf(2) ** -120, k


def test_find_zeros_near_height_1e12(capsys):
    # a double Newton holds s there only to about 1e-4, more than the
    # certificate's radius: the start runs in mpmath instead
    rect = Rectangle(-1, 1, Fraction(3000000000001, 3), 1000000000040)
    zs = find_zeros(P_BASE, rect, bits=128)
    assert zs.total_count == 4
    assert [m for (_, m) in zs.zeros] == [1] * 4
    assert main(["zeros", "--poly", "1:1,2:-1",
                 "--rect=-1,1,3000000000001/3,1000000000040", "--precision", "128"]) == 0
    capsys.readouterr()


def test_constant_c_wide_strip_is_one_zero_set(monkeypatch, capsys):
    # |P| varies by more than 10^3 along every horizontal line across the
    # strip alpha = -4.17 ... beta = 1.77: the whole strip goes through the
    # zero engine, once
    P = DirichletPolynomial.parse("1:1,2:5/3,3:3,4:1")
    engine = []
    real = zeros._zeros_in

    def spy(f, rect, w, tol):
        found = real(f, rect, w, tol)
        engine.append((rect, w, found))
        return found

    monkeypatch.setattr(zeros, "_zeros_in", spy)
    c = constant_C(P, 0, 30, Fraction(1, 10 ** 9), bits=256)
    assert c.ordinates == ()
    (strip, w, found), = engine
    assert strip.im_lo < -30 and strip.im_hi > 30
    zs = find_zeros(P, strip, bits=256)
    assert zs.total_count == w == 12
    assert (sorted(m for _, m in found) == sorted(m for _, m in zs.zeros)
            == [1] * 12)
    assert main(["constant-c", "--poly", "1:1,2:5/3,3:3,4:1", "--r", "0",
                 "--height", "30"]) == 0
    assert '"ordinates": []' in capsys.readouterr().out


def test_constant_c_coefficient_beyond_double_range():
    # 1 + 10^300 2^{-s} vanishes at s = log2(10^300) + i pi (2k + 1)/log 2,
    # where the terms are far outside double range: the strip is wound in
    # doubles shifted to its centre, c = 997
    P = DirichletPolynomial.parse("1:1,2:1e300")
    r = Fraction(99657842846620870436, 10 ** 17)      # log2(10^300) to 1e-17
    c = constant_C(P, r, 10, Fraction(1, 10 ** 9), bits=128)
    with working(128):
        t = mp.pi / mp.log(2)
        assert len(c.ordinates) == 2
        assert abs(c.ordinates[0] + t) < mpf(2) ** -60
        assert abs(c.ordinates[1] - t) < mpf(2) ** -60


def test_constant_c_strip_left_of_the_axis():
    # 1 - 2^{-s}/4 vanishes at s = -2 + 2 pi i k / log 2: the strip edges are
    # alpha = beta = -2, so the scan must run left of Re = 0
    P = DirichletPolynomial.parse("1:1,2:-1/4")
    c = constant_C(P, -2, 25, mpf("1e-9"), bits=192)
    assert len(c.ordinates) == 5      # k = -2..2, all on Re = -2
    for k, t in zip(range(-2, 3), c.ordinates):
        assert abs(t - lattice_t(k)) < mpf("1e-9")
    assert constant_C(P, 0, 25, mpf("1e-9"), bits=192).ordinates == ()


def test_constant_c_ordinates_sorted_disjoint():
    c = constant_C(P_BASE, 0, 40, mpf("1e-9"), bits=192)
    ts = list(c.ordinates)
    assert ts == sorted(ts)
    assert all(b - a > 1 for a, b in zip(ts, ts[1:]))
    assert len(ts) == 9               # k = -4..4


def test_double_newton_alone_equals_its_row_in_the_batch():
    # Newton with multiplicity 1 creeps to the triple zeros of P_CUBE, so
    # the last bits of P' at each step decide the double start a cell gets:
    # they must not depend on which other cells share the batch
    f = zeros._Poly(P_CUBE, 128)
    cells = []
    for k in range(1, 13):
        y = Fraction(round(float(lattice_t(k)) * 1000) + 37, 1000)
        cells.append(Rectangle(Fraction(-1, 8), Fraction(1, 9), y - Fraction(1, 8),
                               y + Fraction(1, 7)))
    starts = [complex(float(c.re_lo + c.re_hi) / 2, float(c.im_lo + c.im_hi) / 2)
              for c in cells]
    batch = zeros._np_newton(f, cells, starts)
    assert any(z is not None for z in batch)
    assert [zeros._np_newton(f, [c], [z])[0] for c, z in zip(cells, starts)] == batch


def test_polish_keeps_zero_when_first_step_leaves_cell():
    # from s = i y with phi = (y - t) log 2, the first Newton step for
    # 1 - 2^{-s} lands at Re s = (1 - cos phi)/log 2: above 1/2 here, so it
    # leaves the tall cell before converging to the zero at i t inside it
    t = lattice_t(1)
    c = Fraction(round(float(t) * 10 ** 4) + 13000, 10 ** 4)
    cell = Rectangle(Fraction(-1, 2), Fraction(1, 2), c - Fraction(151, 100),
                     c + Fraction(151, 100))
    phi = (float(c) - float(t)) * math.log(2)
    assert (1 - math.cos(phi)) / math.log(2) > 1 / 2
    f = zeros._Poly(P_BASE, 128)
    assert winding_count(f, cell) == 1
    with working(128):
        hit, = zeros._polish(f, [(cell, 1)], mpf(2) ** -64)
        assert hit is not None
        z, mult = hit
        assert mult == 1
        assert abs(z - mpc(0, lattice_t(1, 128))) < mpf(2) ** -60


@pytest.mark.parametrize("P, w", [(P_BASE, 1), (P_SQ, 2)])
def test_polish_first_step_uses_the_certificate_pair(P, w, monkeypatch):
    # the evaluator runs once at the certified start, inside the
    # certificate; the next point it sees is one Newton step from there with
    # the certificate's (P, P')
    f = zeros._Poly(P, 256)
    cell = Rectangle(Fraction(-1, 2), Fraction(1, 2), 5, 12)
    seen, starts = [], []
    real_terms, real_certify = zeros._Poly.fixed_terms, zeros._certify

    def terms(self, X, Y):
        seen.append((X, Y))
        return real_terms(self, X, Y)

    def certify(f, z, w):
        starts.append((z, len(seen)))
        pair = real_certify(f, z, w)
        starts.append(pair)
        return pair

    monkeypatch.setattr(zeros._Poly, "fixed_terms", terms)
    monkeypatch.setattr(zeros, "_certify", certify)
    hit, = zeros._polish(f, [(cell, w)], mpf(2) ** -128)
    assert hit is not None and hit[1] == w
    (z0, before), ((pr, pi), (dr, di)) = starts
    assert seen[before:].count(z0) == 1 and seen[before] == z0
    n2 = dr * dr + di * di
    step = (w * (pr * dr + pi * di) << 2 * f.prec, w * (pi * dr - pr * di) << 2 * f.prec)
    want = tuple(c - (s + n2 // 2) // n2 for c, s in zip(z0, step))
    assert seen[before + 1] == want != z0


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("P, w", [(P_BASE, 1), (P_SQ, 2), (P_CPLX, 1)])
def test_polish_ends_within_a_quarter_tol_of_a_finer_polish(P, w, bits):
    # the same cells polished at bits + 256: every zero within tol/4
    tol = mpf(2) ** -(bits // 2)
    cells = [(Rectangle(-1, 1, Fraction(-1, 3), 4), w),
             (Rectangle(-1, 1, Fraction(26, 3), 12), w)]
    if P is P_CPLX:
        cells = [(Rectangle(0, 1, 0, 2), 1)]
    coarse = zeros._polish(zeros._Poly(P, bits), cells, tol)
    fine = zeros._polish(zeros._Poly(P, bits + 256), cells, tol)
    with working(bits + 256):
        for a, b in zip(coarse, fine):
            assert a is not None and b is not None and a[1] == b[1] == w
            assert abs(a[0] - b[0]) <= tol / 4


def _polish_one(f, cell, w, tol):
    hit, = zeros._polish(f, [(cell, w)], tol)
    assert hit is not None and hit[1] == w
    return hit[0]


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("k", [110318, 110317800077])        # heights 1e6, 1e12
def test_fixed_polish_high_on_the_line(k, bits):
    # at 1e12 doubles hold s only to about 1e-4: the start runs in fixed
    # point from the centre; at 1e6 doubles start it. Either way the zero
    # lands within tol/4 of k 2 pi / log 2, each phase exact at that height
    f = zeros._Poly(P_BASE, bits)
    tol = mpf(2) ** -(bits // 2)
    t = Fraction(round(lattice_t(k, bits + 64) * 10 ** 6), 10 ** 6)
    cell = Rectangle(-1, 1, t - Fraction(1, 3), t + Fraction(1, 2))
    z = _polish_one(f, cell, 1, tol)
    with working(bits + 64):
        assert abs(z - mpc(0, lattice_t(k, bits + 64))) <= tol / 4


def test_fixed_polish_coefficient_beyond_double_range():
    # test_constant_c_coefficient_beyond_double_range's polynomial: the
    # terms leave double range, so Newton starts in fixed point, and the
    # block exponent keeps P and P' in scale at Re s = log2(10^300)
    P = DirichletPolynomial.parse("1:1,2:1e300")
    f = zeros._Poly(P, 128)
    assert f.a is None
    r = Fraction(99657842846620870436, 10 ** 17)
    cell = Rectangle(r - Fraction(1, 5), r + Fraction(1, 4), 4, 5)
    tol = mpf(2) ** -64
    z = _polish_one(f, cell, 1, tol)
    with working(256):
        want = mpc(300 * mp.log(10) / mp.log(2), mp.pi / mp.log(2))
        assert abs(z - want) <= tol / 4


def test_fixed_polish_far_left_of_the_axis():
    # 1 - 2^-1000 2^-s vanishes at s = -1000 + 2 pi i k / log 2; there
    # |Re s| log 2 > 600, so no double holds a term and the whole polish runs
    # in fixed point
    P = DirichletPolynomial([GaussianRational(1), GaussianRational(Fraction(-1, 2 ** 1000))])
    f = zeros._Poly(P, 256)
    assert not f.numpy_safe(1000.0)
    tol = mpf(2) ** -128
    cell = Rectangle(Fraction(-10003, 10), Fraction(-9998, 10), 8, 10)
    z = _polish_one(f, cell, 1, tol)
    with working(256):
        assert abs(z - mpc(-1000, lattice_t(1))) <= tol / 4
    zs = find_zeros(P, Rectangle(-1001, -999, -1, 1), bits=256)
    assert [m for _, m in zs.zeros] == [1] and abs(zs.zeros[0][0] + 1000) <= tol / 4


P_FAR = DirichletPolynomial([GaussianRational(1), GaussianRational(Fraction(-1, 2 ** 1000))])


def test_far_left_census_is_its_translate():
    # 1 - 2^-1000 2^-s is 1 - 2^-s moved to Re s = -1000: its contours are
    # wound on 1 - 2^-(s - 1000) and give the same zeros, moved back
    assert not zeros._Poly(P_FAR, 128).numpy_safe(999.0)
    tol = mpf(2) ** -64
    zs = find_zeros(P_FAR, Rectangle(-1001, -999, -1, 40), bits=128)
    assert zs.total_count == 5 and [m for _, m in zs.zeros] == [1] * 5
    with working(256):
        for k, (z, _) in enumerate(zs.zeros):
            assert abs(z - mpc(-1000, lattice_t(k))) <= tol / 4, k
    far = constant_C(P_FAR, -1000, 100, Fraction(1, 10 ** 9), bits=128)
    near = constant_C(P_BASE, 0, 100, Fraction(1, 10 ** 9), bits=128)
    assert len(far.ordinates) == len(near.ordinates) == 23
    assert far.multiplicities == near.multiplicities
    for a, b in zip(far.ordinates, near.ordinates):
        assert abs(a - b) <= mpf(2) ** -60


@pytest.mark.parametrize("bits", [256, 2048])
def test_contour_out_of_double_range_after_its_shift_raises(bits):
    # at Re s = +-900 the terms of 1 - 2^-s span 2^900, more than doubles
    # hold about the centre c = 0: the rectangle is refused at any precision
    with pytest.raises(ContourTooClose):
        winding_count(P_BASE, Rectangle(-900, 900, 1, 5), bits=bits)


@pytest.mark.parametrize("x", [10 ** 7, 10 ** 308 - 2], ids=["1e7", "1e308"])
def test_contour_far_from_the_axis(x):
    # far right only a_1 survives the shift, and no power of 2 is formed;
    # far left 2^-s dominates, and 2^|c| would take more than 2^22 bits
    assert winding_count(P_BASE, Rectangle(x, x + 2, 0, 1)) == 0
    with pytest.raises(ContourTooClose, match="too far from the axis"):
        winding_count(P_BASE, Rectangle(-x - 2, -x, 0, 1))


def test_tiny_coefficients_wind_on_the_shift():
    # a_2 = 10^-330 is below the smallest subnormal double, but near
    # Re s = -100 the term 10^-330 2^-s is as large as a_1 = 10^-300: the
    # zero at about -99.658 + 4.532i counts once, as it does for 10^300 P
    rect = Rectangle(-101, -99, 0, 10)
    tiny = DirichletPolynomial([GaussianRational(Fraction(1, 10 ** 300)),
                                GaussianRational(Fraction(1, 10 ** 330))])
    scaled = DirichletPolynomial([GaussianRational(1), GaussianRational(Fraction(1, 10 ** 30))])
    f = zeros._Poly(tiny, 128)
    assert f.a is None and not f.numpy_safe(0.0)
    assert zeros._Poly(scaled, 128).numpy_safe(101.0)
    assert winding_count(tiny, rect) == winding_count(scaled, rect) == 1


@pytest.mark.parametrize("bits", [128, 256])
def test_find_zeros_triple_zero(bits):
    # (1 - 2^-s)^3 has zeros of multiplicity 3 at 0 and 5 (2 pi / log 2).
    # Near one P is a cube, so Newton resolves it to about 2^-(prec/3):
    # 10^-15 at 128 bits, 10^-30 at 256 (where mpmath floats at 256 bits
    # could not get below about 10^-25). Each lands within tol/4 of the
    # zero and of a bits + 256 census.
    tol = mpf(10) ** -(15 if bits == 128 else 30)
    t = Fraction(round(lattice_t(5) * 1000), 1000)
    for rect, k in [(Rectangle(Fraction(-2, 5), Fraction(2, 5), Fraction(-2, 5),
                               Fraction(2, 5)), 0),
                    (Rectangle(-1, 1, t - Fraction(1, 3), t + Fraction(1, 2)), 5)]:
        zs = find_zeros(P_CUBE, rect, tol=tol, bits=bits)
        fine = find_zeros(P_CUBE, rect, tol=tol, bits=bits + 256)
        assert zs.total_count == 3 and [m for _, m in zs.zeros] == [3]
        with working(bits + 256):
            assert abs(zs.zeros[0][0] - mpc(0, lattice_t(k, bits + 256))) <= tol / 4
            assert abs(zs.zeros[0][0] - fine.zeros[0][0]) <= tol / 4


@pytest.mark.parametrize("edge", [Fraction(1, 4), Fraction(1, 3), Fraction(-7, 5)])
def test_fixed_membership_is_exact(edge):
    # an iterate exactly on (or just past) a Fraction edge is outside the
    # cell, one unit inside is inside: X 2^-P > q is tested as X den > num 2^P
    f = zeros._Poly(P_BASE, 128)
    P = f.prec
    cell = Rectangle(edge, edge + 1, edge, edge + 1)
    bounds = zeros._bounds(cell, P)
    (x0, x1, y0, y1), _ = bounds
    on_lo = edge.numerator * 2 ** P // edge.denominator             # floor(edge 2^P)
    hi = edge + 1
    on_hi = -(-hi.numerator * 2 ** P // hi.denominator)               # ceil(hi 2^P)
    assert (x0, x1, y0, y1) == (on_lo + 1, on_hi - 1, on_lo + 1, on_hi - 1)
    mid = (on_lo + on_hi) // 2
    stay = ((0, 0), (1, 0))              # P(z) = 0: Newton stops where it is
    for X, inside in [(on_lo, False), (on_lo + 1, True), (on_hi, False), (on_hi - 1, True)]:
        for z in ((X, mid), (mid, X)):
            got = zeros._newton(f, z, 1, bounds, 0, stay)
            assert (got == z) if inside else got is None, (X, inside)
    if edge.denominator == 4:            # a dyadic edge is hit exactly
        assert on_lo * 4 == 2 ** P


def test_validation():
    with pytest.raises(ValueError):
        find_zeros(P_BASE, Rectangle(-1, 1, -5, 5), tol=mpf(0))
    with pytest.raises(ValueError):
        constant_C(P_BASE, 0, 0, mpf("1e-9"))
