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
from xdp.dpcore import DirichletPolynomial, dp_eval
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


def _spy_mp_windings(monkeypatch):
    """Record every rectangle wound in mpmath."""
    calls = []
    real = zeros._winding_mp

    def spy(f, rect, *args, **kwargs):
        calls.append(rect)
        return real(f, rect, *args, **kwargs)

    monkeypatch.setattr(zeros, "_winding_mp", spy)
    return calls


def _lattice_point(k, bits):
    with working(bits):
        return mpc(0, lattice_t(k, bits))


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("k0", [0, 110318, 110317800077])     # heights 0, 1e6, 1e12
def test_certificate_counts_simple_lattice_zeros(k0, bits, monkeypatch):
    calls = _spy_mp_windings(monkeypatch)
    f = zeros._Poly(P_BASE, bits)
    for k in range(k0, k0 + 12):
        z = _lattice_point(k, bits)
        assert zeros._certify(f, z, 1) is not None, k
        with working(bits):
            nearby = z + mpc(mpf(10) ** -8, -mpf(10) ** -8)   # a Newton start
        assert zeros._certify(f, nearby, 1) is not None, k
        assert zeros._certify(f, z, 2) is None, k
    assert calls == []


def _cplx_zero(bits):
    with working(bits):
        return mpc(mpf(1) / 2, mp.pi / (4 * mp.log(2)))


@pytest.mark.parametrize("P, bits, w, zero", [
    (P_BASE, 256, 1, lambda bits: _lattice_point(3, bits)),
    (P_SQ, 128, 2, lambda bits: _lattice_point(3, bits)),
    (P_CUBE, 256, 3, lambda bits: _lattice_point(3, bits)),
    (P_CPLX, 192, 1, _cplx_zero),
])
def test_certificate_pair_is_mp_pair_bit_for_bit(P, bits, w, zero):
    # the polish's first Newton step takes (P, P') from the certificate
    f = zeros._Poly(P, bits)
    with working(bits):
        far = mpc(mpf(1) / 7, mp.pi / 3)        # no zero within 1e-6
    assert all(zeros._certify(f, far, k) is None for k in (1, 2, 3))
    z0 = zero(bits)
    got = zeros._certify(f, z0, w)
    with working(bits):
        want = f.mp_pair(z0)
    assert got is not None
    assert (got[0]._mpc_, got[1]._mpc_) == (want[0]._mpc_, want[1]._mpc_)


@pytest.mark.parametrize("P, mult", [(P_SQ, 2), (P_CUBE, 3)])
def test_certificate_counts_multiple_zeros(P, mult, monkeypatch):
    calls = _spy_mp_windings(monkeypatch)
    for bits in (128, 256):
        f = zeros._Poly(P, bits)
        z = _lattice_point(0, bits)
        assert zeros._certify(f, z, mult) is not None
        for wrong in range(1, 6):
            if wrong != mult:
                assert zeros._certify(f, z, wrong) is None, wrong
        z = _lattice_point(5, bits)
        assert zeros._certify(f, z, mult) is not None
    assert calls == []


def test_certificate_counts_two_close_simple_zeros():
    # 1 - (2 + e) 2^{-s} + (1 + e) 4^{-s} = (1 - 2^{-s})(1 - (1 + e) 2^{-s})
    # vanishes at 0 and at log2(1 + e) ~ 1.4e-7, both simple: inside every
    # radius the certificate tries, so it counts 2 there and never 1
    P = DirichletPolynomial.parse("1:1,2:-20000001/10000000,4:10000001/10000000")
    f = zeros._Poly(P, 256)
    z = _lattice_point(0, 256)
    assert zeros._certify(f, z, 2) is not None
    assert zeros._certify(f, z, 1) is None
    assert zeros._certify(f, z, 3) is None
    with working(256):
        far = mpc(mp.log(1 + mpf(10) ** -7) / mp.log(2), 0)
    assert zeros._certify(f, far, 2) is not None
    assert zeros._certify(f, far, 1) is None


def test_find_zeros_high_on_the_line(monkeypatch):
    # doubles locate the zeros at |s| ~ 1e6 and the certificate counts each
    # once, with no mpmath winding
    calls = _spy_mp_windings(monkeypatch)
    rect = Rectangle(-1, 1, 10 ** 6 + Fraction(1, 3), 10 ** 6 + 40)
    zs = find_zeros(P_BASE, rect, bits=256)
    assert zs.total_count == 5
    assert [m for (_, m) in zs.zeros] == [1] * 5
    assert calls == []
    with working(256):
        step = 2 * mp.pi / mp.log(2)
        for k, (z, _) in enumerate(zs.zeros, start=110318):
            assert abs(z - mp.mpc(0, k * step)) < mpf("1e-20"), k


def test_constant_c_double_zeros_wind_no_mp_contour(monkeypatch):
    calls = _spy_mp_windings(monkeypatch)
    c = constant_C(P_SQ, 0, 200, Fraction(1, 10 ** 9), bits=128)
    assert len(c.ordinates) == 45
    assert c.multiplicities == (2,) * 45
    assert calls == []


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
    # pieces, fewer than 100 // 2 = 50, wound in one batch; a square cell is
    # cut 2 x 2
    f = zeros._Poly(P_BASE, 128)
    batches = []
    real = zeros._windings

    def spy(f, rects):
        batches.append(list(rects))
        return real(f, rects)

    monkeypatch.setattr(zeros, "_windings", spy)
    strip = Rectangle(-1, 1, Fraction(1, 2), Fraction(201, 2))
    kept = zeros._split_cell(f, strip, 11)
    wound, = batches
    assert len(wound) == 36
    assert all(c.re_lo == -1 and c.re_hi == 1 for c in wound)
    assert [c.im_lo for c in wound[1:]] == [c.im_hi for c in wound[:-1]]
    assert (wound[0].im_lo, wound[-1].im_hi) == (strip.im_lo, strip.im_hi)
    assert sorted(w for _, w in kept) == [1] * 11
    batches.clear()
    zeros._split_cell(f, Rectangle(-1, 1, -1, 2), 1)
    wound, = batches
    assert len(wound) == 4


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
        if ContourTooClose in own:
            with pytest.raises(ContourTooClose):
                zeros._windings(f, rects)
        elif QuadratureNotConverged in own:
            with pytest.raises(QuadratureNotConverged):
                zeros._windings(f, rects)
        else:
            assert zeros._windings(f, rects) == own
    finally:
        zeros._BLOCK = saved


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
    # where the terms are far outside double range: the strip runs in mpmath
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
        hit = zeros._polish(f, cell, 1, mpf(2) ** -64)
        assert hit is not None
        z, mult = hit
        assert mult == 1
        assert abs(z - mpc(0, lattice_t(1, 128))) < mpf(2) ** -60


@pytest.mark.parametrize("P, w", [(P_BASE, 1), (P_SQ, 2)])
def test_polish_first_step_uses_the_certificate_pair(P, w, monkeypatch):
    # the polish must end where mpmath Newton from the certified start ends,
    # bit for bit; a loose tolerance stops it after a step or two, so a wrong
    # first (P, P') would show
    f = zeros._Poly(P, 256)
    cell = Rectangle(Fraction(-1, 2), Fraction(1, 2), 5, 12)
    starts = []
    real = zeros._certify

    def spy(f, z, w):
        starts.append(z)
        return real(f, z, w)

    monkeypatch.setattr(zeros, "_certify", spy)
    with working(256):
        tol = mpf(2) ** -40
        hit = zeros._polish(f, cell, w, tol)
        z0, = starts
        box = (-mpf(1) / 2, mpf(1) / 2, mpf(5), mpf(12))
        want = zeros._newton(f.mp_pair, z0, w, box, tol / 4)
    assert hit is not None and hit[1] == w
    assert hit[0]._mpc_ == want._mpc_


def test_validation():
    with pytest.raises(ValueError):
        find_zeros(P_BASE, Rectangle(-1, 1, -5, 5), tol=mpf(0))
    with pytest.raises(ValueError):
        constant_C(P_BASE, 0, 0, mpf("1e-9"))
