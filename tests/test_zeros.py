"""Argument-principle zero location and the spectral constant.

Frozen facts used as oracles:
  1 - 2^{-s} vanishes exactly at s = 2 pi i k / log 2, all simple;
  (1 - 2^{-s})^2 = 1 - 2*2^{-s} + 4^{-s} has the same zeros, all double;
  1 - (1+i) 2^{-s} vanishes at s = 1/2 + i pi/(4 log 2) (mod the lattice);
  sum over the full lattice of 1/(1/4 + t^2) = log2 * coth(log2 / 4).
"""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from xdp.cli import main
from xdp.dpcore import DirichletPolynomial
from xdp.errors import ContourTooClose
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
    """Record, per mpmath winding, whether its contour was a circle."""
    calls = []
    real = zeros._winding_mp

    def spy(f, arcs, *args, **kwargs):
        calls.append(arcs[0].circle)
        return real(f, arcs, *args, **kwargs)

    monkeypatch.setattr(zeros, "_winding_mp", spy)
    return calls


def test_double_circle_matches_mp_on_simple_zeros(monkeypatch):
    calls = _spy_mp_windings(monkeypatch)
    with working(256):
        centers = [(P_BASE, complex(mp.mpc(0, lattice_t(k)))) for k in range(12)]
        centers.append((P_CPLX, complex(mp.mpc(mpf(1) / 2, mp.pi / (4 * mp.log(2))))))
        radius = mpf("1e-6")
        for P, c in centers:
            f = zeros._Poly(P, 256)
            center = mpc(c.real, c.imag)
            assert zeros._winding_circle(f, center, radius) == 1, c
            assert calls == [], c          # the guard let doubles wind it
            mp_count = zeros._winding_mp(f, [zeros._circle(center, radius)],
                                         samples=64, max_levels=7)
            assert mp_count == 1, c
            calls.clear()


@pytest.mark.parametrize("P, mult", [(P_SQ, 2), (P_CUBE, 3)])
def test_guard_sends_multiple_zeros_to_mp(P, mult, monkeypatch):
    # |P| ~ (1e-6 log 2)^mult on the circle: below what doubles resolve
    calls = _spy_mp_windings(monkeypatch)
    assert zeros._multiplicity(zeros._Poly(P, 256), mpc(0, 0)) == mult
    assert calls == [True]


def test_find_zeros_high_on_the_line(monkeypatch):
    # wound about their centre, the circles' double phase error no longer
    # grows with |s| ~ 1e6: they run in doubles and agree with mpmath
    calls = _spy_mp_windings(monkeypatch)
    rect = Rectangle(-1, 1, 10 ** 6 + Fraction(1, 3), 10 ** 6 + 40)
    zs = find_zeros(P_BASE, rect, bits=256)
    assert zs.total_count == 5
    assert [m for (_, m) in zs.zeros] == [1] * 5
    assert calls == []
    monkeypatch.setattr(zeros, "_DOUBLE_MARGIN", math.inf)
    assert find_zeros(P_BASE, rect, bits=256) == zs
    assert calls == [True] * 5
    with working(256):
        step = 2 * mp.pi / mp.log(2)
        for k, (z, _) in enumerate(zs.zeros, start=110318):
            assert abs(z - mp.mpc(0, k * step)) < mpf("1e-20"), k


def test_find_zeros_double_circles_match_forced_mp(monkeypatch):
    rect = Rectangle(-1, 1, Fraction(1, 2), Fraction(201, 2))
    calls = _spy_mp_windings(monkeypatch)
    fast = find_zeros(P_BASE, rect, tol=Fraction(1, 10 ** 30), bits=256)
    assert calls == []                     # every contour ran in doubles
    monkeypatch.setattr(zeros, "_DOUBLE_MARGIN", math.inf)
    forced = find_zeros(P_BASE, rect, tol=Fraction(1, 10 ** 30), bits=256)
    assert calls == [True] * 11
    assert forced == fast


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
    # (1 - 2^{-s})^2 has the zeros of 1 - 2^{-s}, each double: the band
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
    # multiplicity circle's radius: the start runs in mpmath instead
    rect = Rectangle(-1, 1, Fraction(3000000000001, 3), 1000000000040)
    zs = find_zeros(P_BASE, rect, bits=128)
    assert zs.total_count == 4
    assert [m for (_, m) in zs.zeros] == [1] * 4
    assert main(["zeros", "--poly", "1:1,2:-1",
                 "--rect=-1,1,3000000000001/3,1000000000040", "--precision", "128"]) == 0
    capsys.readouterr()


def test_constant_c_coefficient_beyond_double_range():
    # 1 + 10^300 2^{-s} vanishes at s = log2(10^300) + i pi (2k + 1)/log 2,
    # where the terms are far outside double range: the scan runs in mpmath
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


def test_validation():
    with pytest.raises(ValueError):
        find_zeros(P_BASE, Rectangle(-1, 1, -5, 5), tol=mpf(0))
    with pytest.raises(ValueError):
        constant_C(P_BASE, 0, 0, mpf("1e-9"))
