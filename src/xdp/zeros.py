"""Zero location by the argument principle, and the spectral constant.

A contour is a list of arcs (rectangle edges, or one small circle for a
multiplicity), integrated with composite 12-point Gauss-Legendre panels
whose count doubles until the winding number pins to the same integer on
consecutive levels. One integrator serves every contour in numpy doubles
and one in mpmath. The winding number is an integer, so:

* a rectangle runs in doubles whenever coefficient and exponent sizes keep
  the terms in double range (``_Poly.numpy_safe``), and in mpmath otherwise;
* a multiplicity circle about c runs in doubles from b_k = a_k k^-c formed
  in mpmath, so that their rounding does not grow with |c|, when in
  addition the smallest |P| sampled on it exceeds 2^20 times that rounding,
  eps (1 + r log m) sum_k |b_k| k^r (see ``_double_floor``). A circle about
  a multiple zero fails this test, since |P| there is of order
  radius^multiplicity, and is wound in mpmath.

One engine, ``_zeros_in``, locates zeros for both callers: ``find_zeros``
runs it on its rectangle and ``constant_C`` on each band of its strip scan
that winds. A cell is split by jittered quadrisection (a long cell across
its long side) until it holds one zero or is no wider than _COARSE, and is
then polished (``_polish``): Newton from its centre to within _NEWTON_STOP
of a zero, a circle count for the multiplicity, and Newton with that
multiplicity in mpmath to the requested tolerance. One Newton loop runs
over either evaluator of P, and P is prepared once per call in both forms
(``_Poly``).
"""

from __future__ import annotations

import cmath
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from mpmath import mp, mpc, mpf

from .dpcore import DirichletPolynomial, _mp_pair, _mp_terms, dp_eval, strip_bounds
from .errors import ContourTooClose, NonConvergent, QuadratureNotConverged
from .exact import as_fraction, fraction_to_mpf, to_mp
from .precision import resolve_bits, working

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_CHUNK = 1 << 16
_COARSE = Fraction(1, 4)          # polish cells once no edge exceeds this
_CLUSTER_FLOOR = Fraction(1, 10 ** 5)
_MULT_RADIUS = "1e-6"
_NEWTON_STOP = 1e-6 / 64          # a start this close keeps the circle on its zero
_NEWTON_STEPS = 200
_SAFE_LOG = 600.0                 # terms up to e^600 stay in double range
_CACHED_PANELS = 256              # largest node table kept in _NODE_TABLES
_NODE_TABLES: dict = {}           # panels -> _unit_nodes table
_DOUBLE_MARGIN = 2.0 ** 20 * 2.0 ** -52   # 20 bits above double rounding


# =========================================================================
# geometry
# =========================================================================

@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle re_lo <= Re(s) <= re_hi, similarly Im."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    def __post_init__(self):
        for name in ("re_lo", "re_hi", "im_lo", "im_hi"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if not self.re_lo < self.re_hi:
            raise ValueError(f"need re_lo < re_hi, got {self.re_lo}, {self.re_hi}")
        if not self.im_lo < self.im_hi:
            raise ValueError(f"need im_lo < im_hi, got {self.im_lo}, {self.im_hi}")

    @property
    def width(self) -> Fraction:
        return self.re_hi - self.re_lo

    @property
    def height(self) -> Fraction:
        return self.im_hi - self.im_lo

    @property
    def center(self):
        return ((self.re_lo + self.re_hi) / 2, (self.im_lo + self.im_hi) / 2)

    def corners_complex(self):
        x0, x1 = float(self.re_lo), float(self.re_hi)
        y0, y1 = float(self.im_lo), float(self.im_hi)
        return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]

    def quadrisect(self, cx: Fraction, cy: Fraction):
        return [Rectangle(self.re_lo, cx, self.im_lo, cy),
                Rectangle(cx, self.re_hi, self.im_lo, cy),
                Rectangle(self.re_lo, cx, cy, self.im_hi),
                Rectangle(cx, self.re_hi, cy, self.im_hi)]

    def __str__(self):
        return f"[{self.re_lo}, {self.re_hi}] x [{self.im_lo}, {self.im_hi}]"


def _as_rect(rect) -> Rectangle:
    if isinstance(rect, Rectangle):
        return rect
    return Rectangle(*rect)


# =========================================================================
# the polynomial in doubles and in mpmath
# =========================================================================

def _log_abs(c) -> float:
    """log |c| of a nonzero GaussianRational, for coefficients of any size."""
    q = c.abs2()
    return (math.log(q.numerator) - math.log(q.denominator)) / 2


class _Poly:
    """P in the two forms the zero engine evaluates, built once per call.

    numpy: the coefficients ``a`` (complex128, or None when they leave double
    range), ``logk`` and ``log_asum`` = log sum |a_k|, taken from exact
    logarithms. mpmath: ``terms``, P's ``_mp_terms`` at ``bits``.
    """

    __slots__ = ("P", "bits", "a", "logk", "log_asum", "terms")

    def __init__(self, P: DirichletPolynomial, bits: int):
        self.P, self.bits = P, bits
        items = list(P.items())
        self.logk = np.log(np.array([k for k, _ in items], dtype=np.float64))
        logs = [_log_abs(c) for _, c in items]
        top = max(logs)
        self.log_asum = top + math.log(sum(math.exp(v - top) for v in logs))
        self.a = None
        if self.log_asum < _SAFE_LOG:
            self.a = np.array([complex(c) for _, c in items], dtype=np.complex128)
        with working(bits):
            self.terms = _mp_terms(P)

    def numpy_safe(self, sigma_max: float) -> bool:
        """Whether doubles hold every term a_k k^-s with |Re s| <= sigma_max."""
        return sigma_max * math.log(self.P.m) + self.log_asum < _SAFE_LOG

    def np_pair(self, z: complex):
        """(P(z), P'(z)) in doubles, or None where they overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            t = self.a * np.exp(-z * self.logk)
            p, d = complex(t.sum()), -complex(t @ self.logk)
        return (p, d) if cmath.isfinite(p) and cmath.isfinite(d) else None

    def mp_pair(self, z):
        """(P(z), P'(z)) at the ambient precision."""
        return _mp_pair(self.terms, z)


# =========================================================================
# contour integration
# =========================================================================

def _np_values(a, logk, s):
    out = np.empty(len(s), dtype=np.complex128)
    for lo in range(0, len(s), _CHUNK):
        block = s[lo:lo + _CHUNK]
        out[lo:lo + _CHUNK] = np.exp(-np.multiply.outer(block, logk)) @ a
    return out


def _np_ratio(a, logk, s):
    """P'/P at the nodes; raises on an exact hit."""
    num = np.empty(len(s), dtype=np.complex128)
    den = np.empty(len(s), dtype=np.complex128)
    al = a * logk
    for lo in range(0, len(s), _CHUNK):
        E = np.exp(-np.multiply.outer(s[lo:lo + _CHUNK], logk))
        den[lo:lo + _CHUNK] = E @ a
        num[lo:lo + _CHUNK] = -(E @ al)
    if not np.all(den != 0):
        raise ContourTooClose("contour node hit a zero exactly")
    return num / den


@dataclass(frozen=True)
class _Arc:
    """One smooth piece z(tau), 0 <= tau <= 1, of a closed contour: the
    segment from a to b, or with circle=True the circle of radius b about a,
    once counter-clockwise. Level L integrates it with base << L panels."""

    a: object
    b: object
    base: int
    circle: bool = False

    def at(self, tau, lib):
        """z(tau) and dz/dtau in numpy (lib=np, tau an array) or mpmath (lib=mp)."""
        if self.circle:
            e = self.b * lib.exp(2j * lib.pi * tau)
            return self.a + e, 2j * lib.pi * e
        return self.a + tau * (self.b - self.a), self.b - self.a


def _rect_arcs(corners, base):
    return [_Arc(corners[i], corners[(i + 1) % 4], base[i]) for i in range(4)]


def _circle(center, radius):
    return _Arc(center, radius, 4, circle=True)


def _unit_nodes(panels: int):
    """Composite 12-point Gauss-Legendre nodes on [0, 1], weights summing to 1.

    Tables up to _CACHED_PANELS panels are kept: small contours are wound
    thousands of times, and for them building the table costs more than
    using it. Larger ones cost little next to the evaluation they feed.
    """
    table = _NODE_TABLES.get(panels)
    if table is None:
        taus = ((_GL_X + 1.0) / 2.0 + np.arange(panels)[:, None]).ravel() / panels
        table = (taus, np.tile(_GL_W, panels) / (2.0 * panels))
        for arr in table:
            arr.flags.writeable = False
        if panels <= _CACHED_PANELS:
            _NODE_TABLES[panels] = table
    return table


def _np_samples(arcs, n: int):
    """n equispaced points on each arc; an arc's end is the next one's start."""
    tau = np.arange(n) / n
    return np.concatenate([arc.at(tau, np)[0] for arc in arcs])


def _stabilized(levels):
    """Drive a level -> complex-winding callable to a stable integer."""
    prev = None
    for level, w in levels:
        r = int(round(w.real))
        ok = abs(w.real - r) <= 0.25 and abs(w.imag) <= 0.25
        if ok and prev is not None and prev == r:
            if r < 0:
                raise QuadratureNotConverged(f"negative winding {r}")
            return r
        prev = r if ok else None
    raise QuadratureNotConverged("winding did not stabilize on an integer")


def _winding_np(a, logk, arcs, max_levels: int):
    """Winding number of P's image along the arcs, in doubles; each level
    evaluates P'/P at all of its nodes in one call."""

    def levels():
        for level in range(max_levels):
            nodes, wdz = [], []
            for arc in arcs:
                panels = arc.base << level
                if panels * 12 > 4_000_000:
                    raise QuadratureNotConverged("contour refinement exploded")
                tau, w = _unit_nodes(panels)
                z, dz = arc.at(tau, np)
                nodes.append(z)
                wdz.append(w * dz)
            total = _np_ratio(a, logk, np.concatenate(nodes)) @ np.concatenate(wdz)
            yield level, total / (2j * np.pi)

    return _stabilized(levels())


def _winding_mp(f: _Poly, arcs, samples: int, max_levels: int):
    """The winding number at f.bits, after checking |P| at `samples` points
    per arc against 2^-(bits/2) of its largest sampled value."""
    bits = f.bits
    with working(bits):
        vals = [abs(f.mp_pair(arc.at(mpf(q) / samples, mp)[0])[0])
                for arc in arcs for q in range(samples)]
        amax = max(vals)
        if not amax > 0 or min(vals) < amax * mpf(2) ** (-(bits // 2)):
            raise ContourTooClose("polynomial nearly vanishes on the contour")
        gx = [mpf(float(x)) for x in _GL_X]
        gw = [mpf(float(w)) for w in _GL_W]

        def levels():
            for level in range(max_levels):
                total = mpf(0)
                for arc in arcs:
                    panels = arc.base << level
                    if panels * 12 > 40_000:
                        raise QuadratureNotConverged("contour refinement exploded")
                    for pnl in range(panels):
                        for x, wq in zip(gx, gw):
                            z, dz = arc.at((pnl + (x + 1) / 2) / panels, mp)
                            p, d = f.mp_pair(z)
                            if p == 0:
                                raise ContourTooClose("contour node hit a zero")
                            total = total + (d / p) * dz * (wq / (2 * panels))
                yield level, complex(total / (2j * mp.pi))

        return _stabilized(levels())


def winding_count(P, rect, bits: Optional[int] = None) -> int:
    """Number of zeros (with multiplicity) inside the rectangle.

    P is a DirichletPolynomial, or the _Poly that the zero engine prepared
    once for all of its windings; its precision then replaces ``bits``.
    """
    rect = _as_rect(rect)
    f = P if isinstance(P, _Poly) else _Poly(P, resolve_bits(bits))
    if f.P.m == 1:
        return 0
    corners = rect.corners_complex()
    lengths = [abs(corners[(i + 1) % 4] - corners[i]) for i in range(4)]
    base = [max(1, math.ceil(L / 1.5)) for L in lengths]
    sigma_max = max(abs(float(rect.re_lo)), abs(float(rect.re_hi)))
    if f.numpy_safe(sigma_max):
        arcs = _rect_arcs(corners, base)
        sv = np.abs(_np_values(f.a, f.logk, _np_samples(arcs, 128)))
        amax = sv.max()
        if not amax > 0 or sv.min() < amax * 1e-12:
            raise ContourTooClose("polynomial nearly vanishes on the contour")
        return _winding_np(f.a, f.logk, arcs, max_levels=13)
    with working(f.bits):
        mcorners = [mpc(fraction_to_mpf(x), fraction_to_mpf(y))
                    for (x, y) in [(rect.re_lo, rect.im_lo), (rect.re_hi, rect.im_lo),
                                   (rect.re_hi, rect.im_hi), (rect.re_lo, rect.im_hi)]]
    return _winding_mp(f, _rect_arcs(mcorners, base), samples=32, max_levels=9)


def _double_floor(b, logk, m: int, radius: float) -> float:
    """Smallest |P| on a circle about c that a double evaluation resolves.

    The doubles evaluate P(c + u) = sum_k b_k exp(-u log k), |u| = radius,
    from b_k = a_k k^-c formed in mpmath (``_shifted``), so the phase they
    round is u log k, not c log k, and their error does not grow with |c|.
    Each b_k carries a rounding of eps = 2^-52, u log k an absolute error
    of about eps radius log k that exp turns into a relative error of the
    term, and the product and the sum add a few eps more. So
    |fl(P) - P| <~ eps (1 + radius log m) sum_k |b_k| k^radius. Asking |P|
    to be 2^20 times that keeps about 20 correct bits of |P| along the
    circle, which pins its argument and leaves room for the small constants
    and the number of terms.
    """
    size = float(np.abs(b) @ np.exp(radius * logk))
    return _DOUBLE_MARGIN * (1.0 + radius * math.log(m)) * size


def _shifted(f: _Poly, center) -> np.ndarray:
    """b_k = a_k k^-center from the mpmath terms, rounded to doubles. Their
    own error, about |center| log k 2^-bits, stays below the doubles'
    rounding while |center| < 2^(bits - 60)."""
    with working(f.bits):
        c = mpc(center)
        return np.array([complex(a * mp.exp(-c * logk) if logk else a)
                         for a, logk in f.terms], dtype=np.complex128)


def _winding_circle(f: _Poly, center, radius) -> int:
    """Zeros inside the circle: in doubles about the centre when they resolve
    |P| on it (see _double_floor), otherwise at f.bits."""
    r = float(radius)
    if f.numpy_safe(abs(float(mp.re(center))) + r):
        b = _shifted(f, center)
        circle = _circle(0j, r)
        # the floor is at least 2^-32 sum_k |b_k|, so a circle that clears
        # it also clears _winding_mp's contact test at any bits >= 64
        sv = np.abs(_np_values(b, f.logk, _np_samples([circle], 64)))
        if sv.min() >= _double_floor(b, f.logk, f.P.m, r):
            try:
                return _winding_np(b, f.logk, [circle], max_levels=7)
            except (ContourTooClose, QuadratureNotConverged):
                pass        # doubles did not settle it: mpmath decides
    return _winding_mp(f, [_circle(center, radius)], samples=64, max_levels=7)


def _multiplicity(f: _Poly, z) -> int:
    """Circle count around a converged location; shrinks on contact."""
    with working(f.bits):
        z, radius = mpc(z), mpf(_MULT_RADIUS)
        for _ in range(5):
            try:
                return _winding_circle(f, z, radius)
            except (ContourTooClose, QuadratureNotConverged):
                radius = radius * mpf("0.7")
    raise NonConvergent(f"multiplicity circle kept touching zeros near {z}")


# =========================================================================
# the zero engine
# =========================================================================

def _newton(pair, z, mult: int, box, stop):
    """Newton steps z <- z - mult P(z)/P'(z), with pair(z) = (P(z), P'(z)) in
    doubles or in mpmath.

    Returns the iterate after the first step no longer than ``stop``, or
    None once an iterate leaves box = (re_lo, re_hi, im_lo, im_hi), when P'
    vanishes or doubles overflow, or after _NEWTON_STEPS steps.
    """
    x0, x1, y0, y1 = box
    for _ in range(_NEWTON_STEPS):
        pd = pair(z)
        if pd is None:
            return None
        p, d = pd
        if not p:
            return z
        if not d:
            return None
        step = mult * p / d
        z = z - step
        if not (x0 < z.real < x1 and y0 < z.imag < y1):
            return None
        if abs(step) <= stop:
            return z
    return None


@dataclass(frozen=True)
class ZeroSet:
    zeros: tuple            # ((location, multiplicity), ...) ordered by height
    rectangle: Rectangle
    total_count: int
    residual: Optional[mpf]  # max |P(z)| over the polished zeros, and each
    residuals: tuple         # |P(z)|; None and () in constant_C's band scan


def _jitter_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-80_000, 80_001), 10 ** 6)


def _split_cell(f: _Poly, cell: Rectangle, w_parent: int):
    """Jittered quadrisect, or bisect across the long side of a cell more
    than twice as long as wide, whose child windings sum to the parent's."""
    for retry in range(6):
        rng = random.Random(f"{cell}|{retry}")
        cx = (cell.re_lo + cell.re_hi) / 2 + _jitter_fraction(rng) * cell.width
        cy = (cell.im_lo + cell.im_hi) / 2 + _jitter_fraction(rng) * cell.height
        if cell.height > 2 * cell.width:
            children = [Rectangle(cell.re_lo, cell.re_hi, cell.im_lo, cy),
                        Rectangle(cell.re_lo, cell.re_hi, cy, cell.im_hi)]
        elif cell.width > 2 * cell.height:
            children = [Rectangle(cell.re_lo, cx, cell.im_lo, cell.im_hi),
                        Rectangle(cx, cell.re_hi, cell.im_lo, cell.im_hi)]
        else:
            children = cell.quadrisect(cx, cy)
        try:
            ws = [winding_count(f, c) for c in children]
        except (ContourTooClose, QuadratureNotConverged):
            continue
        if sum(ws) == w_parent:
            return [(c, w) for c, w in zip(children, ws) if w > 0]
    raise QuadratureNotConverged(f"cell {cell} would not split additively")


def _polish(f: _Poly, cell: Rectangle, w: int, tol):
    """(zero, multiplicity) out of a cell holding w zeros, or None to split it.

    Newton from the centre settles within _NEWTON_STOP of a zero: in doubles
    where the terms fit and doubles resolve s that finely, else, or when
    they do not settle, in mpmath. The circle count there must equal w.
    Newton with that multiplicity then polishes in mpmath until a step is
    at most tol/4.
    """
    edges = (cell.re_lo, cell.re_hi, cell.im_lo, cell.im_hi)
    start = complex(*map(float, cell.center))
    z = None
    # doubles hold s to about 2^-52 |s|: leave 10 bits of room below the stop
    if (f.numpy_safe(max(abs(float(cell.re_lo)), abs(float(cell.re_hi))))
            and 2.0 ** -42 * (1.0 + abs(start)) <= _NEWTON_STOP):
        z = _newton(f.np_pair, start, 1, tuple(map(float, edges)), _NEWTON_STOP)
    with working(f.bits):
        box = tuple(fraction_to_mpf(v) for v in edges)
        if z is None:
            z = _newton(f.mp_pair, mpc(start), 1, box, _NEWTON_STOP)
            if z is None:
                return None
        mult = _multiplicity(f, z)
        if mult != w:
            return None
        z = _newton(f.mp_pair, mpc(z), mult, box, tol / 4)
    return None if z is None else (z, mult)


def _zeros_in(f: _Poly, rect: Rectangle, w_total: int, tol) -> list:
    """(zero, multiplicity) for the w_total > 0 zeros inside rect.

    A cell is polished once it holds one zero or no edge exceeds _COARSE,
    and split when it is larger or its polish fails. Raises NonConvergent
    when distinct zeros cannot be separated at the cluster floor.
    """
    found = []
    queue = deque([(rect, w_total)])
    while queue:
        cell, w = queue.popleft()
        size = max(cell.width, cell.height)
        if w == 1 or size <= _COARSE:
            hit = _polish(f, cell, w, tol)
            if hit is not None:
                found.append(hit)
                continue
            if size <= _CLUSTER_FLOOR:
                raise NonConvergent(f"could not separate {w} zeros inside {cell}")
        queue.extend(_split_cell(f, cell, w))
    if sum(m for _, m in found) != w_total:
        raise NonConvergent(
            f"located multiplicities sum to {sum(m for _, m in found)}, "
            f"contour count is {w_total}")
    return found


def find_zeros(P: DirichletPolynomial, rect, tol=None,
               bits: Optional[int] = None) -> ZeroSet:
    """All zeros of P inside the rectangle, polished to |step| <= tol/4.

    Raises ContourTooClose if a zero (numerically) sits on the requested
    boundary, and NonConvergent when distinct zeros cannot be separated at
    the cluster floor.
    """
    rect = _as_rect(rect)
    bits = resolve_bits(bits)
    with working(bits):
        tol = mpf(2) ** (-(bits // 2)) if tol is None else to_mp(tol)
        if not tol > 0:
            raise ValueError(f"need tol > 0, got {tol}")
    f = _Poly(P, bits)
    w_total = winding_count(f, rect)
    found = _zeros_in(f, rect, w_total, tol) if w_total else []
    found.sort(key=lambda item: (float(mp.im(item[0])), float(mp.re(item[0]))))
    with working(bits):
        residuals = tuple(abs(dp_eval(P, z, bits=bits)) for z, _ in found)
    return ZeroSet(zeros=tuple(found), rectangle=rect, total_count=w_total,
                   residual=max(residuals) if residuals else mpf(0),
                   residuals=residuals)


def zeros_on_line(zs: ZeroSet, r, line_tol) -> list:
    """Ordinates of the zeros whose real part is within line_tol of r."""
    r_q = as_fraction(r)
    with working(resolve_bits(None)):
        r_mp = fraction_to_mpf(r_q)
        tol = to_mp(line_tol)
        out = [mp.im(z) for (z, _) in zs.zeros if abs(mp.re(z) - r_mp) <= tol]
    return sorted(out, key=float)


# =========================================================================
# spectral constant
# =========================================================================

@dataclass(frozen=True)
class ConstantC:
    r: Fraction
    partial: mpf
    T: object
    tail_bound: mpf
    line_tolerance: Fraction
    ordinates: tuple


def _line_clear(f: _Poly, x0: float, x1: float, y: float) -> bool:
    """Whether |P| stays above 1e-3 of its largest value at 160 points of the
    segment Im s = y, x0 <= Re s <= x1 (in mpmath where the terms leave
    double range)."""
    if f.numpy_safe(max(abs(x0), abs(x1))):
        s = complex(x0, y) + np.linspace(0.0, 1.0, 160) * (x1 - x0)
        v = np.abs(_np_values(f.a, f.logk, s))
        lo, hi = float(v.min()), float(v.max())
    else:
        with working(f.bits):
            v = [abs(f.mp_pair(mpc(x0 + (x1 - x0) * q / 159, y))[0])
                 for q in range(160)]
            lo, hi = min(v), max(v)
    return hi > 0 and lo >= hi * 1e-3


def constant_C(P: DirichletPolynomial, r, T, line_tol, bits: Optional[int] = None) -> ConstantC:
    """Partial sum of 1/(1/4 + t^2) over distinct on-line zeros up to |t| <= T,
    plus a density tail bound for everything above.

    The strip is cut into horizontal bands; each band that winds goes
    through the zero engine, zeros polished to 2^-(bits/2) as in
    find_zeros, and ``zeros_on_line`` keeps those within line_tol of Re = r.
    """
    if not T > 0:
        raise ValueError(f"need T > 0, got {T}")
    bits = resolve_bits(bits)
    r_q = as_fraction(r)
    line_tol_q = as_fraction(line_tol)
    if P.m == 1:
        return ConstantC(r=r_q, partial=mpf(0), T=T, tail_bound=mpf(0),
                         line_tolerance=line_tol_q, ordinates=())
    f = _Poly(P, bits)
    with working(bits):
        tol = mpf(2) ** (-(bits // 2))
    sb = strip_bounds(P, bits=min(bits, 192))
    x0 = as_fraction(sb.alpha) - Fraction(1, 2)
    x1 = as_fraction(sb.beta) + Fraction(1, 2)
    h = Fraction(float(0.5 * 2 * math.pi / (1.5 * math.log(P.m)))).limit_denominator(10 ** 6)
    T_f = as_fraction(T)
    last_error = None
    for attempt in range(6):
        delta = h * Fraction(123456 + attempt * 13700, 1_000_000)
        k_min = math.floor((-T_f - delta) / h)
        k_max = math.ceil((T_f - delta) / h)
        grid = [delta + k * h for k in range(k_min, k_max + 1)]
        if not all(_line_clear(f, float(x0), float(x1), float(y)) for y in grid):
            continue
        try:
            whole = Rectangle(x0, x1, grid[0], grid[-1])
            w_whole = winding_count(f, whole)
            found = []
            w_sum = 0
            for y_lo, y_hi in zip(grid, grid[1:]):
                band = Rectangle(x0, x1, y_lo, y_hi)
                w = winding_count(f, band)
                w_sum += w
                if w:
                    found.extend(_zeros_in(f, band, w, tol))
            if w_sum != w_whole:
                raise QuadratureNotConverged(
                    f"band counts {w_sum} disagree with the full contour {w_whole}")
        except (ContourTooClose, QuadratureNotConverged, NonConvergent) as exc:
            last_error = exc
            continue
        zs = ZeroSet(zeros=tuple(found), rectangle=whole, total_count=w_whole,
                     residual=None, residuals=())
        with working(bits):
            T_mp = fraction_to_mpf(T_f)
            ts = [t for t in zeros_on_line(zs, r_q, line_tol_q) if abs(t) <= T_mp]
            partial = mp.fsum(1 / (mpf(1) / 4 + t * t) for t in ts)
            density = mpf(3) / 2 * mp.log(P.m) / (2 * mp.pi)
            tail = density * 2 / T_mp
        return ConstantC(r=r_q, partial=partial, T=T, tail_bound=tail,
                         line_tolerance=line_tol_q, ordinates=tuple(ts))
    raise QuadratureNotConverged(
        f"band decomposition kept failing: {last_error}")
