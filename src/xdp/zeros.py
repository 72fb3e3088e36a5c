"""Zero location by the argument principle, and the spectral constant.

A contour is a list of arcs (rectangle edges, or one small circle for a
multiplicity), integrated with composite 12-point Gauss-Legendre panels
whose count doubles until the winding number pins to the same integer on
consecutive levels. One integrator serves every contour in numpy doubles
and one in mpmath. The winding number is an integer, so:

* a rectangle runs in doubles whenever coefficient and exponent sizes keep
  the terms in double range (``_numpy_safe``), and in mpmath otherwise;
* a multiplicity circle runs in doubles when, in addition, the smallest
  |P| sampled on it exceeds 2^20 times the rounding error of a double
  evaluation of P, eps (1 + |s|_max log m) sum_k |a_k| k^-sigma (see
  ``_double_floor``). A circle about a multiple zero fails this test, since
  |P| there is of order radius^multiplicity, and is wound in mpmath.

Zero positions themselves are polished to full working precision by Newton
steps (multiplicity-accelerated after a circle count).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from mpmath import mp, mpc, mpf

from .dpcore import DirichletPolynomial, dp_eval, strip_bounds
from .errors import ContourTooClose, NonConvergent, QuadratureNotConverged
from .exact import as_fraction, fraction_to_mpf, to_mp
from .precision import resolve_bits, working

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_CHUNK = 1 << 16
_COARSE = Fraction(1, 4)          # polish cells once no edge exceeds this
_CLUSTER_FLOOR = Fraction(1, 10 ** 5)
_MULT_RADIUS = "1e-6"
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
# contour integration
# =========================================================================

def _np_coeffs(P: DirichletPolynomial):
    ks = [k for k, _ in P.items()]
    a = np.array([complex(c) for _, c in P.items()], dtype=np.complex128)
    logk = np.log(np.array(ks, dtype=np.float64))
    return a, logk


def _numpy_safe(P: DirichletPolynomial, sigma_max: float) -> bool:
    asum = sum(math.sqrt(float(c.abs2())) for _, c in P.items())
    return sigma_max * math.log(P.m) + math.log(max(asum, 1e-300)) < 600.0


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


def _mp_value_ratio(P: DirichletPolynomial, s):
    p = mpf(0)
    d = mpf(0)
    for k, c in P.items():
        cm = to_mp(c)
        if k == 1:
            p = p + cm
        else:
            t = cm * mp.power(k, -s)
            p = p + t
            d = d - mp.log(k) * t
    return p, d


def _winding_mp(P, arcs, bits: int, samples: int, max_levels: int):
    """The winding number at `bits`, after checking |P| at `samples` points
    per arc against 2^-(bits/2) of its largest sampled value."""
    with working(bits):
        vals = [abs(_mp_value_ratio(P, arc.at(mpf(q) / samples, mp)[0])[0])
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
                            p, d = _mp_value_ratio(P, z)
                            if p == 0:
                                raise ContourTooClose("contour node hit a zero")
                            total = total + (d / p) * dz * (wq / (2 * panels))
                yield level, complex(total / (2j * mp.pi))

        return _stabilized(levels())


def winding_count(P: DirichletPolynomial, rect, bits: Optional[int] = None) -> int:
    """Number of zeros (with multiplicity) inside the rectangle."""
    rect = _as_rect(rect)
    if P.m == 1:
        return 0
    bits = resolve_bits(bits)
    corners = rect.corners_complex()
    lengths = [abs(corners[(i + 1) % 4] - corners[i]) for i in range(4)]
    base = [max(1, math.ceil(L / 1.5)) for L in lengths]
    sigma_max = max(abs(float(rect.re_lo)), abs(float(rect.re_hi)))
    if _numpy_safe(P, sigma_max):
        a, logk = _np_coeffs(P)
        arcs = _rect_arcs(corners, base)
        sv = np.abs(_np_values(a, logk, _np_samples(arcs, 128)))
        amax = sv.max()
        if not amax > 0 or sv.min() < amax * 1e-12:
            raise ContourTooClose("polynomial nearly vanishes on the contour")
        return _winding_np(a, logk, arcs, max_levels=13)
    with working(bits):
        mcorners = [mpc(fraction_to_mpf(x), fraction_to_mpf(y))
                    for (x, y) in [(rect.re_lo, rect.im_lo), (rect.re_hi, rect.im_lo),
                                   (rect.re_hi, rect.im_hi), (rect.re_lo, rect.im_hi)]]
    return _winding_mp(P, _rect_arcs(mcorners, base), bits, samples=32, max_levels=9)


def _double_floor(a, logk, m: int, center: complex, radius: float) -> float:
    """Smallest |P| on the circle that a double evaluation still resolves.

    Doubles compute each term a_k exp(-s log k) from s log k, whose absolute
    error is about eps |s| log k (eps = 2^-52); exp turns that into a
    relative error of the term, and the product and the sum add a few eps
    more. So |fl(P(s)) - P(s)| <~ eps (1 + |s|_max log m) sum_k |a_k| k^-sigma,
    with |s|_max the largest |s| and sigma the smallest Re s on the circle,
    where the terms are largest. Asking |P| to be 2^20 times that keeps
    about 20 correct bits of |P| along the circle, which pins its argument
    and leaves room for the small constants and the number of terms.
    """
    size = float(np.abs(a) @ np.exp(-(center.real - radius) * logk))
    return _DOUBLE_MARGIN * (1.0 + (abs(center) + radius) * math.log(m)) * size


def _winding_circle(P, center, radius, bits: int) -> int:
    """Zeros inside the circle: in doubles when they resolve |P| on it (see
    _double_floor), otherwise at `bits`."""
    c, r = complex(center), float(radius)
    if _numpy_safe(P, abs(c.real) + r):
        a, logk = _np_coeffs(P)
        circle = _circle(c, r)
        # the floor is at least 2^-32 sum_k |a_k| k^-sigma, so a circle that
        # clears it also clears _winding_mp's contact test at any bits >= 64
        sv = np.abs(_np_values(a, logk, _np_samples([circle], 64)))
        if sv.min() >= _double_floor(a, logk, P.m, c, r):
            try:
                return _winding_np(a, logk, [circle], max_levels=7)
            except (ContourTooClose, QuadratureNotConverged):
                pass        # doubles did not settle it: mpmath decides
    return _winding_mp(P, [_circle(center, radius)], bits, samples=64, max_levels=7)


def _multiplicity(P, z, bits):
    """Circle count around a converged location; shrinks on contact."""
    with working(bits):
        radius = mpf(_MULT_RADIUS)
        for _ in range(5):
            try:
                return _winding_circle(P, z, radius, bits)
            except (ContourTooClose, QuadratureNotConverged):
                radius = radius * mpf("0.7")
    raise NonConvergent(f"multiplicity circle kept touching zeros near {z}")


# =========================================================================
# Newton polish
# =========================================================================

def _newton_double(a, logk, z0: complex, maxiter: int = 160):
    z = z0
    step = None
    for _ in range(maxiter):
        E = np.exp(-z * logk)
        p = E @ a
        if p == 0:
            return z
        d = -(E @ (a * logk))
        if d == 0:
            return None
        step = p / d
        z = z - step
        if abs(step) < 1e-13 * (1.0 + abs(z)):
            return z
    if step is not None and abs(step) < 1e-9 * (1.0 + abs(z)):
        return z
    return None


def _newton_mp(P, z0, mult: int, tol, bits, maxiter: int = 200):
    with working(bits):
        z = mpc(z0)
        target = tol / 4
        for _ in range(maxiter):
            p, d = _mp_value_ratio(P, z)
            if p == 0:
                return z
            if d == 0:
                return None
            step = mult * p / d
            z = z - step
            if abs(step) <= target:
                return z
    return None


# =========================================================================
# zero search
# =========================================================================

@dataclass(frozen=True)
class ZeroSet:
    zeros: tuple            # ((location, multiplicity), ...) ordered by height
    rectangle: Rectangle
    total_count: int
    residual: mpf           # max |P(z)| over the polished zeros
    residuals: tuple


def _jitter_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-80_000, 80_001), 10 ** 6)


def _split_cell(P, cell: Rectangle, w_parent: int, bits: int):
    """Jittered quadrisect whose child windings must sum to the parent's."""
    for retry in range(6):
        rng = random.Random(f"{cell}|{retry}")
        cx = (cell.re_lo + cell.re_hi) / 2 + _jitter_fraction(rng) * cell.width
        cy = (cell.im_lo + cell.im_hi) / 2 + _jitter_fraction(rng) * cell.height
        children = cell.quadrisect(cx, cy)
        try:
            ws = [winding_count(P, c, bits) for c in children]
        except (ContourTooClose, QuadratureNotConverged):
            continue
        if sum(ws) == w_parent:
            return [(c, w) for c, w in zip(children, ws) if w > 0]
    raise QuadratureNotConverged(f"cell {cell} would not split additively")


def _polish_cell(P, cell: Rectangle, w: int, tol, bits: int):
    """One zero candidate out of a coarse cell, or None to keep splitting."""
    a, logk = _np_coeffs(P)
    cx, cy = cell.center
    z = None
    if _numpy_safe(P, max(abs(float(cell.re_lo)), abs(float(cell.re_hi)))):
        z = _newton_double(a, logk, complex(float(cx), float(cy)))
    if z is None:
        zm = _newton_mp(P, mpc(fraction_to_mpf(cx), fraction_to_mpf(cy)), 1,
                        mpf("1e-12"), bits, maxiter=300)
        if zm is None:
            return None
        z = complex(zm)
    if not (float(cell.re_lo) < z.real < float(cell.re_hi)
            and float(cell.im_lo) < z.imag < float(cell.im_hi)):
        return None
    mult = _multiplicity(P, mpc(z.real, z.imag), bits)
    if mult == 0 or mult != w:
        return None
    z_fine = _newton_mp(P, mpc(z.real, z.imag), mult, tol, bits)
    if z_fine is None:
        return None
    with working(bits):
        residual = abs(dp_eval(P, z_fine, bits=bits))
    return (z_fine, mult, residual)


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
    if P.m == 1:
        return ZeroSet(zeros=(), rectangle=rect, total_count=0,
                       residual=mpf(0), residuals=())
    w_total = winding_count(P, rect, bits)
    if w_total == 0:
        return ZeroSet(zeros=(), rectangle=rect, total_count=0,
                       residual=mpf(0), residuals=())
    found = []
    queue = deque([(rect, w_total)])
    while queue:
        cell, w = queue.popleft()
        small = max(cell.width, cell.height) <= _COARSE
        if small:
            hit = _polish_cell(P, cell, w, tol, bits)
            if hit is not None:
                found.append(hit)
                continue
            if max(cell.width, cell.height) <= _CLUSTER_FLOOR:
                raise NonConvergent(
                    f"could not separate {w} zeros inside {cell}")
        queue.extend(_split_cell(P, cell, w, bits))
    if sum(m for (_, m, _) in found) != w_total:
        raise NonConvergent(
            f"located multiplicities sum to {sum(m for (_, m, _) in found)}, "
            f"contour count is {w_total}")
    found.sort(key=lambda item: (float(mp.im(item[0])), float(mp.re(item[0]))))
    residuals = tuple(res for (_, _, res) in found)
    return ZeroSet(zeros=tuple((z, m) for (z, m, _) in found),
                   rectangle=rect, total_count=w_total,
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
    line_tolerance: mpf
    ordinates: tuple


def _min_on_segment(a, logk, z0: complex, z1: complex, n: int = 160) -> float:
    s = z0 + np.linspace(0.0, 1.0, n) * (z1 - z0)
    v = np.abs(_np_values(a, logk, s))
    return float(v.min()), float(v.max())


def _band_positions(P, band: Rectangle, w_band: int, bits: int):
    """Distinct zero positions (as doubles) inside one band."""
    a, logk = _np_coeffs(P)
    out = []
    queue = deque([(band, w_band)])
    while queue:
        cell, w = queue.popleft()
        z = _newton_double(a, logk, complex(*map(float, cell.center)))
        if z is not None and (float(cell.re_lo) < z.real < float(cell.re_hi)
                              and float(cell.im_lo) < z.imag < float(cell.im_hi)):
            if w == 1:
                out.append((z.real, z.imag))
                continue
            if max(cell.width, cell.height) <= _CLUSTER_FLOOR:
                out.append((z.real, z.imag))     # multiple zero: one position
                continue
        elif max(cell.width, cell.height) <= _CLUSTER_FLOOR:
            raise NonConvergent(f"band cell {cell} failed to resolve")
        queue.extend(_split_cell(P, cell, w, bits))
    return out


def constant_C(P: DirichletPolynomial, r, T, line_tol, bits: Optional[int] = None) -> ConstantC:
    """Partial sum of 1/(1/4 + t^2) over distinct on-line zeros up to |t| <= T,
    plus a density tail bound for everything above."""
    if not T > 0:
        raise ValueError(f"need T > 0, got {T}")
    bits = resolve_bits(bits)
    r_q = as_fraction(r)
    with working(bits):
        line_tol_mp = to_mp(line_tol)
    if P.m == 1:
        return ConstantC(r=r_q, partial=mpf(0), T=T, tail_bound=mpf(0),
                         line_tolerance=line_tol_mp, ordinates=())
    sb = strip_bounds(P, bits=min(bits, 192))
    x0 = as_fraction(sb.alpha) - Fraction(1, 2)
    x1 = as_fraction(sb.beta) + Fraction(1, 2)
    h = Fraction(float(0.5 * 2 * math.pi / (1.5 * math.log(P.m)))).limit_denominator(10 ** 6)
    T_f = as_fraction(T)
    a, logk = _np_coeffs(P)
    last_error = None
    for attempt in range(6):
        delta = h * Fraction(123456 + attempt * 13700, 1_000_000)
        k_min = math.floor((-T_f - delta) / h)
        k_max = math.ceil((T_f - delta) / h)
        grid = [delta + k * h for k in range(k_min, k_max + 1)]
        ok = True
        for y in grid:
            lo, hi = _min_on_segment(a, logk, complex(float(x0), float(y)),
                                     complex(float(x1), float(y)))
            if lo < hi * 1e-3 or not hi > 0:
                ok = False
                break
        if not ok:
            continue
        try:
            whole = Rectangle(x0, x1, grid[0], grid[-1])
            w_whole = winding_count(P, whole, bits)
            positions = []
            w_sum = 0
            for y_lo, y_hi in zip(grid, grid[1:]):
                band = Rectangle(x0, x1, y_lo, y_hi)
                w = winding_count(P, band, bits)
                w_sum += w
                if w:
                    positions.extend(_band_positions(P, band, w, bits))
            if w_sum != w_whole:
                raise QuadratureNotConverged(
                    f"band counts {w_sum} disagree with the full contour {w_whole}")
        except (ContourTooClose, QuadratureNotConverged, NonConvergent) as exc:
            last_error = exc
            continue
        positions.sort(key=lambda p: p[1])
        deduped = []
        for re_v, im_v in positions:
            if deduped and abs(im_v - deduped[-1][1]) < 1e-8 \
                    and abs(re_v - deduped[-1][0]) < 1e-8:
                continue
            deduped.append((re_v, im_v))
        with working(bits):
            r_mp = fraction_to_mpf(r_q)
            ts = [mpf(im_v) for re_v, im_v in deduped
                  if abs(mpf(re_v) - r_mp) <= line_tol_mp and abs(im_v) <= float(T_f)]
            partial = mp.fsum(1 / (mpf(1) / 4 + t * t) for t in ts)
            density = mpf(3) / 2 * mp.log(P.m) / (2 * mp.pi)
            tail = density * 2 / fraction_to_mpf(T_f)
        return ConstantC(r=r_q, partial=partial, T=T, tail_bound=tail,
                         line_tolerance=line_tol_mp, ordinates=tuple(ts))
    raise QuadratureNotConverged(
        f"band decomposition kept failing: {last_error}")
