"""Zero location by the argument principle, and the spectral constant.

A rectangle's winding number is integrated in numpy doubles with composite
12-point Gauss-Legendre panels on each edge, whose count doubles until the
count pins to the same integer on consecutive levels (``_stabilized``). One
function, ``_windings``, winds a list of rectangles, each to its own count
or error, and ``winding_count`` is its one-rectangle case, which raises the
error. Rectangles go in blocks of _BLOCK (``_np_windings``): one
contact-sample evaluation for the block, then per level one evaluation of
P'/P at the nodes of every rectangle not yet settled, each with its own
panels, contact test, resolution test and stabilization. A rectangle on
which some term of P would overflow, underflow or go subnormal in doubles
(``_Poly.numpy_safe``) is wound as the same problem for Q(s) = 2^-E
P(s + c), c the integer nearest its real centre, translated by -c
(``_Poly.shifted``): an exact identity, so the count is P's.

One engine, ``_zeros_in``, locates zeros for both callers: ``find_zeros``
runs it on its rectangle and ``constant_C`` on its whole strip. A cell is
cut on a jittered grid (``_split_cell``: 2 x 2, or a long cell across its
long side into pieces of about a third of a zero each), the children of
every cell a level cuts wound in one ``_windings`` call per draw, until it
holds one zero or is no wider than _COARSE. Every such cell of a level is
then polished in one ``_polish`` call: Newton from each centre to within
_NEWTON_STOP of a zero, in doubles for the whole batch at once
(``_np_newton``); a Rouché certificate that exactly as many zeros as the
cell holds lie within a small radius of that point, from the Taylor
coefficients of P there (``_certify``); and Newton with that multiplicity
to the requested tolerance (``_newton``). Only the converged iterate must
lie in the cell, tested exactly against its Fraction edges. No contour is
wound about a zero.

The polish past doubles runs in the fixed point of ``exact``, as the psi
stream and the d^2 factorization do: z = (X + iY) 2^-prec with prec = bits +
GUARD_BITS, and ``_Poly.fixed_terms`` gives every b_k = a_k k^-z as a
Gaussian integer under one block exponent. Newton steps, stop tests and the
certificate's inequality are integer arithmetic on those, free of scale far
from the axis and for coefficients beyond double range. mpmath evaluates P
only for ``find_zeros``' residuals (``dp_eval``). P is prepared once per call
in all its forms (``_Poly``).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_exp, mpf_mul

from .dpcore import (DirichletPolynomial, _fixed_log, _prime_phase, _spf_sieve, dp_eval,
                     strip_bounds)
from .errors import ContourTooClose, NonConvergent, QuadratureNotConverged
from .exact import (GUARD_BITS, as_fraction, fixed_mpc, fixed_ratio, fraction_to_mpf,
                    to_fixed, to_mp)
from .precision import resolve_bits, working

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_CHUNK = 1 << 16
_COARSE = Fraction(1, 4)          # polish cells once no edge exceeds this
_CLUSTER_FLOOR = Fraction(1, 10 ** 5)
_RHO = Fraction(1, 10 ** 6)       # first radius of the local count (_certify)
_SHRINK = Fraction(7, 10)         # and its ratio from one radius to the next
_NEWTON_STOP = 1e-6 / 64          # a start this close keeps its zero well inside
_NEWTON_STEPS = 200
_SAFE_LOG = 600.0                 # terms between e^-600 and e^600 are normal doubles
_UNDERFLOW = 1100 * math.log(2)   # terms below 2^-1100 of the largest round to 0
_SHIFT_BITS = 1 << 22             # largest k^|c| a shift forms exactly
_CACHED_PANELS = 256              # largest node table kept in _NODE_TABLES
_NODE_TABLES: dict = {}           # panels -> _unit_nodes table
_CONTACT = 128                    # contact samples per rectangle edge
_BLOCK = _CHUNK // (4 * _CONTACT)     # rectangles wound together in doubles
_RESOLVE = 1 / 16                 # nearest zero / panel length a level resolves
_DOUBLE_MAX = Fraction(sys.float_info.max)   # contours are laid out in doubles


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
            v = as_fraction(getattr(self, name))
            if not abs(v) <= _DOUBLE_MAX:
                raise ValueError(f"rectangle bound {name} is outside double range "
                                 f"(|x| <= {sys.float_info.max:.4g})")
            object.__setattr__(self, name, v)
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

    def corners_complex(self):
        x0, x1 = float(self.re_lo), float(self.re_hi)
        y0, y1 = float(self.im_lo), float(self.im_hi)
        return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]

    def __str__(self):
        return f"[{self.re_lo}, {self.re_hi}] x [{self.im_lo}, {self.im_hi}]"


def _as_rect(rect) -> Rectangle:
    if isinstance(rect, Rectangle):
        return rect
    return Rectangle(*rect)


# =========================================================================
# the polynomial in doubles and in fixed point
# =========================================================================

def _log_abs(c) -> float:
    """log |c| of a nonzero GaussianRational, for coefficients of any size."""
    q = c.abs2()
    return (math.log(q.numerator) - math.log(q.denominator)) / 2


def _mid(lo: Fraction, hi: Fraction):
    """(lo + hi) / 2 as (num, den), den > 0, without reducing it."""
    return (lo.numerator * hi.denominator + hi.numerator * lo.denominator,
            2 * lo.denominator * hi.denominator)


def _fixed_coeff(c, P: int):
    """(re, im, e) with c = (re + i im) 2^e to 2^-(P+2) of |c|: the larger
    part rounded to P + 2 or P + 3 bits."""
    big = max(abs(c.re), abs(c.im))
    e = big.numerator.bit_length() - big.denominator.bit_length() - P - 2
    return to_fixed(c.re, -e), to_fixed(c.im, -e), e


def _factor_chain(ks, m: int):
    """(primes, composites) that build every k > 1 of ks, all k <= m: the
    primes dividing them, and (k, p, k // p) with p the smallest prime factor
    of k, in increasing k, for every composite k and composite cofactor on
    the way."""
    spf = _spf_sieve(m)
    need = set()
    for k in ks:
        while k > 1 and k not in need:
            p = spf[k] or k
            need.update((k, p))
            k //= p
    primes = [k for k in sorted(need) if not spf[k]]
    return primes, [(k, spf[k], k // spf[k]) for k in sorted(need) if spf[k]]


def _log_sum(logs) -> float:
    """log sum e^v over the v in logs."""
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _scaled(a, k: int, c: int, E: int) -> complex:
    """a k^-c 2^-E for a GaussianRational a, formed exactly and rounded once
    to complex128 (int / int rounds correctly, as float(Fraction) does)."""
    num, den = (k ** -c, 1) if c < 0 else (1, k ** c)
    num, den = (num << -E, den) if E < 0 else (num, den << E)
    return complex(*(q.numerator * num / (q.denominator * den) for q in (a.re, a.im)))


class _Poly:
    """P in the forms the zero engine evaluates, built once per call.

    numpy: the coefficients ``a`` (complex128, or None when some are not
    normal doubles), ``logk``, ``log_abs`` = log |a_k| and ``log_asum`` = log sum
    |a_k|, taken from exact logarithms, and ``shifts``, the arrays
    ``shifted`` has built, by c. Fixed point at 2^-prec, prec = bits +
    GUARD_BITS: ``fixed`` holds (k, L_k, a_k as ``_fixed_coeff``) per term,
    L_k = round(2^prec log k), with ``log_max`` the largest L_k, and
    ``chain`` the primes (with L_p) and composites that build each k^-z.
    ``phase_logs`` keeps the primes' logs that ``_prime_phase`` reads,
    widened when an ordinate needs more bits.
    """

    __slots__ = ("P", "bits", "a", "logk", "log_abs", "log_asum", "shifts", "prec", "fixed",
                 "chain", "log_max", "phase_logs")

    def __init__(self, P: DirichletPolynomial, bits: int):
        self.P, self.bits = P, bits
        items = list(P.items())
        self.logk = np.log(np.array([k for k, _ in items], dtype=np.float64))
        self.log_abs = [_log_abs(c) for _, c in items]
        self.log_asum = _log_sum(self.log_abs)
        self.a = None
        if self.numpy_safe(0.0):
            self.a = np.array([complex(c) for _, c in items], dtype=np.complex128)
        self.shifts = {}
        self.prec = prec = bits + GUARD_BITS
        self.fixed = [(k, _fixed_log(k, prec), *_fixed_coeff(c, prec)) for k, c in items]
        self.log_max = max(L for _, L, *_ in self.fixed)
        primes, composites = _factor_chain([k for k, _ in items], P.m)
        self.chain = [(p, _fixed_log(p, prec)) for p in primes], composites
        self.phase_logs = {}

    def numpy_safe(self, sigma_max: float, log_asum: Optional[float] = None) -> bool:
        """Whether doubles hold every term a_k k^-s with |Re s| <= sigma_max.

        Of P: every nonzero term, its coefficient included, stays a normal
        double, between e^-_SAFE_LOG and e^_SAFE_LOG, so none underflows or
        goes subnormal. Of the shifted polynomial whose log sum |a_k| is
        log_asum: no term overflows. Its largest coefficient is within a
        factor 2^(1/2) of 1, so the largest term at every point is above
        about e^-_SAFE_LOG, and a term that underflows is below e^-100 of it."""
        reach = sigma_max * math.log(self.P.m)
        if log_asum is not None:
            return reach + log_asum < _SAFE_LOG
        return reach + self.log_asum < _SAFE_LOG and min(self.log_abs) - reach > -_SAFE_LOG

    def shifted(self, c: int):
        """(coefficients, log sum of their sizes) of Q(s) = 2^-E P(s + c),
        kept per c: b_k = a_k k^-c 2^-E as ``_scaled`` rounds it, 2^E the
        power of two nearest the largest |a_k k^-c| by the exact logarithms.
        A term below 2^-1100 of that one rounds to 0 unformed. Raises
        ContourTooClose rather than form a k^|c| of over _SHIFT_BITS bits."""
        if c not in self.shifts:
            logs = [v - c * lk for v, lk in zip(self.log_abs, self.logk.tolist())]
            top = max(logs)
            keep = [(ak, k) if v >= top - _UNDERFLOW else None
                    for (k, ak), v in zip(self.P.items(), logs)]
            if any(t and abs(c) * (t[1] - 1).bit_length() > _SHIFT_BITS for t in keep):
                raise ContourTooClose(f"Re s = {float(c):.6g} is too far from the axis")
            E = round(top / math.log(2))
            b = [_scaled(*t, c, E) if t else 0 for t in keep]
            self.shifts[c] = (np.array(b, dtype=np.complex128),
                              _log_sum(logs) - E * math.log(2))
        return self.shifts[c]

    def fixed_terms(self, X: int, Y: int):
        """(b, e): b_k = a_k k^-z = (re + i im) 2^e as Gaussian integers,
        in the order of ``fixed``, at z = (X + iY) 2^-prec.

        One block exponent e serves every term: the largest part lies
        between 2^(prec-1) and 2^prec. At a prime p, p^-x is mpf_exp of the
        exact -X L_p 2^-2prec and p^-iy the shared ``_prime_phase``; a
        composite k = p m takes both as products, each rounded once.
        """
        P = self.prec
        half = 1 << (P - 1)
        x2, y = -X, from_man_exp(Y, -P)
        mag, phase = {}, {}
        primes, composites = self.chain
        for p, L in primes:
            mag[p] = mpf_exp(from_man_exp(x2 * L, -2 * P), P + 8)
            phase[p] = _prime_phase(y, p, P, self.phase_logs)
        for k, p, m in composites:
            mag[k] = mpf_mul(mag[p], mag[m], P + 8)
            a, b = phase[p]
            c, d = phase[m]
            phase[k] = ((a * c - b * d + half) >> P, (a * d + b * c + half) >> P)
        raw = []
        top = None
        for k, _, ar, ai, ea in self.fixed:
            if k == 1:
                cr, ci, ex = ar, ai, ea
            else:
                _, man, exp, _ = mag[k]
                er, ei = phase[k]
                cr, ci, ex = (ar * er - ai * ei) * man, (ar * ei + ai * er) * man, ea + exp - P
            size = ex + max(abs(cr), abs(ci)).bit_length()
            if top is None or size > top:
                top = size
            raw.append((cr, ci, ex))
        e = top - P
        b = []
        for cr, ci, ex in raw:
            sh = e - ex
            if sh > 0:
                r = 1 << (sh - 1)
                b.append(((cr + r) >> sh, (ci + r) >> sh))
            else:
                b.append((cr << -sh, ci << -sh))
        return b, e

    def fixed_pair(self, X: int, Y: int):
        """(p, d): P(z) = p 2^e and P'(z) = d 2^(e - prec) as Gaussian
        integers, for one block exponent e, at z = (X + iY) 2^-prec."""
        b, _ = self.fixed_terms(X, Y)
        pr = pi = dr = di = 0
        for (br, bi), (_, L, *_) in zip(b, self.fixed):
            pr += br
            pi += bi
            dr -= L * br
            di -= L * bi
        return (pr, pi), (dr, di)


# =========================================================================
# contour integration
# =========================================================================

def _np_terms(a, logk, s):
    """(log k, a_k k^-s at the nodes s) term by term; k = 1 needs no exp."""
    for ak, lk in zip(a.tolist(), logk.tolist()):
        yield lk, (np.exp(-lk * s) * ak if lk else ak)


def _np_values(a, logk, s):
    """P at the nodes, _CHUNK of them at a time."""
    out = np.zeros(len(s), dtype=np.complex128)
    for lo in range(0, len(s), _CHUNK):
        for _, t in _np_terms(a, logk, s[lo:lo + _CHUNK]):
            out[lo:lo + _CHUNK] += t
    return out


def _np_ratio(a, logk, s):
    """P'/P at the nodes, _CHUNK of them at a time; inf or nan where P is 0.0."""
    num = np.zeros(len(s), dtype=np.complex128)
    den = np.zeros(len(s), dtype=np.complex128)
    for lo in range(0, len(s), _CHUNK):
        for lk, t in _np_terms(a, logk, s[lo:lo + _CHUNK]):
            den[lo:lo + _CHUNK] += t
            if lk:
                num[lo:lo + _CHUNK] -= lk * t
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(num, den, out=num)


def _layout(rects):
    """Corners (counter-clockwise from re_lo + i im_lo), edge vectors and
    lengths of the rectangles in doubles, one row each, and each edge's base
    panel count: about one panel per 1.5 of length."""
    corners = np.array([r.corners_complex() for r in rects], dtype=np.complex128)
    edges = np.roll(corners, -1, axis=1) - corners
    lengths = np.abs(edges)
    base = [tuple(max(1, math.ceil(L / 1.5)) for L in row) for row in lengths.tolist()]
    return corners, edges, lengths, base


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


def _stabilized(prev, w, resolved):
    """One level of the rule that drives a contour's windings to a stable
    integer: (the count, or None while it is not settled, and the value the
    next level compares with).

    Two consecutive levels must round to the same integer, and the second
    must resolve every zero it passes: a contour closer to a zero than its
    nodes can see counts that zero about half, which for a double zero is a
    whole number the levels agree on. At a node, |P/P'| estimates the
    distance to the nearest zero over its multiplicity; a level resolves
    when no node comes within _RESOLVE of a panel length by that estimate.
    """
    if not np.isfinite(w):
        raise ContourTooClose("contour node hit a zero exactly")
    r = int(round(w.real))
    ok = abs(w.real - r) <= 0.25 and abs(w.imag) <= 0.25
    if ok and resolved and prev == r:
        if r < 0:
            raise QuadratureNotConverged(f"negative winding {r}")
        return r, r
    return None, (r if ok else None)


def _np_windings(a, logk, rects) -> list:
    """Winding numbers of a block of rectangles in doubles, each one's
    verdict: its count, or the ContourTooClose or QuadratureNotConverged it
    gets in place of one.

    One evaluation of |P| at _CONTACT equispaced samples per edge tests
    every rectangle: one whose samples dip below 1e-12 of its largest is too
    close. Then each level evaluates P'/P in one call at the nodes of every
    rectangle not yet settled, for up to 13 levels; a rectangle with a node
    where P is 0.0 exactly is too close. A rectangle keeps its own base <<
    level panels per edge, resolution test and stabilization; rectangles
    with the same base panels are laid out as one array.
    """
    corners, edges, lengths, base = _layout(rects)
    tau = np.arange(_CONTACT) / _CONTACT
    sv = np.abs(_np_values(a, logk, (corners[..., None] + tau * edges[..., None]).ravel()))
    sv = sv.reshape(len(rects), -1)
    amax = sv.max(axis=1)
    touch = (amax == 0) | (sv.min(axis=1) < amax * 1e-12)
    counts = [ContourTooClose("polynomial nearly vanishes on the contour") if t else None
              for t in touch.tolist()]
    prev = [None] * len(rects)
    active = [i for i, count in enumerate(counts) if count is None]
    for level in range(13):
        if not active:
            break
        groups = {}
        for i in active:
            groups.setdefault(base[i], []).append(i)
        laid = []
        for key, rows in groups.items():
            panels = [b << level for b in key]
            if max(panels) * 12 > 4_000_000:
                for i in rows:
                    counts[i] = QuadratureNotConverged("contour refinement exploded")
                continue
            nodes = [_unit_nodes(p) for p in panels]
            c, e = corners[rows], edges[rows]
            z = np.concatenate([c[:, j, None] + t * e[:, j, None]
                                for j, (t, _) in enumerate(nodes)], axis=1)
            wdz = np.concatenate([wt * e[:, j, None] for j, (_, wt) in enumerate(nodes)],
                                 axis=1)
            near = np.repeat(_RESOLVE * lengths[rows] / panels,
                             [t.size for t, _ in nodes], axis=1)
            laid.append((rows, z, wdz, near))
        if laid:
            ratio = _np_ratio(a, logk, np.concatenate([z.ravel() for _, z, _, _ in laid]))
        lo = 0
        for rows, z, wdz, near in laid:
            r = ratio[lo:lo + z.size].reshape(z.shape)
            lo += z.size
            with np.errstate(invalid="ignore"):
                ws = np.einsum("ij,ij->i", r, wdz) / (2j * np.pi)
                resolved = (np.abs(r) * near).max(axis=1) <= 1
            for i, w, res in zip(rows, ws.tolist(), resolved.tolist()):
                try:
                    counts[i], prev[i] = _stabilized(prev[i], w, res)
                except (ContourTooClose, QuadratureNotConverged) as exc:
                    counts[i] = exc
        active = [i for i in active if counts[i] is None]
    for i in active:
        counts[i] = QuadratureNotConverged("winding did not stabilize on an integer")
    return counts


def _reach(rect: Rectangle) -> float:
    """The largest |Re s| on the rectangle, in doubles."""
    return max(abs(float(rect.re_lo)), abs(float(rect.re_hi)))


def _windings(f: _Poly, rects) -> list:
    """Each rectangle's verdict: the count ``winding_count`` gives it, or
    the ContourTooClose or QuadratureNotConverged it raises for it alone.

    A rectangle whose terms are normal doubles as it stands is wound on P's
    own coefficients. Any other is wound as the same problem for
    Q(s) = 2^-E P(s + c), c the integer nearest its real centre
    (``_Poly.shifted``), and translated by -c: an exact identity, so the
    count is P's, unless c is too far from the axis or the terms still leave
    double range. Rectangles on the same coefficients are wound together in
    blocks of _BLOCK (``_np_windings``).
    """
    if f.P.m == 1:
        return [0] * len(rects)
    groups = {}
    for i, r in enumerate(rects):
        c = None if f.numpy_safe(_reach(r)) else round((r.re_lo + r.re_hi) / 2)
        groups.setdefault(c, []).append(i)
    counts = [None] * len(rects)
    for c, rows in groups.items():
        a, moved = f.a, [rects[i] for i in rows]
        if c is not None:
            try:
                a, log_asum = f.shifted(c)
            except ContourTooClose as exc:
                for i in rows:
                    counts[i] = exc
                continue
            moved = [_child(r.re_lo - c, r.re_hi - c, r.im_lo, r.im_hi) for r in moved]
            for i, r in zip(rows, moved):
                if not f.numpy_safe(_reach(r), log_asum):
                    counts[i] = ContourTooClose("terms leave double range on the contour")
        todo = [(i, r) for i, r in zip(rows, moved) if counts[i] is None]
        for lo in range(0, len(todo), _BLOCK):
            block = todo[lo:lo + _BLOCK]
            for (i, _), count in zip(block, _np_windings(a, f.logk, [r for _, r in block])):
                counts[i] = count
    return counts


def winding_count(P, rect, bits: Optional[int] = None) -> int:
    """Number of zeros (with multiplicity) inside the rectangle, wound in
    doubles as ``_windings`` winds it, so the same at every precision.

    P is a DirichletPolynomial, or the _Poly that the zero engine prepared
    once for all of its windings; its precision then replaces ``bits``.
    """
    f = P if isinstance(P, _Poly) else _Poly(P, resolve_bits(bits))
    count, = _windings(f, [_as_rect(rect)])
    if isinstance(count, Exception):
        raise count
    return count


# =========================================================================
# local counts
# =========================================================================

def _certify(f: _Poly, z, w: int):
    """(p, d) as ``fixed_pair`` gives them at z = (X + iY) 2^-prec if exactly
    w zeros of P lie within rho of z, for one of the radii rho = 10^-6 0.7^i,
    i = 0..4, each rounded down to 2^-prec; else None.

    With b_k = a_k k^-z from ``fixed_terms``, formed once, and
    p_j = rho^j sum_k b_k (-log k)^j / j!, the test is

        |p_w| > (sum_{j<w} |p_j| + sum_k |b_k| k^rho ((rho log k)^{w+1} / (w+1)! + delta))
                * (1 + 2^-(bits/2)),

    delta = 2^(3 - bits) ((|Re z| + |Im z|) log m + n + w + 4) for n terms
    a_k, k <= m. The sums behind p_0 and p_1 / rho are P(z) and P'(z): the
    pair returned, each within eps (1 + log m) sum_k |b_k| of the exact one,
    eps = (|Re z| log m + 3 log2 m + 3n + 6) 2^-prec.

    Proof. P(z + rho x) = sum_k b_k e^{-x rho log k} = sum_j p_j x^j for all
    x. On |x| = 1, |P(z + rho x) - p_w x^w| <= sum_{j != w} |p_j|. With
    u = rho log k and (w+1+i)! >= (w+1)! i!,

        sum_{j>w} u^j / j! = u^{w+1} sum_i u^i / (w+1+i)!
                          <= u^{w+1} / (w+1)! sum_i u^i / i! = u^{w+1} k^rho / (w+1)!,

    so sum_{j>w} |p_j| <= sum_k |b_k| (rho log k)^{w+1} k^rho / (w+1)!. When
    the exact p_j make |p_w| exceed sum_{j<w} |p_j| plus that bound, Rouché's
    theorem against p_w x^w gives P(z + rho x) exactly w zeros in |x| < 1,
    counted with multiplicity, and none on |x| = 1.

    Rounding, in units of 2^-prec, prec = bits + GUARD_BITS. z and rho are
    exact. Each computed b_k, times 2^e, is within eta 2^-prec |b_k| + 2^e
    of the exact one, eta = |Re z| log m + 3 log2 m + 3: a_k is rounded to
    2^-(prec+2) of itself; k^-x, x = Re z, is a product of at most log2 k
    prime powers p^-x, each mpf_exp of the exact x L_p 2^-2prec with
    |L_p - 2^prec log p| <= 1/2, so within |x| log k 2^-prec + log2 k
    2^-(prec+6) of itself; |e_k - 2^prec k^-iy| <= 2 log2 k, the psi stream's
    bound, at any height; and the block shift rounds each part to nearest.
    The largest part is at least 2^(prec-1), so 2^e <= 2^(1-prec) (1 + 2^-prec)
    max_k |b_k|, and with rho log m <= 1 (checked), sum_{j<=w} (rho log m)^j / j!
    <= e. L_k 2^-prec in place of log k moves (log k)^j by at most 2j 2^-prec
    of itself. So the computed p_j, j <= w, differ from the exact ones by at
    most (eta + 2w + 1 + 6n) 2^-prec sum_k |b_k| k^rho in all, and the tail
    and delta terms taken from the computed |b_k| by at most
    (eta + 2n + 1) 2^(1-prec) sum_k |b_k| k^rho. delta is at least
    2^(67-prec) (|Re z| log m + n + w + 4), above both together while
    log2 m < 2^60: the delta term covers every rounding, at any height and
    for terms of any size, as the block exponent keeps the comparison free
    of scale. The two sides are then bounded in integers, at the common
    scale (w+1)! 2^((2w+3) prec - e): |s_j| by isqrt, from below on the left
    and from above on the right, log k by (L_k + 1) 2^-prec, and k^rho by
    1 + 2 rho log k, true while rho log k <= 1. So the comparison is one of
    exact bounds, and the factor 1 + 2^-(bits/2) is only margin.
    """
    X, Y = z
    P = f.prec
    b, _ = f.fixed_terms(X, Y)
    logs = [L for _, L, *_ in f.fixed]
    s = [[0, 0] for _ in range(w + 1)]      # s_j = sum_k b_k (-L_k)^j
    for (br, bi), L in zip(b, logs):
        for sj in s:
            sj[0] += br
            sj[1] += bi
            br, bi = -L * br, -L * bi
    size = [math.isqrt(x * x + y * y) for x, y in s]
    babs = [math.isqrt(x * x + y * y) + 1 for x, y in b]
    lup = [L + 1 if L else 0 for L in logs]          # 2^prec log k <= lup
    top = math.factorial(w + 1)
    delta = ((abs(X) + abs(Y)) * (f.log_max + 1) + ((len(b) + w + 4) << 2 * P)) * top << (
        2 * w * P + 3 - f.bits)
    R = to_fixed(_RHO, P)
    if R * (f.log_max + 1) > 1 << 2 * P:
        return None
    for _ in range(5):
        lhs = (R ** w * size[w] * (w + 1)) << 3 * P
        rhs = sum((R ** j * (size[j] + 1) * (top // math.factorial(j)))
                  << (2 * (w - j) + 3) * P for j in range(w))
        for B, lu in zip(babs, lup):
            rl = R * lu
            rhs += B * ((1 << P) - (-2 * rl >> P)) * (rl ** (w + 1) + delta)
        if lhs > rhs - (-rhs >> f.bits // 2):
            return tuple(s[0]), tuple(s[1])
        R = R * _SHRINK.numerator // _SHRINK.denominator
    return None


# =========================================================================
# the zero engine
# =========================================================================

def _bounds(cell: Rectangle, P: int):
    """Integer bounds (lo, hi) of Re and of Im for the fixed points
    (X + iY) 2^-P strictly inside the cell, then inside the cell widened by
    its own width and height on each side: X 2^-P > num / den exactly when
    X > floor(num 2^P / den), as X den > num 2^P."""
    def inside(a: int, b: int, c: int, d: int):
        # a / b < X 2^-P < c / d
        return (a << P) // b + 1, -(-(c << P) // d) - 1

    out = [(), ()]
    for lo, hi in ((cell.re_lo, cell.re_hi), (cell.im_lo, cell.im_hi)):
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        out[0] += inside(a, b, c, d)
        out[1] += inside(2 * a * d - c * b, b * d, 2 * c * b - a * d, b * d)
    return tuple(out)


def _stop2(stop: Fraction, P: int) -> int:
    """floor((stop 2^P)^2): a step of S units is at most stop when
    |S|^2 is at most this."""
    return (stop.numerator ** 2 << 2 * P) // stop.denominator ** 2


def _newton(f: _Poly, z, mult: int, bounds, stop2: int, first=None):
    """Newton steps z <- z - mult P(z)/P'(z) on z = (X + iY) 2^-prec, in
    integers: the step is mult p conj(d) / |d|^2 from ``fixed_pair``, rounded
    to 2^-prec, and ``first``, when given, is the pair at the start.

    Returns (X, Y) after the first step S with |S|^2 <= stop2 if it lies
    inside the cell of ``_bounds``, else None. An early step may overshoot
    the cell; the loop gives up once an iterate leaves the widened cell,
    when P' vanishes, or after _NEWTON_STEPS steps.
    """
    X, Y = z
    shift = 2 * f.prec
    (x0, x1, y0, y1), (u0, u1, v0, v1) = bounds
    pair = first
    for _ in range(_NEWTON_STEPS):
        (pr, pi), (dr, di) = pair or f.fixed_pair(X, Y)
        pair = None
        if not (pr or pi):
            break
        den = dr * dr + di * di
        if not den:
            return None
        half = den >> 1
        sx = ((mult * (pr * dr + pi * di) << shift) + half) // den
        sy = ((mult * (pi * dr - pr * di) << shift) + half) // den
        X -= sx
        Y -= sy
        if not (u0 <= X <= u1 and v0 <= Y <= v1):
            return None
        if sx * sx + sy * sy <= stop2:
            break
    else:
        return None
    return (X, Y) if x0 <= X <= x1 and y0 <= Y <= y1 else None


def _np_newton(f: _Poly, cells, starts) -> list:
    """Newton in doubles, multiplicity 1, from each cell's start (its
    centre), all cells in one array: per cell the iterate after the first
    step no longer than _NEWTON_STOP if it lies inside the cell, else None.
    A cell stops stepping, and gives None, once an iterate leaves it widened
    by its own width and height on each side, when P' vanishes or doubles
    overflow, or after _NEWTON_STEPS steps. P and P' are summed row by row,
    so a cell gets the same iterate whichever cells share its batch.
    """
    x0, x1, y0, y1 = np.array([[float(c.re_lo), float(c.re_hi), float(c.im_lo),
                                float(c.im_hi)] for c in cells]).T
    w, h = x1 - x0, y1 - y0
    z = np.array(starts, dtype=np.complex128)
    done = np.zeros(len(cells), dtype=bool)
    live = np.arange(len(cells))
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = f.a * np.exp(-np.multiply.outer(z[live], f.logk))
            p, d = t.sum(axis=1), -(t * f.logk).sum(axis=1)
            ok = np.isfinite(p) & np.isfinite(d)
            hit = ok & (p == 0)
            moving = ok & ~hit & (d != 0)
            step = np.where(moving, p / np.where(moving, d, 1), 0)
        zn = z[live] - step
        a, b = zn.real, zn.imag
        near = ((x0[live] - w[live] < a) & (a < x1[live] + w[live])
                & (y0[live] - h[live] < b) & (b < y1[live] + h[live]))
        conv = moving & near & (np.abs(step) <= _NEWTON_STOP)
        z[live] = zn
        done[live[hit | conv]] = True
        live = live[moving & near & ~conv]
    inside = done & (x0 < z.real) & (z.real < x1) & (y0 < z.imag) & (z.imag < y1)
    return [v if ok else None for v, ok in zip(z.tolist(), inside.tolist())]


@dataclass(frozen=True)
class ZeroSet:
    zeros: tuple            # ((location, multiplicity), ...) ordered by height
    rectangle: Rectangle
    total_count: int
    residual: Optional[mpf]  # max |P(z)| over the polished zeros, and each
    residuals: tuple         # |P(z)|; None and () in constant_C's strip scan


def _jitter_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-80_000, 80_001), 10 ** 6)


def _cuts(lo: Fraction, hi: Fraction, k: int, rng: random.Random) -> list:
    """lo, the k - 1 jittered inner cuts of k equal pieces of [lo, hi], hi."""
    step = (hi - lo) / k
    return ([lo] + [lo + (i + 2 * _jitter_fraction(rng)) * step for i in range(1, k)]
            + [hi])


def _child(x0: Fraction, x1: Fraction, y0: Fraction, y1: Fraction) -> Rectangle:
    """A Rectangle cut from one already checked: its bounds are Fractions in
    order and in double range, so they skip ``Rectangle``'s checks."""
    rect = object.__new__(Rectangle)
    for name, v in (("re_lo", x0), ("re_hi", x1), ("im_lo", y0), ("im_hi", y1)):
        object.__setattr__(rect, name, v)
    return rect


def _split_cell(cell: Rectangle, w_parent: int, retry: int) -> list:
    """The children of draw ``retry`` of a jittered grid cut of the cell.

    A cell at most twice as long as wide is cut 2 x 2. A longer one is cut
    across its long side into k = min(3 (w_parent + 1), long // short)
    pieces, about a third of a zero each, so that most pieces hold none or
    one and a whole strip needs a single cut.
    """
    short, long_ = sorted((cell.width, cell.height))
    nx = ny = 2
    if long_ > 2 * short:
        k = min(3 * (w_parent + 1), long_ // short)
        nx, ny = (k, 1) if cell.width > cell.height else (1, k)
    rng = random.Random(f"{cell}|{retry}")
    xs = _cuts(cell.re_lo, cell.re_hi, nx, rng)
    ys = _cuts(cell.im_lo, cell.im_hi, ny, rng)
    return [_child(x0, x1, y0, y1) for y0, y1 in zip(ys, ys[1:]) for x0, x1 in zip(xs, xs[1:])]


def _polish(f: _Poly, cells, tol) -> list:
    """(zero, multiplicity) out of each (cell, w) holding w zeros, or None
    to split it.

    Newton from the centre settles within _NEWTON_STOP of a zero: in doubles,
    for all cells at once, where the terms fit and doubles resolve s that
    finely; else, or when they do not settle, in fixed point. ``_certify``
    must then show that exactly w zeros lie within a small radius of it.
    Newton with multiplicity w polishes in fixed point until a step is at
    most tol/4, its first step from the certificate's (P, P'). Only the
    converged iterate must lie in the cell, tested exactly.
    """
    P = f.prec
    mids = [(_mid(c.re_lo, c.re_hi), _mid(c.im_lo, c.im_hi)) for c, _ in cells]
    centres = [complex(a / b, c / d) for (a, b), (c, d) in mids]
    starts = [None] * len(cells)
    quick = [i for i, (cell, _) in enumerate(cells)
             if f.numpy_safe(_reach(cell))
             # doubles hold s to about 2^-52 |s|: leave 10 bits of room below the stop
             and 2.0 ** -42 * (1.0 + abs(centres[i])) <= _NEWTON_STOP]
    if quick:
        found = _np_newton(f, [cells[i][0] for i in quick], [centres[i] for i in quick])
        for i, z in zip(quick, found):
            if z is not None:
                starts[i] = (to_fixed(z.real, P), to_fixed(z.imag, P))
    near, stop = _stop2(Fraction(_NEWTON_STOP), P), _stop2(as_fraction(tol) / 4, P)
    out = []
    for (cell, w), z, (x, y) in zip(cells, starts, mids):
        bounds = _bounds(cell, P)
        if z is None:
            z = _newton(f, (fixed_ratio(*x, P), fixed_ratio(*y, P)), 1, bounds, near)
        first = None if z is None else _certify(f, z, w)
        z = None if first is None else _newton(f, z, w, bounds, stop, first)
        out.append(None if z is None else (fixed_mpc(*z, -P, f.bits), w))
    return out


def _zeros_in(f: _Poly, rect: Rectangle, w_total: int, tol) -> list:
    """(zero, multiplicity) for the w_total > 0 zeros inside rect.

    The cells are taken a level of cuts at a time. A cell is polished once
    it holds one zero or no edge exceeds _COARSE, all such cells of a level
    in one ``_polish`` call, and split when it is larger or its polish
    fails: the children of all cells to split are wound in one ``_windings``
    call per draw, each cell drawn again until its children's counts add up
    (QuadratureNotConverged after six draws). Raises NonConvergent when
    distinct zeros cannot be separated at the cluster floor.
    """
    found = []
    level = [(rect, w_total)]
    while level:
        ready = [i for i, (cell, w) in enumerate(level)
                 if w == 1 or max(cell.width, cell.height) <= _COARSE]
        hits = dict(zip(ready, _polish(f, [level[i] for i in ready], tol)))
        split = []
        for i, (cell, w) in enumerate(level):
            if hits.get(i) is not None:
                found.append(hits[i])
                continue
            if i in hits and max(cell.width, cell.height) <= _CLUSTER_FLOOR:
                raise NonConvergent(f"could not separate {w} zeros inside {cell}")
            split.append((cell, w))
        kept = [None] * len(split)
        for retry in range(6):
            todo = [j for j, k in enumerate(kept) if k is None]
            if not todo:
                break
            draws = [_split_cell(*split[j], retry) for j in todo]
            ws = iter(_windings(f, [child for children in draws for child in children]))
            for j, children in zip(todo, draws):
                got = [next(ws) for _ in children]
                if all(isinstance(w, int) for w in got) and sum(got) == split[j][1]:
                    kept[j] = [(c, w) for c, w in zip(children, got) if w > 0]
        if None in kept:
            cell, _ = split[kept.index(None)]
            raise QuadratureNotConverged(f"cell {cell} would not split additively")
        level = [piece for k in kept for piece in k]
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
        residuals = tuple(abs(dp_eval(P, z, bits)) for z, _ in found)
    return ZeroSet(zeros=tuple(found), rectangle=rect, total_count=w_total,
                   residual=max(residuals) if residuals else mpf(0),
                   residuals=residuals)


def _on_line(zeros, r, line_tol, bits: int) -> list:
    """(ordinate, multiplicity) of the (zero, multiplicity) pairs whose real
    part is within line_tol of r, by height, compared at bits."""
    r_q = as_fraction(r)
    with working(bits):
        r_mp = fraction_to_mpf(r_q)
        tol = to_mp(line_tol)
        out = [(mp.im(z), m) for (z, m) in zeros if abs(mp.re(z) - r_mp) <= tol]
    return sorted(out, key=lambda tm: float(tm[0]))


def zeros_on_line(zs: ZeroSet, r, line_tol) -> list:
    """Ordinates of the zeros whose real part is within line_tol of r."""
    return [t for t, _ in _on_line(zs.zeros, r, line_tol, resolve_bits(None))]


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
    multiplicities: tuple       # of the zero at each ordinate


def constant_C(P: DirichletPolynomial, r, T, line_tol, bits: Optional[int] = None) -> ConstantC:
    """Partial sum of 1/(1/4 + t^2) over the distinct on-line zeros up to
    |t| <= T, each weighted once whatever its multiplicity, plus a tail
    estimate for everything above.

    The strip [alpha - 1/2, beta + 1/2] x [-T - pad, T + pad] is wound once
    and goes through the zero engine as find_zeros does, zeros polished to
    2^-(bits/2); those within line_tol of Re = r are kept with their
    multiplicities. A strip whose contour the engine cannot settle is
    retried with the next pad. The tail estimate is 2/T times the average
    zero density log m / (2 pi) with a factor 3/2: not a proven bound.
    """
    if not T > 0:
        raise ValueError(f"need T > 0, got {T}")
    bits = resolve_bits(bits)
    r_q = as_fraction(r)
    line_tol_q = as_fraction(line_tol)
    if P.m == 1:
        return ConstantC(r=r_q, partial=mpf(0), T=T, tail_bound=mpf(0),
                         line_tolerance=line_tol_q, ordinates=(), multiplicities=())
    f = _Poly(P, bits)
    with working(bits):
        tol = mpf(2) ** (-(bits // 2))
    sb = strip_bounds(P, bits=min(bits, 192))
    x0 = as_fraction(sb.alpha) - Fraction(1, 2)
    x1 = as_fraction(sb.beta) + Fraction(1, 2)
    T_f = as_fraction(T)
    last_error = None
    for attempt in range(6):
        pad = Fraction(123456 + attempt * 13700, 1_000_000)
        strip = Rectangle(x0, x1, -T_f - pad, T_f + pad)
        try:
            w = winding_count(f, strip)
            found = _zeros_in(f, strip, w, tol) if w else []
        except (ContourTooClose, QuadratureNotConverged, NonConvergent) as exc:
            last_error = exc
            continue
        with working(bits):
            T_mp = fraction_to_mpf(T_f)
            on = [(t, m) for t, m in _on_line(found, r_q, line_tol_q, bits) if abs(t) <= T_mp]
            partial = mp.fsum(1 / (mpf(1) / 4 + t * t) for t, _ in on)
            density = mpf(3) / 2 * mp.log(P.m) / (2 * mp.pi)
            tail = density * 2 / T_mp
        return ConstantC(r=r_q, partial=partial, T=T, tail_bound=tail,
                         line_tolerance=line_tol_q, ordinates=tuple(t for t, _ in on),
                         multiplicities=tuple(m for _, m in on))
    raise QuadratureNotConverged(f"strip scan kept failing: {last_error}")
