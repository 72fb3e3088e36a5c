"""Zero location by the argument principle, and the spectral constant.

A rectangle's winding number is proven by argument tracking on Taylor
bounds (Y. Ying and I. N. Katz, Numer. Math. 53 (1988); T. Johnson and
W. Tucker, J. Comput. Appl. Math. 228 (2009)). Each edge is walked in
segments [z0, z1], taken as discs about z0 of radius
R = h + 2^-50 (1 + |z0| + h), h = |z1 - z0|. With the Taylor coefficients
p_j = sum_k a_k k^-z0 (-log k)^j / j! a segment is accepted when

    (sum_{j=1..J} |p_j| R^j + tail_J + rnd) (1 + mu) < (7/8) |p_0|,

tail_J = sum_k |a_k| k^-Re z0 (R log k)^{J+1} k^R / (J+1)!, J = 4.

Proof. On the disc, P(z) - P(z0) = sum_{j>=1} p_j (z - z0)^j, and
sum_{j>J} (R log k)^j / j! <= (R log k)^{J+1} k^R / (J+1)! (as in
``_certify``), so |P(z) - p~_0| stays below the left side, p~_0 the
computed p_0, when rnd bounds the rounding of every p~_j. Then P(z) lies
in the disc about p~_0 of radius (7/8) |p~_0| for every z of the disc: P has
no zero there, and its argument moves by less than asin(7/8) < 1.1 about
that of p~_0. Consecutive accepted starts z_i, z_{i+1} both lie in the disc
of z_i, and z_{i+1} in its own, so the argument of P moves from z_i to
z_{i+1} by exactly the principal Arg(p~_0(z_{i+1}) / p~_0(z_i)), a value
below 2.2 in size that doubles cannot wrap. The winding is the sum of
these around the contour over 2 pi: an integer by construction, up to
double rounding of at most 2^-40 per segment in the sum.

Disc padding. The vertices are doubles, and the caller's rectangle has
Fraction edges. Each vertex lies within 2^-51 (|z| + 1) of the exact edge,
at a point in the same order along it, so the padded discs cover both the
double polygon and the exact rectangle between consecutive vertices, with
no zero of P in the strip between them: the proof covers the rectangle the
caller gave.

Rounding. In doubles each start is scaled so that the largest A_k, the
bound on |a_k k^-z0| (to within the factor 1 + mu), is 1, so no term
overflows and underflow is far below the bound; rnd = c sum_k A_k k^R with c = 2^-48 (1 + n + J + |z0| log m
+ 2 max_k |log |a_k||), n terms, which bounds the rounding of the exponent
arguments, the exponentials, the coefficients and the sums to first order,
and mu = c + 2^-48 R log m covers that of the test itself. A coefficient
below the smallest normal double is not held: it counts as its bound, all
in rnd. Where the double rnd alone reaches (7/8) |p_0|, the start goes to
fixed point at once (``_Poly.fixed_sums``, whose s_j are the p_j in
integers), with _certify's rounding analysis: rnd = 2^(2-prec) (eta + 2J
+ 6n + 4) sum_k A_k k^R, eta = |Re z0| log m + 3 log2 m + 3, A_k from the
integer |b_k|, and z0 rounded to 2^-prec, far inside the padding. Near a
multiple zero |P| falls below double rounding long before it falls below
fixed point's.

Refusal floor. A segment is bisected while it fails; a segment shorter
than 2^-44 (1 + |z0|) that still fails is taken again in fixed point, and
then refused: ContourTooClose, a zero (numerically) on the contour. A
contour that needs more than _MAX_SEGMENTS segments raises
QuadratureNotConverged.

One function, ``_windings``, winds a list of rectangles, each to its own
count or error, and ``winding_count`` is its one-rectangle case, which
raises the error. All rectangles on the same coefficients go through one
``_np_windings`` call, every pending segment of every rectangle in one
numpy round; a rectangle on which some term of P would overflow, underflow
or go subnormal in doubles (``_Poly.numpy_safe``) is wound on
Q(s) = 2^-E P(s + c), c the integer nearest its real centre, translated by
-c (``_Poly.shifted``): Q is P times a positive constant, so the count is
P's. ``_np_pair`` gives (P, P') in doubles for the double Newton.

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
to the requested tolerance (``_newton``); a start the certificate refuses
is refined in fixed point first. Only the converged iterate must lie in
the cell, tested exactly against its Fraction edges. No contour is wound
about a zero.

The polish past doubles runs in the fixed point of ``exact``, as the psi
stream and the d^2 factorization do: z = (X + iY) 2^-prec with prec = bits +
GUARD_BITS, and ``_Poly.fixed_terms`` gives every b_k = a_k k^-z as a
Gaussian integer under one block exponent, summed by ``_Poly.fixed_sums``.
Newton steps, stop tests and the certificate's inequality are integer
arithmetic on those, free of scale far from the axis and for coefficients
beyond double range. mpmath evaluates P only for ``find_zeros``' residuals
(``dp_eval``). P is prepared once per call in all its forms (``_Poly``).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import fone, from_man_exp, mpf_exp, mpf_mul

from .dpcore import (DirichletPolynomial, _factor_chain, _fixed_log, _phases, dp_eval,
                     strip_bounds)
from .errors import ContourTooClose, NonConvergent, QuadratureNotConverged
from .exact import (GUARD_BITS, as_fraction, fixed_mpc, fixed_ratio, fraction_to_mpf,
                    to_fixed, to_mp)
from .precision import resolve_bits, working

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
_J = 4                            # Taylor terms of the segment test
_STEP = 0.7                       # first segment length times log m
_ACCEPT = 7 / 8                   # the test's bound may reach this share of |p_0|
_PAD = 2.0 ** -50                 # disc radius beyond h, per unit of 1 + |z0| + h
_FLOOR = 2.0 ** -44               # shortest segment, per unit of 1 + |z0|
_ROUND = 2.0 ** -48               # unit of the double rounding bounds
_MAX_SEGMENTS = 1 << 20           # per contour
_NORMAL = sys.float_info.min      # smallest normal double, 2^-1022
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
        # n / d rounds once, as float(Fraction) does, without its dispatch
        x0, x1, y0, y1 = (q.numerator / q.denominator
                          for q in (self.re_lo, self.re_hi, self.im_lo, self.im_hi))
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
    normal doubles) with ``logs``, their ``_coeff_logs``, ``logk``,
    ``log_abs`` = log |a_k| and ``log_asum`` = log sum |a_k|, taken from
    exact logarithms, and ``shifts``, what ``shifted`` has built, by c.
    Fixed point at 2^-prec, prec = bits +
    GUARD_BITS: ``fixed`` holds (i, L_k, a_k as ``_fixed_coeff``) per term,
    i the position of k in ``chain``, the support's factor chain (0 for
    k = 1), and L_k = round(2^prec log k), with ``neg_logs`` the -L_k in
    that order, ``log_max`` the largest L_k and ``chain_logs`` L_p at the
    chain's primes. ``phase_logs`` keeps the primes' logs that the phases
    read, widened as ordinates need.
    """

    __slots__ = ("P", "bits", "a", "logs", "logk", "log_abs", "log_asum", "shifts", "prec",
                 "fixed",
                 "neg_logs", "chain", "chain_logs", "log_max", "phase_logs")

    def __init__(self, P: DirichletPolynomial, bits: int):
        self.P, self.bits = P, bits
        items = list(P.items())
        self.logk = np.log(np.array([k for k, _ in items], dtype=np.float64))
        self.log_abs = [_log_abs(c) for _, c in items]
        self.log_asum = _log_sum(self.log_abs)
        self.a = self.logs = None
        if self.numpy_safe(0.0):
            self.a = np.array([complex(c) for _, c in items], dtype=np.complex128)
            self.logs = _coeff_logs(self.a)
        self.shifts = {}
        self.prec = prec = bits + GUARD_BITS
        self.chain = _factor_chain([k for k, _ in items], P.m)
        pos = {k: i for i, (k, _, _) in enumerate([(1, 0, 0)] + self.chain)}
        self.fixed = [(pos[k], _fixed_log(k, prec), *_fixed_coeff(c, prec)) for k, c in items]
        self.neg_logs = [-L for _, L, *_ in self.fixed]
        self.log_max = max(L for _, L, *_ in self.fixed)
        self.chain_logs = {k: _fixed_log(k, prec) for k, i, _ in self.chain if not i}
        self.phase_logs = {}

    def numpy_safe(self, sigma_max: float) -> bool:
        """Whether doubles hold every term a_k k^-s with |Re s| <= sigma_max:
        every nonzero term, its coefficient included, stays a normal double,
        between e^-_SAFE_LOG and e^_SAFE_LOG, so none underflows or goes
        subnormal."""
        reach = sigma_max * math.log(self.P.m)
        return reach + self.log_asum < _SAFE_LOG and min(self.log_abs) - reach > -_SAFE_LOG

    def shifted(self, c: int):
        """(coefficients, their ``_coeff_logs``) of Q(s) = 2^-E P(s + c),
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
            b = np.array(b, dtype=np.complex128)
            self.shifts[c] = (b, _coeff_logs(b))
        return self.shifts[c]

    def fixed_terms(self, X: int, Y: int):
        """(b, e): b_k = a_k k^-z = (re + i im) 2^e as Gaussian integers,
        in the order of ``fixed``, at z = (X + iY) 2^-prec.

        One block exponent e serves every term: the largest part lies
        between 2^(prec-1) and 2^prec. One walk of ``chain`` gives k^-iy
        (dpcore._phases) and k^-x: mpf_exp of the exact -X L_p 2^-2prec at
        a prime p, and p^-x m^-x rounded once at a composite k = p m.
        """
        P = self.prec
        mag, phase = [fone], [(1 << P, 0)]
        walk = _phases(self.chain, from_man_exp(Y, -P), P, self.phase_logs, self.P.m)
        for (k, i, j), e in zip(self.chain, walk):
            mag.append(mpf_mul(mag[i], mag[j], P + 8) if i else
                       mpf_exp(from_man_exp(-X * self.chain_logs[k], -2 * P), P + 8))
            phase.append(e)
        raw = []
        top = None
        for i, _, ar, ai, ea in self.fixed:
            _, man, exp, _ = mag[i]
            er, ei = phase[i]
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

    def fixed_sums(self, X: int, Y: int, w: int):
        """(b, [s_0, ..., s_w]) at z = (X + iY) 2^-prec: b and e from ``fixed_terms``,
        s_j = sum_k b_k (-L_k)^j, so P(z) = s_0 2^e and P'(z) = s_1 2^(e - prec)."""
        b, _ = self.fixed_terms(X, Y)
        re, im = zip(*b)
        sums = [(sum(re), sum(im))]
        for _ in range(w):
            re, im = tuple(map(mul, self.neg_logs, re)), tuple(map(mul, self.neg_logs, im))
            sums.append((sum(re), sum(im)))
        return b, sums


# =========================================================================
# argument tracking
# =========================================================================

def _np_pair(a, logk, s):
    """(P, P') at the nodes s in doubles, _CHUNK of them at a time, the terms
    a_k k^-s added in order of k; k = 1 needs no exp. Each term is one array,
    formed in place, and times -log k (a real product) for P'."""
    p = np.zeros(len(s), dtype=np.complex128)
    d = np.zeros(len(s), dtype=np.complex128)
    for lo in range(0, len(s), _CHUNK):
        z, hi = s[lo:lo + _CHUNK], lo + _CHUNK
        for ak, lk in zip(a.tolist(), logk.tolist()):
            if not lk:
                p[lo:hi] += ak
                continue
            t = np.multiply(z, -lk)
            np.exp(t, out=t)
            t *= ak
            p[lo:hi] += t
            parts = t.view(np.float64)
            parts *= -lk
            d[lo:hi] += t
    return p, d


def _coeff_logs(a):
    """(log |a_k|, arg a_k, unheld) of a complex128 coefficient array. A
    coefficient below the smallest normal double (subnormal, or 0 where
    ``shifted`` dropped a term below 2^-1100 of the largest) is unheld: it
    enters the segment test at its bound 2^-1021, as rounding only."""
    mag = np.abs(a)
    unheld = mag < _NORMAL
    return np.log(np.where(unheld, 2 * _NORMAL, mag)), np.angle(a), unheld


class _Starts:
    """Taylor data of P at a batch of segment starts z0, one row each, every
    row in its own positive unit: p[:, j] = p_j and ``size`` = |p_j|,
    A[:, k] a bound on |a_k k^-z0| to within the factor 1 + mu and U its
    unheld part (None when no coefficient is unheld), ``coef`` the rounding
    of the p_j per unit of sum_k A_k k^h, ``mu`` the relative rounding of
    the test itself, and whether the row was taken in fixed point; ``logk``
    are P's log k, and V[k, j] = (-log k)^j / j!."""

    __slots__ = ("logk", "p", "size", "A", "U", "coef", "mu", "fixed")

    def __init__(self, logs, logk, V, z):
        """Rows in doubles, each scaled so that its largest A_k is 1."""
        la, phase, unheld = logs
        self.logk = logk
        L = la - np.multiply.outer(z.real, logk)
        L -= L.max(axis=1)[:, None]
        self.A = np.exp(L)
        b = np.exp(L + 1j * (phase - np.multiply.outer(z.imag, logk)))
        self.U = None
        if unheld.any():
            b[:, unheld] = 0
            self.U = self.A * unheld
        self.p = (b[:, :, None] * V).sum(axis=1)
        self.size = np.abs(self.p)
        spread = 2 * float(np.abs(la).max())
        self.coef = _ROUND * (1 + len(la) + _J + np.abs(z) * logk[-1] + spread)
        self.mu = self.coef.copy()
        self.fixed = np.zeros(len(z), dtype=bool)

    def refix(self, i: int, f: _Poly, x: Fraction, y: float):
        """Row i again from ``_Poly.fixed_sums`` at (x + iy), x exact, rounded
        to 2^-prec: p_j = s_j / (j! 2^((j+1) prec)) and A_k from |b_k|, in
        the unit 2^(e + prec) of the block exponent e."""
        P, n = f.prec, len(f.fixed)
        b, s = f.fixed_sums(to_fixed(x, P), to_fixed(y, P), _J)
        self.p[i] = [complex(sr / (math.factorial(j) << (j + 1) * P),
                             si / (math.factorial(j) << (j + 1) * P))
                     for j, (sr, si) in enumerate(s)]
        self.size[i] = np.abs(self.p[i])
        self.A[i] = [(math.isqrt(br * br + bi * bi) + 2) / (1 << P) for br, bi in b]
        if self.U is not None:
            self.U[i] = 0.0
        eta = abs(float(x)) * math.log(f.P.m) + 3 * math.log2(f.P.m) + 3
        self.coef[i] = 2.0 ** (2 - P) * (eta + 2 * _J + 6 * n + 4)
        self.mu[i] = _ROUND * (1 + n + _J)
        self.fixed[i] = True

    def _rounding(self, rows, grow):
        """(rnd, W) for the given rows, grow = k^h: W_k = A_k k^h, and rnd =
        coef sum_k W_k plus every unheld A_k k^h."""
        W = self.A[rows] * grow
        rnd = self.coef[rows] * W.sum(axis=1)
        if self.U is not None:
            rnd += (self.U[rows] * grow).sum(axis=1)
        return rnd, W

    def sure(self):
        """Rows whose double rounding alone leaves room to accept a segment:
        the rest go to fixed point at once."""
        rnd, _ = self._rounding(slice(None), 1.0)
        with np.errstate(invalid="ignore"):
            return (np.isfinite(self.p).all(axis=1)
                    & (rnd * (1 + self.mu) < _ACCEPT * self.size[:, 0]))

    def accepts(self, rows, R):
        """Whether sum_{j=1..J} |p_j| R^j + tail_J + rnd, times 1 + mu, is
        below _ACCEPT |p_0| for the given rows and disc radii R."""
        u = np.multiply.outer(R, self.logk)
        size = self.size[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            rnd, W = self._rounding(rows, np.exp(u))
            taylor = size[:, _J]
            for j in range(_J - 1, 0, -1):
                taylor = taylor * R + size[:, j]
            tail = (W * u ** (_J + 1)).sum(axis=1) / math.factorial(_J + 1)
            mu = self.mu[rows] + _ROUND * R * self.logk[-1]
            return (taylor * R + tail + rnd) * (1 + mu) < _ACCEPT * size[:, 0]


def _points(start, end, t):
    """The vertices start + t (end - start), end itself at t = 1: the same
    double for the same t, whichever segment asks."""
    return np.where(t == 1.0, end, start + t * (end - start))


def _prefix(st: _Starts, rows, z0, start, end, ta, tb):
    """Bisect each segment [ta, tb] until its first half [ta, t] passes on
    the row's own Taylor data: (t per row, NaN where the half fell below the
    floor first; and the second halves left behind, as (row, lo, hi), of the
    rows that passed). Those halves tile [t, tb]."""
    t = tb.copy()
    out = np.full(len(rows), np.nan)
    live = np.arange(len(rows))
    floor = _FLOOR * (1 + np.abs(z0))
    halves = []
    while live.size:
        h = np.abs(_points(start[live], end[live], t[live]) - z0[live])
        R = h + _PAD * (1 + np.abs(z0[live]) + h)
        ok = st.accepts(rows[live], R)
        out[live[ok]] = t[live[ok]]
        live = live[~ok & (h >= floor[live])]
        hi = t[live]
        t[live] = (ta[live] + hi) / 2
        halves.append((live, t[live], hi))
    i, lo, hi = (np.concatenate(x) for x in zip(*halves))
    keep = ~np.isnan(out[i])
    return out, (i[keep], lo[keep], hi[keep])


def _np_windings(f: _Poly, a, logs, c: Optional[int], rects) -> list:
    """Winding numbers of rectangles on one coefficient array (P's own, or
    the shift by c), each one's verdict: its count, or the ContourTooClose
    or QuadratureNotConverged it gets in place of one.

    Each edge starts as ceil(length log m / _STEP) equal segments, all
    pending. A round takes the Taylor data at the start of every pending
    segment of every rectangle (``_Starts``, in doubles; ``_Starts.refix``
    in fixed point for a start whose double rounding alone bars acceptance,
    or whose segment reached the floor in doubles), bisects each segment
    until its first half passes (``_prefix``), and leaves the second halves
    pending for the next round. The count is the sum of the principal
    Arg(p_0(z_{i+1}) / p_0(z_i)) around the accepted starts, over 2 pi.
    """
    logk = f.logk
    V = np.array([[(-lk) ** j / math.factorial(j) for j in range(_J + 1)]
                  for lk in logk.tolist()])
    corners = np.array([r.corners_complex() for r in rects], dtype=np.complex128)
    start = corners.ravel()
    end = np.roll(corners, -1, axis=1).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        per_edge = np.maximum(np.ceil(np.abs(end - start) * (logk[-1] / _STEP)), 1)
    verdicts = [None] * len(rects)
    for i, total in enumerate(per_edge.reshape(-1, 4).sum(axis=1).tolist()):
        if not total <= _MAX_SEGMENTS:
            verdicts[i] = QuadratureNotConverged(
                f"the contour needs more than {_MAX_SEGMENTS} segments")
    per_edge = np.where(np.repeat([v is None for v in verdicts], 4), per_edge, 0).astype(np.int64)
    eid = np.repeat(np.arange(per_edge.size), per_edge)
    i = np.arange(eid.size) - np.repeat(np.cumsum(per_edge) - per_edge, per_edge)
    ta, tb = i / per_edge[eid], (i + 1) / per_edge[eid]
    done_eid, done_t, done_dir = [], [], []
    used = np.zeros(len(rects), dtype=np.int64)
    chunk = max(1, _CHUNK // len(a))
    while eid.size:
        rest = []
        for lo in range(0, eid.size, chunk):
            e, t0, t1 = eid[lo:lo + chunk], ta[lo:lo + chunk], tb[lo:lo + chunk]
            s0, s1 = start[e], end[e]
            z0 = _points(s0, s1, t0)
            with np.errstate(over="ignore", invalid="ignore"):
                st = _Starts(logs, logk, V, z0)
            for j in np.flatnonzero(~st.sure()).tolist():
                st.refix(j, f, Fraction(z0[j].real) + (c or 0), z0[j].imag)
            t, (j, lo_, hi_) = _prefix(st, np.arange(e.size), z0, s0, s1, t0, t1)
            rest.append((e[j], lo_, hi_))
            again = np.flatnonzero(np.isnan(t) & ~st.fixed)
            for j in again.tolist():
                st.refix(j, f, Fraction(z0[j].real) + (c or 0), z0[j].imag)
            if again.size:
                t[again], (j, lo_, hi_) = _prefix(st, again, z0[again], s0[again], s1[again],
                                                  t0[again], t1[again])
                rest.append((e[again[j]], lo_, hi_))
            for r in set((e[np.isnan(t)] // 4).tolist()):
                verdicts[r] = verdicts[r] or ContourTooClose(
                    "polynomial nearly vanishes on the contour")
            ok = ~np.isnan(t)
            done_eid.append(e[ok])
            done_t.append(t0[ok])
            done_dir.append(st.p[ok, 0] / st.size[ok, 0])
            np.add.at(used, e[ok] // 4, 1)
        for r in np.flatnonzero(used > _MAX_SEGMENTS).tolist():
            verdicts[r] = verdicts[r] or QuadratureNotConverged(
                f"the contour needs more than {_MAX_SEGMENTS} segments")
        live = np.array([v is None for v in verdicts])
        eid, ta, tb = (np.concatenate(x) for x in zip(*rest))
        keep = live[eid // 4]
        eid, ta, tb = eid[keep], ta[keep], tb[keep]
    e, t, d = (np.concatenate(x or [np.zeros(0)]) for x in (done_eid, done_t, done_dir))
    if not e.size:
        return verdicts
    order = np.lexsort((t, e))
    r, d = e[order] // 4, d[order]
    first = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    nxt = np.arange(r.size) + 1
    nxt[np.r_[first[1:], r.size] - 1] = first
    turn = np.bincount(r, weights=np.angle(d[nxt] * d.conj()), minlength=len(rects))
    return [v if v is not None else int(round(w / (2 * math.pi)))
            for v, w in zip(verdicts, turn.tolist())]


def _reach(rect: Rectangle) -> float:
    """The largest |Re s| on the rectangle, in doubles."""
    return max(abs(float(rect.re_lo)), abs(float(rect.re_hi)))


def _windings(f: _Poly, rects) -> list:
    """Each rectangle's verdict: the count ``winding_count`` gives it, or
    the ContourTooClose or QuadratureNotConverged it raises for it alone.

    A rectangle whose terms are normal doubles as it stands is wound on P's
    own coefficients. Any other is wound as the same problem for
    Q(s) = 2^-E P(s + c), c the integer nearest its real centre
    (``_Poly.shifted``), and translated by -c: Q is P times a positive
    constant, so the count is P's, unless c is too far from the axis.
    Rectangles on the same coefficients are wound together
    (``_np_windings``), and every row of that batch is computed on its own,
    so each rectangle gets the verdict it would get alone.

    Each count is proven (module docstring): every segment's disc, of
    radius h + 2^-50 (1 + |z0| + h), passes sum_{j=1..J} |p_j| R^j + tail_J +
    rnd < (7/8) |p_0| with rnd a stated bound on the double (or fixed-point)
    rounding of the p_j, and the discs cover the exact Fraction rectangle as
    well as the double polygon. A segment below 2^-44 (1 + |z0|) that fails
    in fixed point too refuses the rectangle.
    """
    if f.P.m == 1:
        return [0] * len(rects)
    groups = {}
    for i, r in enumerate(rects):
        c = None if f.numpy_safe(_reach(r)) else round((r.re_lo + r.re_hi) / 2)
        groups.setdefault(c, []).append(i)
    counts = [None] * len(rects)
    for c, rows in groups.items():
        moved = [rects[i] for i in rows]
        if c is None:
            a, logs = f.a, f.logs
        else:
            try:
                a, logs = f.shifted(c)
            except ContourTooClose as exc:
                for i in rows:
                    counts[i] = exc
                continue
            moved = [_child(r.re_lo - c, r.re_hi - c, r.im_lo, r.im_hi) for r in moved]
        for i, count in zip(rows, _np_windings(f, a, logs, c, moved)):
            counts[i] = count
    return counts


def winding_count(P, rect, bits: Optional[int] = None) -> int:
    """Number of zeros (with multiplicity) inside the rectangle, proven by
    argument tracking as ``_windings`` does it (see the module docstring).

    P is a DirichletPolynomial, or the _Poly that the zero engine prepared
    once for all of its windings; its precision then replaces ``bits``.
    Only the fixed-point fallback reads the precision, and the count is
    exact either way: the sum of principal arguments over segments whose
    padded discs keep P within (7/8) |p_0| of its value p_0 at the start,
    by a Taylor bound with its tail and rounding. Raises ContourTooClose
    when a segment below the floor 2^-44 (1 + |z0|) cannot be accepted even
    in fixed point (a zero numerically on the contour), and
    QuadratureNotConverged when the contour needs more than _MAX_SEGMENTS
    segments.
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
    """(s_0, s_1) of ``_Poly.fixed_sums`` at z = (X + iY) 2^-prec if exactly
    w zeros of P lie within rho of z, for one of the radii rho = 10^-6 0.7^i,
    i = 0..4, each rounded down to 2^-prec; else None.

    With b_k = a_k k^-z from ``fixed_sums``, formed once, and
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
    2^-(prec+6) of itself; e_k is dpcore._phases, as in the psi stream, so
    |e_k - 2^prec k^-iy| <= 2 log2 k, the stream's bound, at any height; and
    the block shift rounds each part to nearest.
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
    b, s = f.fixed_sums(X, Y, w)
    size = [math.isqrt(x * x + y * y) for x, y in s]
    babs = [math.isqrt(x * x + y * y) + 1 for x, y in b]
    lup = [L + 1 if L else 0 for _, L, *_ in f.fixed]      # 2^prec log k <= lup
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
            return s[0], s[1]
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
    integers: the step is mult p conj(d) / |d|^2 from ``fixed_sums``, rounded
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
        (pr, pi), (dr, di) = pair or f.fixed_sums(X, Y, 1)[1]
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
    overflow, or after _NEWTON_STEPS steps. ``_np_pair`` sums P and P' node
    by node, so a cell gets the same iterate whichever cells share its batch.
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
            p, d = _np_pair(f.a, f.logk, z[live])
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

    Newton from the centre settles within _NEWTON_STOP of a zero in doubles,
    for all cells at once, where the terms fit and doubles resolve s that
    finely. ``_certify`` must show that exactly w zeros lie within a small
    radius of it. Without a double start, or when the certificate refuses
    it, Newton runs on in fixed point from it (or the centre) and the
    certificate is asked again. Newton with multiplicity w then polishes
    until a step is at most tol/4, its first step from the certificate's
    (P, P'). Only the converged iterate must lie in the cell, tested exactly.
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
        first = None if z is None else _certify(f, z, w)
        if first is None:
            z = _newton(f, z or (fixed_ratio(*x, P), fixed_ratio(*y, P)), 1, bounds, near)
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
    if line_tol_q < 0:
        raise ValueError(f"need line_tol >= 0, got {line_tol_q}")
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
