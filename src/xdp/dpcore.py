"""Dirichlet polynomials and the profile/inverse operations built on them.

A polynomial is P(s) = sum a_k k^{-s}, k = 1..m, with a_1 != 0 and a_m != 0
(trailing zero coefficients are trimmed at construction). Coefficients are
stored as exact Gaussian rationals; evaluation happens at a requested binary
precision, while the convolution inverse stays exact and the kappa partial
sums are exact sums of powers k^{1/2-r}, each exact when it is rational.
"""

from __future__ import annotations

import math
import re as _re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_cos_sin, mpf_log, mpf_shift, round_nearest,
                          to_int)
from mpmath.libmp.libelefun import pi_fixed

from .errors import NonConvergent
from .exact import GaussianRational, as_fraction, fraction_to_mpf, to_mp
from .precision import resolve_bits, working

Scalar = Union[int, float, Fraction, complex, mpf, mpc, GaussianRational]

_ENTRY = _re.compile(r"^(\d+):(.+)$")


def _format_coeff(c: GaussianRational) -> str:
    if c.is_real:
        return str(c.re)
    if not c.re:
        return f"{c.im}i"
    sign = "+" if c.im >= 0 else "-"
    return f"{c.re}{sign}{abs(c.im)}i"


def _parse_coeff(text: str) -> GaussianRational:
    t = "".join(text.split())
    if not t:
        raise ValueError("empty coefficient")
    if not t.endswith("i"):
        return GaussianRational(as_fraction(t))
    body = t[:-1]
    split = None
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1].isdigit():
            split = idx
            break
    if split is None:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = as_fraction(im_part)
    return GaussianRational(as_fraction(re_part), im)


class DirichletPolynomial:
    """Immutable coefficient vector (a_1, ..., a_m) of Gaussian rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        vals = [c if isinstance(c, GaussianRational) else GaussianRational.from_value(c)
                for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        if not vals:
            raise ValueError("polynomial has no nonzero coefficient")
        if not vals[0]:
            raise ValueError("leading coefficient a_1 must be nonzero")
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, *_):
        raise AttributeError("DirichletPolynomial is immutable")

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def items(self) -> Iterator[tuple[int, GaussianRational]]:
        """(k, a_k) pairs with a_k != 0, k ascending."""
        for k, a in enumerate(self.coeffs, 1):
            if a:
                yield k, a

    # -- text form: "1:1,2:-1/3+2i", sparse, indices ascending ---------------

    @classmethod
    def parse(cls, text: str) -> "DirichletPolynomial":
        entries: dict[int, GaussianRational] = {}
        for raw in text.split(","):
            raw = raw.strip()
            if not raw:
                raise ValueError("empty entry in polynomial text")
            m_ = _ENTRY.match(raw)
            if not m_:
                raise ValueError(f"bad polynomial entry {raw!r}, want 'k:value'")
            k = int(m_.group(1))
            if k < 1:
                raise ValueError(f"coefficient index {k} out of range, need k >= 1")
            if k in entries:
                raise ValueError(f"duplicate coefficient index {k}")
            entries[k] = _parse_coeff(m_.group(2))
        if 1 not in entries:
            raise ValueError("polynomial text must define a_1")
        top = max(entries)
        dense = [entries.get(k, GaussianRational(0)) for k in range(1, top + 1)]
        return cls(dense)

    def to_text(self) -> str:
        return ",".join(f"{k}:{_format_coeff(a)}" for k, a in self.items())

    def __eq__(self, other):
        if not isinstance(other, DirichletPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"DirichletPolynomial.parse({self.to_text()!r})"

    __str__ = to_text


def _mp_terms(P: DirichletPolynomial) -> list:
    """(a_k, log k) for the nonzero terms of P at the ambient precision."""
    return [(to_mp(a), mp.log(k)) for k, a in P.items()]


def _mp_pair(terms, s):
    """(P(s), P'(s)) at the ambient precision from P's ``_mp_terms``:
    P(s) = sum a_k k^{-s} and P'(s) = -sum a_k log(k) k^{-s}."""
    p = d = mpf(0)
    for a, logk in terms:
        if not logk:            # k = 1
            p += a
            continue
        t = a * mp.exp(-s * logk)
        p += t
        d -= logk * t
    return p, d


# =========================================================================
# fixed-point phases: k^{-it} 2^P from prime phases, composites as products
# =========================================================================

def _spf_sieve(n: int) -> array:
    """spf[k] = the smallest prime factor of composite k <= n; 0 elsewhere."""
    spf = array("I", bytes(4 * (n + 1)))
    if n < 4:
        return spf
    r = math.isqrt(n)
    small = _spf_sieve(r)
    for p in reversed([p for p in range(2, r + 1) if not small[p]]):
        spf[p * p::p] = array("I", [p]) * len(range(p * p, n + 1, p))
    return spf


def _factor_chain(ks, m: int) -> list:
    """The chain _phases walks to every k > 1 of ks (all k <= m) and the primes
    and cofactors building them, by increasing k: (k, 0, 0) at a prime and
    (k, i, j) at k = p q, p = spf[k], with i, j the positions (index + 1) of p, q."""
    spf = _spf_sieve(m)
    need = set()
    for k in ks:
        while k > 1 and k not in need:
            p = spf[k] or k
            need.update((k, p))
            k //= p
    ks = sorted(need)
    pos = {k: i for i, k in enumerate(ks, 1)}
    return [(k, pos[spf[k]], pos[k // spf[k]]) if spf[k] else (k, 0, 0) for k in ks]


def _fixed_log(k: int, R: int) -> int:
    """round(2^R log k), within one unit: mpf_log at R + 16 bits, rounded once."""
    return to_int(mpf_shift(mpf_log(from_int(k), R + 16), R), round_nearest)


# Prime phases are reduced in integers. The first pass carries _PHASE_GUARD
# bits past 2^-P; a pass that cannot decide the rounding doubles them. A log p
# or a table entry is kept _SLACK bits finer than the pass asked for, so
# ordinates of nearby size share it. cos/sin of r in [0, pi/2) start from
# the table entry at the multiple of 2^-_TRIG_STEP below r. No integer a
# phase returns depends on what these caches hold.
_PHASE_GUARD = 20
_SLACK = 64
_TRIG_STEP = 8
_TRIG_TABLE: dict = {}            # j -> (Q, cos, sin) of j 2^-_TRIG_STEP at 2^-Q


def _trig_entry(j: int, Q: int):
    """(cos, sin) of j 2^-_TRIG_STEP at 2^-Q, each within one unit.

    The table keeps each entry at the finest Q asked so far plus _SLACK,
    rounded once from mpf_cos_sin at 4 more bits (within 1/2 + 1/16 units
    there), and a coarser Q takes it by one more rounding."""
    entry = _TRIG_TABLE.get(j)
    if entry is None or entry[0] < Q:
        Qt = Q + _SLACK
        c, s = mpf_cos_sin(from_man_exp(j, -_TRIG_STEP), Qt + 4, round_nearest)
        entry = _TRIG_TABLE[j] = (Qt, to_int(mpf_shift(c, Qt), round_nearest),
                                  to_int(mpf_shift(s, Qt), round_nearest))
    Qt, c, s = entry
    if Qt == Q:
        return c, s
    d = Qt - Q - 1
    return ((c >> d) + 1) >> 1, ((s >> d) + 1) >> 1


def _cos_sin_fixed(r: int, Q: int):
    """(C, S, E): cos and sin of rho = r 2^-Q, 0 <= rho <= 2, as integers at
    2^-Q, each within E units of cos(rho) 2^Q and sin(rho) 2^Q.

    Write rho = alpha + xi, alpha = j 2^-8 from the table (_trig_entry, one
    unit each) and 0 <= xi = x 2^-Q < 2^-8. sin xi is its Taylor series:
    a_0 = x, a_i = floor(a_{i-1} x2 / (2^Q (2i)(2i+1))) with
    x2 = floor(x^2 2^-Q). Each a_i is at most the true term and short of it
    by e_i < 1 + (e_{i-1} 2^-16 + 2^-8)/6 < 1.001 (e_0 = 0), so
    S_xi = sum_{i<J} (-1)^i a_i, J the first i with a_i = 0, is within
    1.001 J < 2J + 2 = E_s of sin(xi) 2^Q: the true terms from J on fall by
    a factor below 2^-16 each and alternate, so they add less than the
    first of them, e_J. cos xi is
    C_xi = isqrt(4^Q - S_xi^2), within 1 + E_s/128, since sin xi < 2^-8 and
    cos xi > 0.9999 there. The angle sums
        C = (c_j C_xi - s_j S_xi) >> Q,   S = (s_j C_xi + c_j S_xi) >> Q
    add one unit from the table (times C_xi or S_xi over 2^Q, below 1 +
    2^-8), E_s + E_c from the series (times c_j, s_j <= 1) and one from the
    floor: E = 4 + 2 E_s + 1 units bounds both.
    """
    sh = Q - _TRIG_STEP
    j = r >> sh
    x = r - (j << sh)
    x2 = (x * x) >> Q
    s = a = x
    i = 0
    while a:
        i += 1
        a = ((a * x2) >> Q) // ((2 * i) * (2 * i + 1))
        s = s - a if i & 1 else s + a
    c = math.isqrt((1 << (2 * Q)) - s * s)
    cj, sj = _trig_entry(j, Q)
    return (cj * c - sj * s) >> Q, (sj * c + cj * s) >> Q, 4 * i + 9


def _prime_phase(t, p: int, P: int, logs: Optional[dict] = None):
    """p^{-it} 2^P rounded to nearest Gaussian integers; t is a raw mpf. The
    prime step of _phases, through which the psi stream and the zero
    engine's evaluator both build k^{-it}, a composite as a product.

    ``logs`` keeps round(2^R log p) per prime between calls, as p -> (L, R):
    the stream shares one dict across its ordinates, and ``zeros._Poly``
    one across its evaluations. A pass that needs a finer log widens it.

    Proof. Write |t| < 2^mt, and take Q = P + g (g = _PHASE_GUARD, doubled
    while the rounding is undecided) and Q2 = Q + m + 3, with
    m = max(0, mt + b + 1), b the bit length of p's bit length, so that
    |theta| = |t| log p < 2^(m-1) and n below has |n| <= 2^m.
    - theta 2^Q2 is T = floor(t L 2^(Q2-R)) with L = round(2^R log p) and
      R >= Q2 + mt + 3: L's unit costs |t| 2^-R <= 1/8 unit at 2^-Q2, the
      floor one more.
    - n, r2 = divmod(T, H) with H = pi_fixed(Q2 - 1), within 2 units of
      (pi/2) 2^Q2, so r2 is within 9/8 + 2|n| <= 9/8 + 2^(m+1) units of
      (theta - n pi/2) 2^Q2, and r2 rounded to 2^-Q is within
      1/2 + 9/64 + 1/4 < 1 unit of it. r is in [0, pi/2] up to that unit.
    - cos and sin are 1-Lipschitz, so _cos_sin_fixed's (C, S, E) are within
      E + 1 units of cos and sin of theta - n pi/2, and the quadrant n & 3
      maps them to cos theta and -sin theta by sign and swap.
    - Each value V at 2^-Q rounds to 2^-P as (V + 2^(g-1)) >> g unless the
      truth could lie across a midpoint, i.e. unless the offset f of
      V + 2^(g-1) within its 2^g block lies within E + 1 of 0 or 2^g. Then g
      doubles. cos theta and sin theta are transcendental for rational
      t != 0 (Gelfond-Schneider: p^{it} is), so no midpoint is ever hit
      exactly and the loop ends.
    So the result is round(2^P cos theta) - i round(2^P sin theta), each
    part within 1/2 unit, whatever the logs' precision: the integers do not
    depend on the cache or on which pass decided them.
    """
    sign, man, exp, bc = t
    if not man or p == 1:
        return 1 << P, 0
    if sign:
        man = -man
    mt = exp + bc
    m = max(0, mt + p.bit_length().bit_length() + 1)
    g = _PHASE_GUARD
    while True:
        Q = P + g
        Q2 = Q + m + 3
        need = max(1, Q2 + mt + 3)
        got = None if logs is None else logs.get(p)
        if got is None or got[1] < need:
            got = (_fixed_log(p, need + _SLACK), need + _SLACK)
            if logs is not None:
                logs[p] = got
        L, R = got
        n, r2 = divmod((man * L) >> (R - Q2 - exp), pi_fixed(Q2 - 1))
        c, s, E = _cos_sin_fixed((r2 + (1 << (m + 2))) >> (m + 3), Q)
        q = n & 3
        re, im = ((c, -s), (-s, -c), (-c, s), (s, c))[q]
        half, top = 1 << (g - 1), (1 << g) - E - 1
        fr, fi = (re + half) & ((1 << g) - 1), (im + half) & ((1 << g) - 1)
        if E < fr < top and E < fi < top:
            return (re + half) >> g, (im + half) >> g
        g *= 2


def _phases(chain, t, P: int, logs: Optional[dict], keep: int):
    """e_k = k^{-it} 2^P as Gaussian integers (re, im) along an increasing
    chain of (k, i, j) (_factor_chain); t is a raw mpf. 1 and a prime take
    _prime_phase, with the prime logs in ``logs``; a composite, the product
    of the table's entries i and j, rounded once. The table keeps the
    entries with k <= keep, a prefix of the chain holding every factor."""
    half = 1 << (P - 1)
    re, im = [0], [0]
    for k, i, j in chain:
        if not i:
            x, y = _prime_phase(t, k, P, logs)
        else:
            a, b, c, d = re[i], im[i], re[j], im[j]
            x = (a * c - b * d + half) >> P
            y = (a * d + b * c + half) >> P
        if k <= keep:
            re.append(x)
            im.append(y)
        yield x, y


def dp_eval(P: DirichletPolynomial, s: Scalar, bits: Optional[int] = None):
    """P(s) at the given binary precision."""
    bits = resolve_bits(bits)
    with working(bits):
        return _mp_pair(_mp_terms(P), to_mp(s))[0]


# =========================================================================
# kappa profile
# =========================================================================

def _integer_root(n: int, q: int) -> Optional[int]:
    """The integer c with c^q = n, or None."""
    if n == 1:
        return 1
    if q >= n.bit_length():     # then 2^q > n: no c >= 2 has c^q = n
        return None
    r0 = int(round(n ** (1.0 / q)))
    for c in (r0 - 1, r0, r0 + 1):
        if c >= 1 and c ** q == n:
            return c
    return None


def _exact_power(k: int, e: Fraction) -> Optional[Fraction]:
    """k^e as a Fraction when it is rational, else None."""
    if e.denominator == 1:
        return Fraction(k) ** e.numerator
    root = _integer_root(k, e.denominator)
    if root is None:
        return None
    return Fraction(root) ** e.numerator


@dataclass(frozen=True)
class KappaProfile:
    """Step heights S_1..S_m of x -> kappa_r(x); S_j is the value on [j, j+1),
    a GaussianRational."""

    r: Fraction
    S: tuple
    exact: bool
    precision_bits: Optional[int]

    @property
    def m(self) -> int:
        return len(self.S)


_KAPPA_GUARD_BITS = 32
_MAX_POWER_BITS = 1 << 24       # bits of the largest k^e kappa_partial_sums forms


def kappa_partial_sums(P: DirichletPolynomial, r, bits: Optional[int] = None) -> KappaProfile:
    """S_j = sum_{k<=j} a_k k^e, e = 1/2 - r, summed exactly as Gaussian
    rationals. A power k^e is the exact Fraction when it is rational, else
    k^e rounded once at bits + 32; ``exact`` says whether every power was
    rational, and ``precision_bits`` is None then. A shift whose powers
    could need more than 2^24 bits, |e| ceil(log2 m) > 2^24, is refused
    with ValueError."""
    r_q = as_fraction(r)
    e = Fraction(1, 2) - r_q
    if abs(e) * (P.m - 1).bit_length() > _MAX_POWER_BITS:
        raise ValueError(f"shift r = {r_q} is out of range: the powers k^(1/2 - r), "
                         f"k <= {P.m}, could need more than 2^24 bits")
    bits = resolve_bits(bits)
    exact = True
    run = GaussianRational(0)
    S = []
    with working(bits + _KAPPA_GUARD_BITS):
        e_mp = fraction_to_mpf(e)
        for k, a in enumerate(P.coeffs, 1):
            if a:
                power = _exact_power(k, e)
                if power is None:
                    exact = False
                    power = as_fraction(mp.power(k, e_mp))
                run = run + a * power
            S.append(run)
    return KappaProfile(r=r_q, S=tuple(S), exact=exact,
                        precision_bits=None if exact else bits)


# =========================================================================
# zero-free half-plane bounds
# =========================================================================

@dataclass(frozen=True)
class StripBounds:
    """All zeros satisfy alpha <= Re(s) <= beta (alpha is the signed left
    edge); no_zeros means none exist at all, and then both edges are None."""

    alpha: Optional[mpf]
    beta: Optional[mpf]
    no_zeros: bool
    precision_bits: int


def _solve_increasing(fn, target, bits: int) -> mpf:
    # bracket by geometric growth, then bisect to width 2^{-bits/2}
    tol = mpf(2) ** (-(bits // 2))
    lo, hi = mpf(0), mpf(0)
    step = mpf(1)
    guard = 0
    while fn(lo) > target:
        lo = lo - step
        step = step * 2
        guard += 1
        if guard > 200:
            raise NonConvergent("bracketing failed on the left")
    step = mpf(1)
    guard = 0
    while fn(hi) < target:
        hi = hi + step
        step = step * 2
        guard += 1
        if guard > 200:
            raise NonConvergent("bracketing failed on the right")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def strip_bounds(P: DirichletPolynomial, bits: Optional[int] = None) -> StripBounds:
    """alpha <= Re rho <= beta for every zero rho of P, from the triangle
    inequality, each edge found by bisection to within 2^-(bits/2).

    Right of beta, where sum_{k>=2} |a_k| k^-beta = |a_1|, the term k = 1
    outweighs the rest; left of alpha, where sum_{k<m} |a_k| (m/k)^alpha
    = |a_m|, the term k = m does. The edges are sharp when each k > 1 of
    the support sits on its own prime (Kronecker lets the phases align),
    and can be loose otherwise. For m = 1, P is a nonzero constant:
    no_zeros, with both edges None.
    """
    bits = resolve_bits(bits)
    if P.m == 1:
        return StripBounds(alpha=None, beta=None, no_zeros=True, precision_bits=bits)
    with working(bits):
        mags = {k: abs(to_mp(a)) for k, a in P.items()}
        m = P.m

        def head_tail(sigma):
            # sum_{k >= 2} |a_k| k^{-sigma}, decreasing in sigma
            return mp.fsum(v * mp.power(k, -sigma) for k, v in mags.items() if k > 1)

        def lead_rest(sigma):
            # sum_{k < m} |a_k| (m/k)^sigma, increasing in sigma
            return mp.fsum(v * mp.power(mpf(m) / k, sigma) for k, v in mags.items() if k < m)

        beta = _solve_increasing(lambda s: -head_tail(s), -mags[1], bits)
        alpha = _solve_increasing(lead_rest, mags[m], bits)
    return StripBounds(alpha=alpha, beta=beta, no_zeros=False, precision_bits=bits)
