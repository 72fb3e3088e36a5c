"""Dirichlet polynomials and the profile/inverse operations built on them.

A polynomial is P(s) = sum a_k k^{-s}, k = 1..m, with a_1 != 0 and a_m != 0
(trailing zero coefficients are trimmed at construction). Coefficients are
stored as exact Gaussian rationals; evaluation happens at a requested binary
precision, while the convolution inverse and (when the shift exponent allows)
the kappa partial sums stay exact.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from mpmath import mp, mpc, mpf

from .errors import NonConvergent
from .exact import GaussianRational, as_fraction, fraction_to_mpf, to_mp
from .precision import resolve_bits, working

Scalar = Union[int, float, Fraction, complex, mpf, mpc, GaussianRational]

_NUM = r"[+-]?\d+(?:\.\d+)?(?:/\d+)?"
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
        return GaussianRational(Fraction(t))
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
        im = Fraction(im_part)
    return GaussianRational(Fraction(re_part), im)


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

    def to_json(self) -> dict:
        return {"coeffs": [[k, str(a.re), str(a.im)] for k, a in self.items()]}

    @classmethod
    def from_json(cls, obj) -> "DirichletPolynomial":
        if isinstance(obj, str):
            return cls.parse(obj)
        rows = obj["coeffs"] if isinstance(obj, dict) else obj
        entries: dict[int, GaussianRational] = {}
        for row in rows:
            k, re_v, im_v = row
            k = int(k)
            if k < 1 or k in entries:
                raise ValueError(f"bad coefficient index {k}")
            entries[k] = GaussianRational(as_fraction(re_v), as_fraction(im_v))
        if 1 not in entries:
            raise ValueError("coefficient list must define a_1")
        top = max(entries)
        return cls([entries.get(k, GaussianRational(0)) for k in range(1, top + 1)])

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


def dp_eval(P: DirichletPolynomial, s: Scalar, bits: Optional[int] = None):
    """P(s) at the given binary precision."""
    bits = resolve_bits(bits)
    with working(bits):
        return _mp_pair(_mp_terms(P), to_mp(s))[0]


# =========================================================================
# kappa profile
# =========================================================================

def _integer_root(n: int, q: int) -> Optional[int]:
    if n == 1:
        return 1
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
    """Step heights S_1..S_m of x -> kappa_r(x); S_j is the value on [j, j+1)."""

    r: Fraction
    S: tuple
    exact: bool
    precision_bits: Optional[int]

    @property
    def m(self) -> int:
        return len(self.S)

    @property
    def tail_value(self):
        """Constant value past x = m; equals P(r - 1/2)."""
        return self.S[-1]


def kappa_partial_sums(P: DirichletPolynomial, r, bits: Optional[int] = None) -> KappaProfile:
    r_q = as_fraction(r)
    e = Fraction(1, 2) - r_q

    factors: dict[int, Fraction] = {}
    exact = True
    for k, _ in P.items():
        f = _exact_power(k, e)
        if f is None:
            exact = False
            break
        factors[k] = f

    if exact:
        run = GaussianRational(0)
        S = []
        for k in range(1, P.m + 1):
            a = P.coeffs[k - 1]
            if a:
                run = run + a * factors[k]
            S.append(run)
        return KappaProfile(r=r_q, S=tuple(S), exact=True, precision_bits=None)

    bits = resolve_bits(bits)
    with working(bits):
        e_mp = fraction_to_mpf(e)
        run = mpf(0)
        S = []
        for k in range(1, P.m + 1):
            a = P.coeffs[k - 1]
            if a:
                run = run + to_mp(a) * mp.power(k, e_mp)
            S.append(run)
    return KappaProfile(r=r_q, S=tuple(S), exact=False, precision_bits=bits)


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


# =========================================================================
# formal Dirichlet inverse
# =========================================================================

@dataclass(frozen=True)
class InverseCoeffs:
    """mu(1..N) with sum_{d|n, d<=m} a_d mu(n/d) = [n == 1]; always exact."""

    mu: tuple
    N: int


def inverse_coeffs(P: DirichletPolynomial, N: int) -> InverseCoeffs:
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    a1 = P.coeffs[0]
    inv_a1 = GaussianRational(1) / a1
    mu = [GaussianRational(0)] * N
    mu[0] = inv_a1
    for n in range(2, N + 1):
        acc = GaussianRational(0)
        for d in range(2, min(P.m, n) + 1):
            if n % d == 0:
                a_d = P.coeffs[d - 1]
                if a_d:
                    acc = acc + a_d * mu[n // d - 1]
        if acc:
            mu[n - 1] = -inv_a1 * acc
    return InverseCoeffs(mu=tuple(mu), N=N)
