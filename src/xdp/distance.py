"""Approximation distances in L^2(0,1].

The generators are rho_k(x) = kappa_r(1/(k x)), step functions supported on
(0, 1/k]. Every inner product is a finite sum over the common breakpoint
partition, with exact rational breakpoints; when the kappa profile itself is
exact the Gram data is computed in Gaussian-rational arithmetic and rounded
once at the end.

d_{n,r}^2 = min_b || 1 - sum_{k<=n} b_k rho_k ||^2 = 1 - g* G^{-1} g. One
unpivoted LDL^H of G that carries z = L^{-1} g along gives the whole profile
n = 1..n_max as d_n^2 = 1 - sum_{i<=n} |z_i|^2 / p_i, which by the Schur
complement is the determinant ratio det(G_n - g g*)/det(G_n). The
factorization (``linalg.ldl_profile``) runs in fixed-point integers and
applies the same pivot audit as ``gram_system``: negligible pivots are
dropped, and an indeterminate one rebuilds the Gram data at doubled
precision. The pivoted ``projection`` solve stays as the independent check.

Since rho_a and rho_b live on (0, 1/max(a, b)], substituting y = d x gives
<rho_{da}, rho_{db}> = <rho_a, rho_b>/d and <1, rho_k> = <1, rho_1>/k, so
only coprime pairs are integrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from mpmath import mp, mpf

from .dpcore import DirichletPolynomial, KappaProfile, dp_eval, kappa_partial_sums
from .errors import NSingular, PrecisionExhausted
from .exact import GaussianRational, as_fraction, fraction_to_mpf, to_mp
from .linalg import LDLFactors, ldl_factor, ldl_profile, ldl_solve
from .precision import resolve_bits, working

_ESCALATION_LIMIT = 3
_PAIR_GUARD_BITS = 16


# =========================================================================
# inner products
# =========================================================================

def _pair_inner(prof: KappaProfile, j: int, k: int):
    """<rho_j, rho_k>; GaussianRational when the profile is exact, else mp."""
    m = prof.m
    S = prof.S
    top = Fraction(1, max(j, k))
    bot = Fraction(1, m * max(j, k))
    pts = sorted(p for p in ({Fraction(1, j * a) for a in range(1, m + 1)}
                             | {Fraction(1, k * a) for a in range(1, m + 1)})
                 if bot <= p <= top)
    if prof.exact:
        tail = S[m - 1] * S[m - 1].conjugate()
        total = tail * bot
        for lo, hi in zip(pts, pts[1:]):
            mid = (lo + hi) / 2
            a = min(int(1 / (j * mid)), m)
            b = min(int(1 / (k * mid)), m)
            total = total + S[a - 1] * S[b - 1].conjugate() * (hi - lo)
        return total
    # the step products have mixed signs: sum them with guard bits and round
    # once, so the entry is correctly rounded at the caller's precision
    with mp.extraprec(_PAIR_GUARD_BITS):
        total = S[m - 1] * mp.conj(S[m - 1]) * fraction_to_mpf(bot)
        for lo, hi in zip(pts, pts[1:]):
            mid = (lo + hi) / 2
            a = min(int(1 / (j * mid)), m)
            b = min(int(1 / (k * mid)), m)
            total = total + S[a - 1] * mp.conj(S[b - 1]) * fraction_to_mpf(hi - lo)
    return +total


def _indicator_inner_profile(prof: KappaProfile, k: int):
    """<rho_k, 1> = (1/k) [sum_{a<m} S_a (1/a - 1/(a+1)) + S_m / m]."""
    m = prof.m
    S = prof.S
    if prof.exact:
        total = S[m - 1] * Fraction(1, m)
        for a in range(1, m):
            total = total + S[a - 1] * (Fraction(1, a) - Fraction(1, a + 1))
        return total * Fraction(1, k)
    total = S[m - 1] / m
    for a in range(1, m):
        total = total + S[a - 1] * (fraction_to_mpf(Fraction(1, a) - Fraction(1, a + 1)))
    return total / k


# =========================================================================
# Gram system
# =========================================================================

@dataclass(frozen=True)
class GramSystem:
    """G[j][k] = <rho_{k+1}, rho_{j+1}>, g[k] = <1, rho_{k+1}>, mp entries."""

    n: int
    G: list
    g: list
    precision_bits: int
    min_pivot: mpf
    dropped: int
    factors: LDLFactors


def _build_gram(P: DirichletPolynomial, r, n: int, bits: int):
    """(G, g) at the given precision; exact intermediates when available.

    Only coprime pairs are integrated; <rho_{da}, rho_{db}> = <rho_a, rho_b>/d
    fills the rest by one division, exact on the Gaussian-rational path.
    """
    prof = kappa_partial_sums(P, r, bits=bits)
    with working(bits):
        G = [[mpf(0)] * n for _ in range(n)]
        coprime = {}
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                d = gcd(j, k)
                if d == 1:
                    v = coprime[j, k] = _pair_inner(prof, j, k)   # <rho_j, rho_k>
                elif prof.exact:
                    v = coprime[j // d, k // d] * Fraction(1, d)
                else:
                    v = coprime[j // d, k // d] / d
                if isinstance(v, GaussianRational):
                    v = to_mp(v)
                # G[row j][col k] = <rho_k, rho_j> = conj of the above
                G[j - 1][k - 1] = mp.conj(v)
                G[k - 1][j - 1] = v
        base = _indicator_inner_profile(prof, 1)  # <rho_1, 1>
        g = []
        for k in range(1, n + 1):
            v = base * Fraction(1, k) if prof.exact else base / k
            if isinstance(v, GaussianRational):
                v = to_mp(v)
            g.append(mp.conj(v))                  # <1, rho_k>
    return G, g


def gram_system(P: DirichletPolynomial, r, n: int, bits: Optional[int] = None) -> GramSystem:
    """Gram data plus a pivoted factorization, with precision escalation.

    Pivots below 2^{-p/2} * max_pivot are counted as dropped (numerically
    dependent generators). A pivot in the indeterminate band
    [2^{-p/2}, 2^{-p/4}) * max_pivot forces a retry at doubled precision,
    at most three times.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    cur = resolve_bits(bits)
    for _ in range(_ESCALATION_LIMIT + 1):
        G, g = _build_gram(P, r, n, cur)
        with working(cur):
            f = ldl_factor(G, pivot=True)
            max_p = max(f.d)
            min_p = min(f.d)
            if max_p <= 0:
                raise NSingular(0, max_p)
            drop_at = max_p * mpf(2) ** (-(cur // 2))
            band_at = max_p * mpf(2) ** (-(cur // 4))
            dropped = sum(1 for d in f.d if d < drop_at)
            indeterminate = any(drop_at <= d < band_at for d in f.d)
        if not indeterminate:
            return GramSystem(n=n, G=G, g=g, precision_bits=cur,
                              min_pivot=min_p, dropped=dropped, factors=f)
        cur *= 2
    raise PrecisionExhausted(
        f"Gram pivots stayed in the indeterminate band up to {cur // 2} bits")


# =========================================================================
# distances
# =========================================================================

@dataclass(frozen=True)
class DistanceResult:
    n: int
    r: Fraction
    d_squared: mpf
    method: str
    coeffs: Optional[list]
    precision_bits: int


def _clamp01(x):
    if x < 0:
        return mpf(0)
    if x > 1:
        return mpf(1)
    return x


def _audited_profile(P: DirichletPolynomial, r, n: int, bits: int,
                     G=None, g=None):
    """(G, g, LDLProfile, bits used) for the first n generators.

    Factors G with ``ldl_profile`` at ``bits``. A pivot in the indeterminate
    band rebuilds the Gram data at doubled precision, at most
    _ESCALATION_LIMIT times. A given (G, g), e.g. from the cache, replaces
    the first build.
    """
    cur = bits
    for _ in range(_ESCALATION_LIMIT + 1):
        if G is None:
            G, g = _build_gram(P, r, n, cur)
        with working(cur):
            prof = ldl_profile(G, g)
        if prof.band is None:
            return G, g, prof, cur
        G = None
        cur *= 2
    raise PrecisionExhausted(
        f"profile pivots stayed in the indeterminate band up to {cur // 2} bits")


def distance_squared(P: DirichletPolynomial, r, n: int, method: str = "det-ratio",
                     bits: Optional[int] = None) -> DistanceResult:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if method not in ("det-ratio", "projection"):
        raise ValueError(f"unknown method {method!r}")
    bits = resolve_bits(bits)
    r_q = as_fraction(r)
    if method == "projection":
        gs = gram_system(P, r, n, bits=bits)
        with working(gs.precision_bits):
            drop_at = max(gs.factors.d) * mpf(2) ** (-(gs.precision_bits // 2))
            x = ldl_solve(gs.factors, gs.g, drop_at=drop_at)
            inner = mp.fsum(mp.conj(gv) * xv for gv, xv in zip(gs.g, x))
            d2 = _clamp01(mp.re(mpf(1) - inner))
        return DistanceResult(n=n, r=r_q, d_squared=d2, method=method,
                              coeffs=x, precision_bits=gs.precision_bits)
    _, _, prof, used = _audited_profile(P, r, n, bits)
    return DistanceResult(n=n, r=r_q, d_squared=prof.d_squared[-1], method=method,
                          coeffs=None, precision_bits=used)


def distance_profile(P: DirichletPolynomial, r, n_max: int,
                     bits: Optional[int] = None) -> list:
    """d^2 for every n = 1..n_max from one Gram build and one factorization."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    bits = resolve_bits(bits)
    r_q = as_fraction(r)
    _, _, prof, used = _audited_profile(P, r, n_max, bits)
    return [DistanceResult(n=i + 1, r=r_q, d_squared=v, method="det-ratio",
                           coeffs=None, precision_bits=used)
            for i, v in enumerate(prof.d_squared)]


def approximant_distance(P: DirichletPolynomial, r, b: Sequence,
                         bits: Optional[int] = None):
    """|| 1 - sum b_k rho_k ||^2 = 1 - 2 Re(b* g) + b* G b for explicit b."""
    if not b:
        raise ValueError("coefficient vector is empty")
    bits = resolve_bits(bits)
    n = len(b)
    with working(bits):
        G, g = _build_gram(P, r, n, bits)
        bv = [to_mp(x) for x in b]
        cross = mp.fsum(mp.conj(bv[k]) * g[k] for k in range(n))
        quad = mp.fsum(mp.conj(bv[j]) * G[j][k] * bv[k]
                       for j in range(n) for k in range(n))
        return mp.re(mpf(1) - 2 * mp.re(cross) + quad)


def mellin_identity_residual(P: DirichletPolynomial, r, b: Sequence, s,
                             bits: Optional[int] = None):
    """| M[sum b_k rho_k](s) - P(s + r - 1/2)/s * sum b_k k^{-s} |, Re(s) > 0.

    The Mellin transform of each step generator telescopes to the shifted
    polynomial, so the residual is pure numeric noise; it is the cheapest
    end-to-end audit of profile, generators, and evaluation agreeing.
    """
    if not b:
        raise ValueError("coefficient vector is empty")
    bits = resolve_bits(bits)
    r_q = as_fraction(r)
    prof = kappa_partial_sums(P, r, bits=bits)
    m = P.m
    with working(bits):
        s_mp = to_mp(s)
        if not mp.re(s_mp) > 0:
            raise ValueError(f"Mellin identity needs Re(s) > 0, got {s}")
        S = [to_mp(v) if isinstance(v, GaussianRational) else v for v in prof.S]
        lhs = mpf(0)
        dirichlet = mpf(0)
        for k, bk in enumerate(b, start=1):
            bk = to_mp(bk)
            piece = S[m - 1] * mp.power(k * m, -s_mp)
            for a in range(1, m):
                piece = piece + S[a - 1] * (mp.power(k * a, -s_mp)
                                            - mp.power(k * (a + 1), -s_mp))
            lhs = lhs + bk * piece / s_mp
            dirichlet = dirichlet + bk * mp.power(k, -s_mp)
        shift = fraction_to_mpf(r_q - Fraction(1, 2))
        rhs = dp_eval(P, s_mp + shift, bits=bits) / s_mp * dirichlet
        return abs(lhs - rhs)
