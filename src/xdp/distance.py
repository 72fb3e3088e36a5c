"""Approximation distances in L^2(0,1].

The generators are rho_k(x) = kappa_r(1/(k x)), step functions supported on
(0, 1/k]. Every inner product is a finite sum over the common breakpoint
partition, and it is summed exactly in Python integers on every profile: a
step height S_a is a Gaussian rational (``kappa_partial_sums``), so
S_a = s_a/Q with s_a a Gaussian integer; over D = j k lcm(1..m)
every breakpoint 1/(j a), 1/(k b) is an integer. Each Gram entry is then one
rational number. It is rounded once, into the fixed point of ``exact``
relative to the largest diagonal entry G_11, and never to an mpf at the
working precision on the way.

d_{n,r}^2 = min_b || 1 - sum_{k<=n} b_k rho_k ||^2 = 1 - g* G^{-1} g. One
unpivoted LDL^H of G that carries z = L^{-1} g along gives the whole profile
n = 1..n_max as d_n^2 = 1 - sum_{i<=n} |z_i|^2 / p_i, which by the Schur
complement is the determinant ratio det(G_n - g g*)/det(G_n). The
factorization (``linalg.ldl_profile``) takes those integers as they are and
carries the one pivot audit (``linalg.audited_profile``): negligible pivots
are dropped, and an indeterminate one rebuilds the Gram data at doubled
precision. The ``projection`` check rounds the same integers to mpf at the
precision the audit settled on, only when asked for, and solves them with
mpmath's partially pivoted LU (``mp.lu_solve``): in its own arithmetic and
with no factorization of ours, it stays the independent check.

Since rho_a and rho_b live on (0, 1/max(a, b)], substituting y = d x gives
<rho_{da}, rho_{db}> = <rho_a, rho_b>/d and <1, rho_k> = <1, rho_1>/k, so
only coprime pairs are integrated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from mpmath import mp, mpf

from .dpcore import DirichletPolynomial, KappaProfile, dp_eval, kappa_partial_sums
from .exact import (GUARD_BITS, as_fraction, fixed_mpc, fixed_mpf, fixed_ratio,
                    fraction_to_mpf, to_mp)
from .linalg import audited_profile
from .precision import resolve_bits, working


# =========================================================================
# inner products, exact in integers
# =========================================================================

def _integer_profile(prof: KappaProfile):
    """(Q, L, s, prods) in Python ints: S_a = (s[a-1][0] + i s[a-1][1]) / Q,
    L = lcm(1..m) and prods[a-1][b-1] = s_a conj(s_b)."""
    Q = lcm(*(x.denominator for z in prof.S for x in (z.re, z.im)))
    s = [(z.re.numerator * (Q // z.re.denominator), z.im.numerator * (Q // z.im.denominator))
         for z in prof.S]
    prods = [[(ua * ub + va * vb, va * ub - ua * vb) for ub, vb in s] for ua, va in s]
    return Q, lcm(*range(1, len(s) + 1)), s, prods


def _pair_numerator(prods, L: int, j: int, k: int):
    """(re, im) with <rho_j, rho_k> = (re + i im) / (Q^2 j k L).

    With prods and L from ``_integer_profile``: over D = j k L the
    breakpoints 1/(j a) and 1/(k b) are k L/a and j L/b, and on (lo, hi]
    rho_j is S_a with a = min(k L // hi, m), rho_k is S_b with
    b = min(j L // hi, m).
    """
    m = len(prods)
    kL, jL = k * L, j * L
    top = min(kL, jL)
    pts = sorted({p for a in range(1, m + 1) for p in (kL // a, jL // a) if p <= top}
                 | {0}, reverse=True)
    re = im = 0
    for hi, lo in zip(pts, pts[1:]):
        pr, pi = prods[min(kL // hi, m) - 1][min(jL // hi, m) - 1]
        re += pr * (hi - lo)
        im += pi * (hi - lo)
    return re, im


def _indicator_numerator(s, L: int):
    """(re, im) with <rho_1, 1> = (re + i im) / (Q L)
    = sum_{a<m} S_a (1/a - 1/(a+1)) + S_m / m."""
    m = len(s)
    w = [L // a - L // (a + 1) for a in range(1, m)] + [L // m]
    return (sum(u * c for (u, _), c in zip(s, w)),
            sum(v * c for (_, v), c in zip(s, w)))


# =========================================================================
# Gram data
# =========================================================================

def _build_gram(P: DirichletPolynomial, r, n: int, bits: int):
    """(G, g, scale): the Gram data at ldl_profile's fixed point for ``bits``.

    G[k][j] = <rho_j, rho_k> and g[k] = <1, rho_k> as Gaussian integers
    (re, im), each one exact rational rounded once: G relative to 2^scale
    and g relative to 2^(scale/2). The even ``scale`` puts G_11 in
    [1/4, 2); G_11 is the largest diagonal entry, as G_jj = G_11 / j, and
    its numerator is summed before the rest. Only coprime pairs are summed;
    <rho_{dj}, rho_{dk}> is the same numerator over d times the denominator,
    and <1, rho_k> that of <1, rho_1> over k times it.
    """
    Q, L, s, prods = _integer_profile(kappa_partial_sums(P, r, bits=bits))
    coprime = {(1, 1): _pair_numerator(prods, L, 1, 1)}
    top = coprime[1, 1][0].bit_length() - (Q * Q * L).bit_length() + 1
    scale = top - (top & 1)
    shift = bits + GUARD_BITS - scale
    G = [[None] * n for _ in range(n)]
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            d = gcd(j, k)
            a, b = j // d, k // d
            if (a, b) not in coprime:
                coprime[a, b] = _pair_numerator(prods, L, a, b)
            re, im = coprime[a, b]
            den = Q * Q * a * b * L * d
            x, y = fixed_ratio(re, den, shift), fixed_ratio(im, den, shift)
            # G[row k][col j] = <rho_j, rho_k>, and its conjugate mirrored
            G[k - 1][j - 1], G[j - 1][k - 1] = (x, y), (x, -y)
    re, im = _indicator_numerator(s, L)
    g = [(fixed_ratio(re, Q * L * k, shift + scale // 2),                # <1, rho_k>
          -fixed_ratio(im, Q * L * k, shift + scale // 2)) for k in range(1, n + 1)]
    return G, g, scale


def _rounded_gram(G, g, scale: int, bits: int):
    """The Gram data of _build_gram rounded out of the fixed point, as mpf
    (mpc where the imaginary part is nonzero); only the projection check
    takes this form."""
    frac = bits + GUARD_BITS

    def entry(x, y, exp):
        return fixed_mpc(x, y, exp, bits) if y else fixed_mpf(x, exp, bits)
    return ([[entry(x, y, scale - frac) for x, y in row] for row in G],
            [entry(x, y, scale // 2 - frac) for x, y in g])


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


def _audited_profile(P: DirichletPolynomial, r, n: int, bits: int):
    """((G, g, scale), LDLProfile, bits used) for the first n generators.

    ``linalg.audited_profile`` factors the Gram data of _build_gram and
    rebuilds it at doubled precision while a pivot is in the indeterminate
    band. The pivots come back in the units of G, and the profile lets go
    of its integer factor.
    """
    system, prof, used = audited_profile(lambda p: _build_gram(P, r, n, p), bits)
    pivots = [mp.ldexp(v, system[2]) for v in prof.pivots]
    return system, replace(prof, pivots=pivots, solve=None), used


def distance_squared(P: DirichletPolynomial, r, n: int, method: str = "det-ratio",
                     bits: Optional[int] = None) -> DistanceResult:
    """d^2 for the first n generators at the audited precision.

    ``projection`` rounds the same Gram data to mpf and solves G x = g with
    mpmath's LU at the audited precision p (which pivots partially, at
    p + 10 bits); d^2 = 1 - Re g* x and coeffs = x. LU has no drop rule, so
    when the audit dropped a generator (a pivot below 2^{-p/2} of the
    largest) the projection raises NSingular with the smallest pivot.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if method not in ("det-ratio", "projection"):
        raise ValueError(f"unknown method {method!r}")
    r_q = as_fraction(r)
    system, prof, used = _audited_profile(P, r, n, resolve_bits(bits))
    if method == "det-ratio":
        return DistanceResult(n=n, r=r_q, d_squared=prof.d_squared[-1], method=method,
                              coeffs=None, precision_bits=used)
    singular = prof.singular()
    if singular is not None:
        raise singular
    with working(used):
        G, g = _rounded_gram(*system, used)
        x = list(mp.lu_solve(G, g))
        inner = mp.fsum(mp.conj(gv) * xv for gv, xv in zip(g, x))
        d2 = _clamp01(mp.re(mpf(1) - inner))
    return DistanceResult(n=n, r=r_q, d_squared=d2, method=method,
                          coeffs=x, precision_bits=used)


def distance_profile(P: DirichletPolynomial, r, n_max: int,
                     bits: Optional[int] = None) -> list:
    """d^2 for every n = 1..n_max from one Gram build and one factorization."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    bits = resolve_bits(bits)
    r_q = as_fraction(r)
    _, prof, used = _audited_profile(P, r, n_max, bits)
    return [DistanceResult(n=i + 1, r=r_q, d_squared=v, method="det-ratio",
                           coeffs=None, precision_bits=used)
            for i, v in enumerate(prof.d_squared)]


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
        S = [to_mp(v) for v in prof.S]
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
