"""Approximation distances in L^2(0,1].

The generators are rho_k(x) = kappa_r(1/(k x)), step functions supported on
(0, 1/k]. Since kappa_r(y) = sum_{u<=y} c_u with c_u = a_u u^{1/2-r}, each
rho_j = sum_u c_u 1_(0, 1/(j u)], and <1_(0,1/M], 1_(0,1/N]> = 1/max(M, N)
gives every inner product in closed form:

    <rho_j, rho_k> = sum_{u,v} c_u conj(c_v) / max(j u, k v),
    <rho_k, 1> = sum_u c_u / (k u).

The step heights S_a are Gaussian rationals (``kappa_partial_sums``), so
S_a = s_a/Q with s_a a Gaussian integer, and each u <= m divides
L = lcm(1..m), the product of the largest power of each prime p <= m that
is at most m (``_lcm_to``): every entry is one rational over Q^2 j k L, a
sum of s terms in Python integers for the s nonzero coefficients. It is
rounded once, into the fixed point of ``exact`` relative to the largest
diagonal entry G_11, and never to an mpf at the working precision on the
way.

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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

from mpmath import mp, mpf

from .dpcore import DirichletPolynomial, _spf_sieve, dp_eval, kappa_partial_sums
from .exact import (GUARD_BITS, as_fraction, fixed_mpc, fixed_mpf, fixed_ratio,
                    fraction_to_mpf, to_mp)
from .linalg import audited_profile
from .precision import resolve_bits, working


# =========================================================================
# Gram data, exact in integers
# =========================================================================

def _lcm_to(m: int) -> int:
    """lcm(1..m): the product over the primes p <= m (``_spf_sieve``) of the
    largest power of p that is at most m."""
    spf = _spf_sieve(m)

    def top(p):
        q = p
        while q * p <= m:
            q *= p
        return q
    return prod(top(p) for p in range(2, m + 1) if not spf[p])


def _build_gram(P: DirichletPolynomial, r, n: int, bits: int):
    """(G, g, scale): the Gram data at ldl_profile's fixed point for ``bits``.

    G[k][j] = <rho_j, rho_k> and g[k] = <1, rho_k> as Gaussian integers
    (re, im), each one exact rational rounded once: G relative to 2^scale
    and g relative to 2^(scale/2). The even ``scale`` puts G_11 in
    [1/4, 2); G_11 is the largest diagonal entry, as G_jj = G_11 / j, and
    its numerator is summed before the rest.

    With S_a = s_a / Q, Q the lcm of the step heights' denominators, and
    sigma_u = s_u - s_{u-1} over the support u_1 < ... < u_s, the numerator
    of <rho_j, rho_k> over Q^2 j k L is

        sum_u sigma_u [k (L/u) conj(s_a) + j T_{a+1}],   a = floor(j u / k),

    with s_a = sum_{v <= a} sigma_v and T_b = sum_{v >= b} conj(sigma_v) L/v,
    both read off the support; that of <rho_1, 1> over Q L is
    sum_u sigma_u L/u.
    """
    S = kappa_partial_sums(P, r, bits=bits).S
    Q = lcm(*(x.denominator for z in S for x in (z.re, z.im)))
    L = _lcm_to(len(S))
    # with i points of the support u_1 < ... < u_s at or below a,
    # s_a = head[i] and T_{a+1} = tail[i]; steps[i-1] = (sigma_{u_i}, L/u_i)
    support, steps, head = [], [], [(0, 0)]
    for u, z in enumerate(S, 1):
        s_u = (z.re.numerator * (Q // z.re.denominator),
               z.im.numerator * (Q // z.im.denominator))
        if s_u != head[-1]:
            support.append(u)
            steps.append((s_u[0] - head[-1][0], s_u[1] - head[-1][1], L // u))
            head.append(s_u)
    tail = [(0, 0)]
    for sr, si, w in reversed(steps):
        tail.append((tail[-1][0] + sr * w, tail[-1][1] - si * w))
    tail.reverse()

    def numerator(j, k):
        re = im = 0
        for u, (sr, si, w) in zip(support, steps):
            i = bisect_right(support, j * u // k)
            (hr, hi), (tr, ti) = head[i], tail[i]
            xr, xi = k * w * hr + j * tr, j * ti - k * w * hi
            re += sr * xr - si * xi
            im += sr * xi + si * xr
        return re, im

    top = numerator(1, 1)[0].bit_length() - (Q * Q * L).bit_length() + 1
    scale = top - (top & 1)
    shift = bits + GUARD_BITS - scale
    G = [[None] * n for _ in range(n)]
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            re, im = numerator(j, k)
            den = Q * Q * j * k * L
            x, y = fixed_ratio(re, den, shift), fixed_ratio(im, den, shift)
            # G[row k][col j] = <rho_j, rho_k>, and its conjugate mirrored
            G[k - 1][j - 1], G[j - 1][k - 1] = (x, y), (x, -y)
    re, im = tail[0][0], -tail[0][1]
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
    By Abel summation the transform of rho_k,
    sum_{a<m} S_a ((ka)^-s - (k(a+1))^-s) + S_m (km)^-s, is
    sum_u sigma_u (ku)^-s / s with sigma_u = S_u - S_{u-1}, taken exactly
    and summed over the support only.
    """
    if not b:
        raise ValueError("coefficient vector is empty")
    bits = resolve_bits(bits)
    r_q = as_fraction(r)
    S = kappa_partial_sums(P, r, bits=bits).S
    jumps = [(u, S[u - 1] - S[u - 2] if u > 1 else S[0]) for u, _ in P.items()]
    with working(bits):
        s_mp = to_mp(s)
        if not mp.re(s_mp) > 0:
            raise ValueError(f"Mellin identity needs Re(s) > 0, got {s}")
        sigma = [(u, to_mp(v)) for u, v in jumps]
        lhs = mpf(0)
        dirichlet = mpf(0)
        for k, bk in enumerate(b, start=1):
            bk = to_mp(bk)
            piece = mp.fsum(v * mp.power(k * u, -s_mp) for u, v in sigma)
            lhs = lhs + bk * piece / s_mp
            dirichlet = dirichlet + bk * mp.power(k, -s_mp)
        shift = fraction_to_mpf(r_q - Fraction(1, 2))
        rhs = dp_eval(P, s_mp + shift, bits=bits) / s_mp * dirichlet
        return abs(lhs - rhs)
