"""Orthonormal system and reproducing kernels in weighted L^2 on the line.

The measure is (1/2pi) dt / (1/4 + t^2). Against it the monomials x^{it}
integrate to min(x, 1/x)^{1/2}, and the differenced powers

    psi_1 = 1,   psi_n(t) = n^{1/2 - it} - (n-1)^{1/2 - it}   (n >= 2)

form an orthonormal family. K_n is the order-n reproducing kernel; the
min-norm problem interpolates 1 at a finite set of ordinates and its optimal
value 1^T H^{-1} 1 lower-bounds the approximation distances computed in
``distance`` when the ordinates come from zeros on the critical line. H goes
from its exact kernel sums to ``linalg.ldl_profile`` by one shift, with no
mpf matrix on the way, and passes the audit that every d^2 passes: a pivot
in the indeterminate band rebuilds H at doubled precision, and a dropped
pivot raises NSingular. The value and the coefficients come from the same
integer factorization.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import bernfrac, mp, mpc, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_cos_sin, mpf_log, mpf_mul,
                          mpf_shift, round_nearest, to_int)

from .errors import DuplicateOrdinates, NSingular, RemainderNotProven
from .exact import to_mp
from .linalg import _GUARD_BITS, audited_profile
from .precision import resolve_bits, working

_DUPLICATE_GUARD = "1e-9"


def psi_eval(n: int, t, bits: Optional[int] = None):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return mpf(1)
    bits = resolve_bits(bits)
    with working(bits):
        t_mp = to_mp(t)
        if t_mp == 0:
            return mp.sqrt(n) - mp.sqrt(n - 1)
        w = mpc(mpf(1) / 2, -t_mp)
        return mp.power(n, w) - mp.power(n - 1, w)


# Kernel sums run in fixed point: every quantity is an integer times 2^-P with
# P = bits + _GUARD, and sums of products are exact Python ints, rounded once
# per entry at the end. P depends on bits alone, so K_n(u, v) is the same
# integer whichever other ordinates or grid points share a pass.
#
# Error of the stream, in units 2^-P (the proof of the guard). A prime phase
# is cos/sin of t log p, correct to 2^-(P+6) before rounding, so
# |e_p - p^-it| <= 1. A composite k = p m takes round(e_p e_m), whose error
# is at most |e_p - p^-it| + |e_m - m^-it| + 1 (up to O(2^-P) terms); by
# induction on the number of prime factors, |e_k - k^-it| <= 2 log2 k. With
# floor(sqrt(k) 2^P) and one rounding, A_k = round(sqrt(k) e_k) is within
# 2 (log2 k + 1) sqrt(k) of sqrt(k) k^-it, so psi_k = A_k - A_{k-1} is within
# eta_k = 4 (log2 n + 1) sqrt(k): fixed-point subtraction adds nothing, at
# t = 0 too. Summed, ||eta||_2 <= 2 sqrt(2) (log2 n + 1) sqrt(n (n+1)) <= e
# with e = 3 (log2 n + 3) n. As psi_1 = 1, ||psi(t)||^2 = K_n(t, t) >= 1, and
# Cauchy-Schwarz bounds the error of a computed K_n(u, v) by
# (2 eps + eps^2) sqrt(K_n(u, u) K_n(v, v)), eps = e 2^-P. _GUARD = 64 keeps
# that below 2^-(bits+7) for n up to 2^48. It is ldl_profile's guard too, so
# 2^-P is the factorization's fixed point at bits, and the min-norm system
# enters it by one shift of the 2^-2P sums.
_GUARD = _GUARD_BITS


def _sqrt_fixed(k: int, P: int) -> int:
    """floor(sqrt(k) * 2^P), the sqrt(k) of the stream and of the audit."""
    return math.isqrt(k << (2 * P))


def _inner_terms(keys, P: int):
    """term(a, b) = sqrt(a) sqrt(b) <(a/b)^{it}>_w * 2^{4P} in integers.

    The weighted inner <x^{it}>_w = min(x, 1/x)^{1/2} enters as s_lo inv_hi,
    with s_k = _sqrt_fixed(k, P) and inv_k = 2^{2P} // s_k, so
    term(a, b) = s_a s_b s_lo inv_hi = c_hi q_lo with c_k = s_k inv_k and
    q_k = s_k^2: min(a, b) * 2^{4P} up to rounding, symmetric and exact, and
    <psi_n, psi_m> 2^{4P}
        = term(n, m) - term(n, m-1) - term(n-1, m) + term(n-1, m-1).
    """
    c, q = {0: 0}, {0: 0}
    for k in keys:
        if k > 0:
            s = _sqrt_fixed(k, P)
            c[k], q[k] = s * ((1 << 2 * P) // s), s * s

    def term(a, b):
        return c[a] * q[b] if a >= b else c[b] * q[a]
    return term


def psi_inner(n: int, m: int, bits: Optional[int] = None):
    """<psi_n, psi_m> in the weighted space; delta_{nm} up to rounding.

    The four terms are summed exactly and rounded once, to nearest, at bits.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need indices >= 1, got ({n}, {m})")
    bits = resolve_bits(bits)
    P = bits + _GUARD
    term = _inner_terms({n, m, n - 1, m - 1}, P)
    val = term(n, m) - term(n, m - 1) - term(n - 1, m) + term(n - 1, m - 1)
    return mp.make_mpf(_rounded(val, -4 * P, bits))


def psi_inner_max_deviation(n_max: int, bits: Optional[int] = None):
    """max_{n,m <= n_max} |<psi_n, psi_m> - delta_{nm}| on the stream's sqrt(k).

    Every pair is summed exactly from _inner_terms at P = bits + _GUARD, and
    the largest deviation is rounded once, to nearest, at bits. Exact
    arithmetic on exact square roots would give 0, so the value is how far
    the stream's fixed-point sqrt(k) keeps the psi_k from orthonormal.

    Bound. Write S = 2^P, s_k = sqrt(k) S - e_k with 0 <= e_k < 1, and
    c_k = s_k (S^2 // s_k) = S^2 - g_k with g_k = S^2 mod s_k, so
    0 <= g_k < s_k <= sqrt(k) S (s_k and inv_k are each within one unit).
    Rows n and n-1 share q_m = s_m^2 for m < n, so off the diagonal
        <psi_n, psi_m> S^4 = (g_{n-1} - g_n) (q_m - q_{m-1}),
    with |g_{n-1} - g_n| < sqrt(n) S and 0 < q_m - q_{m-1} <= S^2 + 2 sqrt(m) S:
    the deviation is below sqrt(n) 2^-P (1 + 2 sqrt(m) 2^-P). On the diagonal
        (<psi_n, psi_n> - 1) S^4 = S^2 (q_n - q_{n-1} - S^2)
                                   - g_n (q_n - q_{n-1}) + (g_n - g_{n-1}) q_{n-1},
    with |q_n - q_{n-1} - S^2| < 2 sqrt(n) S + 1 and q_{n-1} <= (n-1) S^2,
    so the deviation is below (n + 2) sqrt(n) 2^-P + 3n 2^-2P. Both are
    below 4 n_max^{3/2} 2^-P. The last diagonal term grows as n^{3/2}, and
    it dominates: at 256 bits the audit reads about 2^-308.5 at n_max = 250
    and 2^-307.0 at n_max = 500, against bounds 2^-306.0 and 2^-304.5.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    bits = resolve_bits(bits)
    P = bits + _GUARD
    term = _inner_terms(range(n_max + 1), P)
    one = 1 << (4 * P)
    # Row n of the four-term formula reads term(n, 0..n) and
    # term(n-1, 0..n); by symmetry the previous row plus
    # term(n-1, n) = term(n, n-1) covers the second half.
    worst = 0
    prev = [0]
    for n in range(1, n_max + 1):
        cur = [term(n, m) for m in range(n + 1)]
        prev.append(cur[n - 1])
        for m in range(1, n + 1):
            val = cur[m] - cur[m - 1] - prev[m] + prev[m - 1]
            dev = abs(val - one) if n == m else abs(val)
            if dev > worst:
                worst = dev
        prev = cur
    return mp.make_mpf(_rounded(worst, -4 * P, bits))


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


def _prime_phase(t, p: int, P: int):
    """p^{-it} * 2^P rounded to Gaussian integers; t is a raw mpf.

    t log p is formed at P + 8 bits beyond its own magnitude (log p < 2^6
    for p < e^64), so cos/sin see it to 2^-(P+7) however large t is.
    """
    _, man, exp, bc = t
    if not man:
        return 1 << P, 0
    wp = P + 8 + max(0, exp + bc + 6)
    theta = mpf_mul(t, mpf_log(from_int(p), wp, round_nearest), wp, round_nearest)
    c, s = mpf_cos_sin(theta, P + 8, round_nearest)
    return (to_int(mpf_shift(c, P), round_nearest),
            -to_int(mpf_shift(s, P), round_nearest))


def _phases(n: int, t, P: int, spf):
    """e_k = k^{-it} * 2^P as Gaussian integers (re, im), k = 1..n.

    Primes (and k = 1) take _prime_phase; a composite k = p m, p = spf[k],
    takes e_p e_m rounded once. m <= n // 2 and p <= sqrt(n), so the table
    keeps e_m for m <= n // 2 only.
    """
    keep = n // 2
    half = 1 << (P - 1)
    re, im = [0], [0]
    for k in range(1, n + 1):
        p = spf[k]
        if not p:
            x, y = _prime_phase(t, k, P)
        else:
            a, b, c, d = re[p], im[p], re[k // p], im[k // p]
            x = (a * c - b * d + half) >> P
            y = (a * d + b * c + half) >> P
        if k <= keep:
            re.append(x)
            im.append(y)
        yield x, y


def _psi_stream(n: int, ts, P: int):
    """[psi_k(t) * 2^P for t in ts] for k = 1..n, as Gaussian integers.

    psi_k = A_k - A_{k-1} with A_k = round(sqrt(k) e_k), and sqrt(k) * 2^P
    is _sqrt_fixed(k, P). At t = 0, e_k = 2^P exactly. Every kernel sum reads
    this one stream.
    """
    spf = _spf_sieve(n)
    half = 1 << (P - 1)
    prev = [(0, 0)] * len(ts)
    for k, es in enumerate(zip(*[_phases(n, t._mpf_, P, spf) for t in ts]), 1):
        s = _sqrt_fixed(k, P)
        cur = [((s * x + half) >> P, (s * y + half) >> P) for x, y in es]
        yield [(a - c, b - d) for (a, b), (c, d) in zip(cur, prev)]
        prev = cur


def _rounded(man: int, exp: int, bits: int):
    """Raw mpf of man * 2^exp, rounded once, to nearest, at bits."""
    return from_man_exp(man, exp, bits, round_nearest)


def _kernel_sums(grid: Sequence[int], ts, bits: int):
    """(n, S) at each n of an increasing grid, from one pass of the stream.

    S[i][j] = (re, im) with (re + i im) 2^{-2P} = K_n(t_i, t_j), summed
    exactly as Sigma (a_r b_r + a_i b_i) and Sigma (a_i b_r - a_r b_i) over
    the stream; the diagonal is the real Sigma (a_r^2 + a_i^2), and the
    lower triangle is the conjugate of the upper.
    """
    P = bits + _GUARD
    l = len(ts)
    re = [[0] * l for _ in range(l)]
    im = [[0] * l for _ in range(l)]
    targets = iter(grid)
    target = next(targets)
    for k, psi in enumerate(_psi_stream(grid[-1], ts, P), 1):
        for i, (ar, ai) in enumerate(psi):
            rr, ri = re[i], im[i]
            rr[i] += ar * ar + ai * ai
            for j in range(i + 1, l):
                br, bi = psi[j]
                rr[j] += ar * br + ai * bi
                ri[j] += ai * br - ar * bi
        if k == target:
            yield k, [[(re[i][j], im[i][j]) if i <= j else (re[j][i], -im[j][i])
                       for j in range(l)] for i in range(l)]
            target = next(targets, None)


def _rounded_kernel(S, bits: int):
    """H[i][j] = K_n(t_i, t_j) from the sums, mpf on the diagonal and mpc
    off it, each part rounded once, to nearest, at bits."""
    P = bits + _GUARD
    return [[mp.make_mpf(_rounded(x, -2 * P, bits)) if i == j
             else mp.make_mpc((_rounded(x, -2 * P, bits), _rounded(y, -2 * P, bits)))
             for j, (x, y) in enumerate(row)] for i, row in enumerate(S)]


def _fixed_kernel(S, bits: int):
    """(H, 1) at ldl_profile's fixed point for bits, 2^-P: each part of the
    sums shifted once, to nearest. H is at least 1 on its diagonal
    (psi_1 = 1), so 2^-P needs no scale."""
    P = bits + _GUARD
    half = 1 << (P - 1)
    return ([[((x + half) >> P, (y + half) >> P) for x, y in row] for row in S],
            [(1 << P, 0)] * len(S))


def _ordinate(x):
    t = to_mp(x)
    if isinstance(t, mpc):
        raise ValueError(f"ordinates must be real, got {t}")
    return t


def kernel(n: int, u, v, bits: Optional[int] = None):
    """K_n(u, v) = sum_{k<=n} psi_k(u) conj(psi_k(v))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    bits = resolve_bits(bits)
    with working(bits):
        u_mp, v_mp = _ordinate(u), _ordinate(v)
        ts = [u_mp] if u_mp == v_mp else [u_mp, v_mp]
        return _rounded_kernel(next(_kernel_sums([n], ts, bits))[1], bits)[0][-1]


@dataclass(frozen=True)
class KernelMatrix:
    n: int
    t: tuple
    H: list


def _kernel_grid(grid: Sequence[int], t: Sequence, bits: int):
    """(ordinates, _kernel_sums over them), once the grid and the ordinates
    pass their checks.

    S at each n of the grid is the one a call for that n alone gives: the
    stream does not depend on where it stops.
    """
    if grid[0] < 1:
        raise ValueError(f"need n >= 1, got {grid[0]}")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("n grid must be strictly increasing")
    if not t:
        raise ValueError("ordinate list is empty")
    with working(bits):
        t_mp = tuple(_ordinate(x) for x in t)
        guard = mpf(_DUPLICATE_GUARD)
        for i in range(len(t_mp)):
            for j in range(i + 1, len(t_mp)):
                if abs(t_mp[i] - t_mp[j]) < guard:
                    raise DuplicateOrdinates(
                        f"ordinates {i} and {j} closer than {_DUPLICATE_GUARD}")
    return t_mp, _kernel_sums(grid, t_mp, bits)


def kernel_matrix(n: int, t: Sequence, bits: Optional[int] = None) -> KernelMatrix:
    """H[i][j] = K_n(t_i, t_j) over distinct real ordinates."""
    bits = resolve_bits(bits)
    t_mp, sums = _kernel_grid([n], t, bits)
    return KernelMatrix(n=n, t=t_mp, H=_rounded_kernel(next(sums)[1], bits))


@dataclass(frozen=True)
class MinNormSolution:
    value: mpf
    coeffs: Optional[list]
    n: int
    t: tuple


def _min_norms(grid: Sequence[int], t: Sequence, bits: int, with_coeffs: bool = False):
    """At each n of an increasing grid, from one pass of the stream, what
    min_norm(n, t, bits) returns, or the NSingular it raises.

    H enters ``linalg.audited_profile`` as its sums shifted to the fixed
    point: a pivot in the band rebuilds H from a new pass at doubled
    precision, and a dropped pivot gives NSingular with the smallest pivot.
    value = 1^T H^{-1} 1 is the factorization's unclamped sum of
    |z_i|^2 / p_i, rounded once at bits. Each coefficient conj(psi_k) . x,
    with x = H^{-1} 1 by back-substitution in the same integers, is summed
    exactly against the stream at the audited precision and rounded once.
    """
    ts, sums = _kernel_grid(grid, t, bits)
    for n, S in sums:

        def build(p):
            return _fixed_kernel(S if p == bits else next(_kernel_sums([n], ts, p))[1], p)

        _, prof, used = audited_profile(build, bits)
        if prof.dropped:
            i = min(range(len(prof.pivots)), key=prof.pivots.__getitem__)
            yield NSingular(i, prof.pivots[i])
            continue
        P = used + _GUARD
        coeffs = None
        if with_coeffs:
            xs = prof.solve()
            coeffs = []
            for psi in _psi_stream(n, ts, P):
                cr = sum(pr * xr + pi * xi for (pr, pi), (xr, xi) in zip(psi, xs))
                ci = sum(pr * xi - pi * xr for (pr, pi), (xr, xi) in zip(psi, xs))
                coeffs.append(mp.make_mpc((_rounded(cr, -2 * P, bits),
                                           _rounded(ci, -2 * P, bits))))
        yield MinNormSolution(value=mp.make_mpf(_rounded(prof.inner, -P, bits)),
                              coeffs=coeffs, n=n, t=ts)


def min_norm(n: int, t: Sequence, bits: Optional[int] = None,
             with_coeffs: bool = False) -> MinNormSolution:
    """Least-norm coefficients with sum_k c_k psi_k(t_i) = 1 at each ordinate.

    The optimum is value = 1^T H^{-1} 1; it lower-bounds the squared
    approximation distances whenever the t_i are ordinates of critical-line
    zeros and H is the corresponding kernel matrix. H passes the d^2 pivot
    audit: a pivot below 2^{-p/2} of the largest raises NSingular.
    """
    sol = next(_min_norms([n], t, resolve_bits(bits), with_coeffs))
    if isinstance(sol, NSingular):
        raise sol
    return sol


# K_n(0, 0) = sum_{k<=n} f(k) with f(x) = (sqrt(x) - sqrt(x-1))^2: terms up to
# the start a are added one by one, the rest comes from Euler-Maclaurin on the
# Laurent series of f. Correction term p is about (2p-1)!/(2 pi a)^{2p}, so
# _EM_MAX_TERMS terms from a = _EM_START reach about 2160 bits, and each
# doubling of a adds 400 bits. Up to _EM_FIXED_BITS the start stays at
# _EM_START; beyond, it grows by 2^{(bits - _EM_FIXED_BITS)/400}.
_EM_START = 1000
_EM_FIXED_BITS = 2048
_EM_GUARD = 32
_EM_MAX_TERMS = 200


def _em_start(bits: int) -> int:
    if bits <= _EM_FIXED_BITS:
        return _EM_START
    return math.ceil(_EM_START * 2 ** ((bits - _EM_FIXED_BITS) / 400))


def _laurent_sum(x, r: int, tol):
    """sum_j c_j binom(j+r-1, r) x^{-(j+r)}, where f(x) = sum_{j>=1} c_j x^{-j}.

    1 - sqrt(1-y) = sum a_m y^m with a_1 = 1/2, a_{m+1}/a_m = (2m-1)/(2m+2),
    and (1 - sqrt(1-y))^2 = 2(1 - sqrt(1-y)) - y, so f(x) = x (1 - sqrt(1-1/x))^2
    has c_j = 2 a_{j+1}: c_1 = 1/4, c_{j+1}/c_j = (2j+1)/(2j+4), all positive.
    For r >= 0 the sum is |f^(r)(x)|/r!. For r = -1 it runs over j >= 2 with
    weight 1/(j-1) and equals (1/4) log x minus an antiderivative of f.
    Every later term ratio is below q = (j + max(r, 0))/(j x), so the sum
    stops once the tail bound term/(1-q) is under tol times the partial sum.
    """
    j = 1 if r >= 0 else 2
    term = (1 / x) ** (r + 1) / 4 if r >= 0 else 1 / (8 * x)
    acc = mpf(0)
    while True:
        q = (j + max(r, 0)) / (j * x)
        if q < 1 and term <= tol * acc * (1 - q):
            return acc
        acc += term
        term = term * ((2 * j + 1) * (j + r)) / ((2 * j + 4) * j * x)
        j += 1


def _em_tail(head, start: int, n: int, bits: int):
    """sum_{start < k <= n} f(k) by Euler-Maclaurin; head = K_start(0, 0).

    Every c_j > 0, so f is completely monotone on x > 1 and its even
    derivatives are positive. The remainder after p correction terms then
    has the sign of the first omitted term and is no larger, so the sum
    stops at the first term below 2^-(bits+8) times the running total.
    """
    with working(bits + _EM_GUARD):
        tol = mpf(2) ** -(bits + 16)
        stop = mpf(2) ** -(bits + 8)
        a, b = mpf(start), mpf(n)

        def f(x):
            return 1 / (mp.sqrt(x) + mp.sqrt(x - 1)) ** 2

        tail = (mp.log(b / a) / 4 + _laurent_sum(a, -1, tol) - _laurent_sum(b, -1, tol)
                + (f(b) - f(a)) / 2)
        for p in range(1, _EM_MAX_TERMS + 1):
            num, den = bernfrac(2 * p)
            term = (mpf(num) / (2 * p * den)
                    * (_laurent_sum(a, 2 * p - 1, tol) - _laurent_sum(b, 2 * p - 1, tol)))
            if abs(term) < stop * (head + tail):
                return tail
            tail += term
    raise RemainderNotProven(
        f"Euler-Maclaurin term {_EM_MAX_TERMS} for K_{n}(0, 0) still above 2^-{bits + 8}")


@dataclass(frozen=True)
class KernelAsymptoticsRow:
    n: int
    value: mpf
    ratio: mpf


def kernel_asymptotics_report(u, n_grid: Sequence[int],
                              bits: Optional[int] = None) -> list:
    """K_n(u, u) and K_n(u, u)/((1/4) log n) along an increasing n grid.

    At u = 0 the terms f(k) = (sqrt(k) - sqrt(k-1))^2 are summed directly
    up to k = 1000 (later beyond 2048 bits, see _em_start), and the rest by
    Euler-Maclaurin with the integral and odd derivatives of f taken from
    its Laurent series at infinity. f is completely monotone, so the first
    omitted correction term bounds the remainder; the sum stops once that
    term is below 2^-(bits+8) times the value, and raises RemainderNotProven
    if no term within the cap gets there. Otherwise the terms |psi_k(u)|^2
    are summed directly up to the largest n.
    """
    grid = [int(n) for n in n_grid]
    if not grid or any(n < 2 for n in grid) or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing with entries >= 2")
    bits = resolve_bits(bits)
    targets = set(grid)
    rows = []

    def add_row(k, value):
        rows.append(KernelAsymptoticsRow(n=k, value=value, ratio=value / (mp.log(k) / 4)))

    with working(bits):
        u_mp = _ordinate(u)
        head = grid[-1] if u_mp != 0 else min(grid[-1], _em_start(bits))
        for k, S in _kernel_sums(sorted({n for n in grid if n < head} | {head}),
                                 [u_mp], bits):
            acc = _rounded_kernel(S, bits)[0][0]
            if k in targets:
                add_row(k, acc)
        for n in grid:
            if n > head:
                add_row(n, acc + _em_tail(acc, head, n, bits))
    return rows
