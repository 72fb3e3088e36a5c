"""Orthonormal system and reproducing kernels in weighted L^2 on the line.

The measure is (1/2pi) dt / (1/4 + t^2). Against it the monomials x^{it}
integrate to min(x, 1/x)^{1/2}, and the differenced powers

    psi_1 = 1,   psi_n(t) = n^{1/2 - it} - (n-1)^{1/2 - it}   (n >= 2)

form an orthonormal family. K_n is the order-n reproducing kernel; the
min-norm problem interpolates 1 at a finite set of ordinates and its optimal
value 1^T H^{-1} 1 lower-bounds the approximation distances computed in
``distance`` when the ordinates come from zeros on the critical line. H goes
from its exact kernel sums (the fixed point of ``exact``) to
``linalg.ldl_profile`` by one shift, with no mpf matrix on the way, and
passes the audit that every d^2 passes: a pivot in the indeterminate band
rebuilds H at doubled precision, and a dropped pivot raises NSingular. The
value, the coefficients and the interpolation residual come from the same
integer factorization; the residual is max_i |(S x)_i - 1| on the kernel
sums S themselves, with no second pass over psi. The kernel sums are exact
integers: each block of stream rows is summed in one float64 product of
16-bit limbs, exact by its size bound (_kernel_sums).

The diagonal K_n(u, u) = sum_k |psi_k(u)|^2 takes one path at every u: the
stream sums it up to a start that grows with bits and |u|, and
Euler-Maclaurin on the Laurent series of |x^w - (x-1)^w|^2, w = 1/2 - iu,
adds the rest, with a remainder proven from a majorant of the coefficients
(see kernel_asymptotics_report). That is what lets the asymptotics
K_n(u, u) ~ (1/4 + u^2) log n be followed to n = 10^12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np
from mpmath import bernfrac, mp, mpc, mpf
from mpmath.libmp import from_int, mpf_shift, mpf_sqrt, round_nearest

from .dpcore import _prime_phase, _spf_sieve
from .errors import DuplicateOrdinates, NSingular, RemainderNotProven
from .exact import GUARD_BITS, fixed_mpc, fixed_mpf, to_mp
from .linalg import audited_profile
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


# Kernel sums run in the fixed point of ``exact``: every quantity is an integer
# times 2^-P, P = bits + GUARD_BITS, and sums of products are exact Python
# ints, rounded once per entry at the end. P depends on bits alone, so K_n(u, v)
# is the same integer whichever other ordinates or grid points share a pass.
#
# Error of the stream, in units 2^-P (the proof of the guard). A prime phase
# is cos/sin of t log p rounded to nearest (dpcore._prime_phase), half a unit
# in each part, so |e_p - p^-it| <= 1/sqrt(2). A composite k = p m takes
# round(e_p e_m), whose error is at most |e_p - p^-it| + |e_m - m^-it| +
# 1/sqrt(2) (up to O(2^-P) terms); by induction on the number of prime
# factors, |e_k - k^-it| <= sqrt(2) log2 k <= 2 log2 k. With
# floor(sqrt(k) 2^P) and one rounding, A_k = round(sqrt(k) e_k) is within
# 2 (log2 k + 1) sqrt(k) of sqrt(k) k^-it, so psi_k = A_k - A_{k-1} is within
# eta_k = 4 (log2 n + 1) sqrt(k): fixed-point subtraction adds nothing, at
# t = 0 too. Summed, ||eta||_2 <= 2 sqrt(2) (log2 n + 1) sqrt(n (n+1)) <= e
# with e = 3 (log2 n + 3) n. As psi_1 = 1, ||psi(t)||^2 = K_n(t, t) >= 1, and
# Cauchy-Schwarz bounds the error of a computed K_n(u, v) by
# (2 eps + eps^2) sqrt(K_n(u, u) K_n(v, v)), eps = e 2^-P. GUARD_BITS = 64
# keeps that below 2^-(bits+7) for n up to 2^48, and the min-norm system enters
# ldl_profile, whose fixed point is 2^-P too, by one shift of the 2^-2P sums.


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
    P = bits + GUARD_BITS
    term = _inner_terms({n, m, n - 1, m - 1}, P)
    val = term(n, m) - term(n, m - 1) - term(n - 1, m) + term(n - 1, m - 1)
    return fixed_mpf(val, -4 * P, bits)


def psi_inner_max_deviation(n_max: int, bits: Optional[int] = None):
    """max_{n,m <= n_max} |<psi_n, psi_m> - delta_{nm}| on the stream's sqrt(k).

    Every pair is summed exactly from _inner_terms at P = bits + GUARD_BITS,
    and the largest deviation is rounded once, to nearest, at bits. Exact
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
    P = bits + GUARD_BITS
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
    return fixed_mpf(worst, -4 * P, bits)


def _phases(n: int, t, P: int, spf, logs: Optional[dict] = None):
    """e_k = k^{-it} * 2^P as Gaussian integers (re, im), k = 1..n.

    Primes (and k = 1) take _prime_phase, with the prime logs in ``logs``;
    a composite k = p m, p = spf[k], takes e_p e_m rounded once. m <= n // 2
    and p <= sqrt(n), so the table keeps e_m for m <= n // 2 only.
    """
    keep = n // 2
    half = 1 << (P - 1)
    re, im = [0], [0]
    for k in range(1, n + 1):
        p = spf[k]
        if not p:
            x, y = _prime_phase(t, k, P, logs)
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
    this one stream. The ordinates run in lockstep and share one dict of
    prime logs, so each log p is formed once per pass.
    """
    spf = _spf_sieve(n)
    logs = {}
    half = 1 << (P - 1)
    prev = [(0, 0)] * len(ts)
    for k, es in enumerate(zip(*[_phases(n, t._mpf_, P, spf, logs) for t in ts]), 1):
        s = _sqrt_fixed(k, P)
        cur = [((s * x + half) >> P, (s * y + half) >> P) for x, y in es]
        yield [(a - c, b - d) for (a, b), (c, d) in zip(cur, prev)]
        prev = cur


# The limb product of _kernel_sums: limbs of _LIMB bits, blocks of at most
# _ROWS stream rows, and psi parts of at most _MAX_LIMBS limbs; the asserts
# are the bounds its docstring proves exactness from.
_LIMB = 16
_ROWS = 1 << 10
_MAX_LIMBS = 1 << 19
assert _ROWS <= 1 << 16 and _ROWS << (2 * _LIMB) <= 1 << 48
assert 2 * _MAX_LIMBS * _ROWS << (2 * _LIMB) <= 1 << 62


def _limb_ints(D) -> list:
    """[sum_d D[e, d] 2^(16 d) for each row e] as Python ints, from int64 D.

    Carries run across d in int64 (|carry| stays below 2^47), leaving
    digits in [0, 2^16) and one signed top carry per row."""
    rows, nd = D.shape
    digits = np.empty((rows, nd), dtype="<u2")
    carry = np.zeros(rows, dtype=np.int64)
    for d in range(nd):
        v = D[:, d] + carry
        digits[:, d] = v & 0xFFFF
        carry = v >> _LIMB
    buf, width, top = digits.tobytes(), 2 * nd, _LIMB * nd
    return [int.from_bytes(buf[e * width:(e + 1) * width], "little") + (c << top)
            for e, c in enumerate(carry.tolist())]


def _block_sums(rows, upper) -> list:
    """[re..., im...] of sum_k psi_k(t_i) conj(psi_k(t_j)) 2^{2P} over a
    block of stream rows, exact, for the pairs i <= j listed in ``upper``
    (numpy's triu_indices order): re = sum (a_r b_r + a_i b_i) and
    im = sum (a_i b_r - a_r b_i), one float64 product X^T X per block."""
    B, l = len(rows), len(rows[0])
    flat = [x for psi in rows for z in psi for x in z]
    W = (max(map(int.bit_length, flat)) + _LIMB) // _LIMB
    if W > _MAX_LIMBS:
        raise ValueError(f"psi parts of {_LIMB * W} bits exceed the limb bound of the sums")
    u = np.frombuffer(b"".join([x.to_bytes(2 * W, "little", signed=True) for x in flat]),
                      dtype="<u2").reshape(B, 2 * l, W)
    X = u.astype(np.float64)
    X[..., -1] -= (u[..., -1] >> 15) * 65536.0
    X = X.reshape(B, 2 * l * W)
    M = (X.T @ X).astype(np.int64).reshape(2 * l, W, 2 * l, W)
    D = np.zeros((2 * l, 2 * l, 2 * W - 1), dtype=np.int64)
    for v in range(W):
        D[:, :, v:v + W] += M[:, v]
    re = D[0::2, 0::2] + D[1::2, 1::2]
    im = D[1::2, 0::2] - D[0::2, 1::2]
    return _limb_ints(np.concatenate([re[upper], im[upper]]))


def _kernel_sums(grid: Sequence[int], ts, bits: int):
    """(n, S) at each n of an increasing grid, from one pass of the stream.

    S[i][j] = (re, im) with (re + i im) 2^{-2P} = K_n(t_i, t_j), summed
    exactly as Sigma (a_r b_r + a_i b_i) and Sigma (a_i b_r - a_r b_i) over
    the stream; the diagonal is the real Sigma (a_r^2 + a_i^2), and the
    lower triangle is the conjugate of the upper.

    The stream is taken in blocks of at most _ROWS rows, a block also ending
    at each n of the grid, and each block is summed in one float64 product
    (_block_sums). X has one row per k and one column per limb of each part
    of each psi_k(t_i) 2^P, written in two's complement as W limbs of 16
    bits: the low limbs in [0, 2^16), the top one signed in [-2^15, 2^15),
    with W the fewest that hold the block's largest part.
    - Exact. Each limb product is below 2^32 in size, so with B <= _ROWS
      <= 2^16 rows every partial sum of X^T X, in any order and on any BLAS
      thread count, is an integer below 2^48 < 2^53: float64 holds each one
      exactly, and the product is the same integers on every run.
    - int64. Folding the anti-diagonals u + v = d of a W x W limb block adds
      at most W such sums, and re = rr + ii or im = ir - ri doubles that:
      below 2 W _ROWS 2^32 <= 2^62 for W <= _MAX_LIMBS, psi parts of up to
      2^23 bits. Carries then run in int64 (_limb_ints), and
      sum_d D_d 2^(16 d) is one Python int per entry per block.
    So S is exactly the sum the pair loop over the stream gives.
    """
    P = bits + GUARD_BITS
    l = len(ts)
    upper = np.triu_indices(l)
    pairs = list(zip(*(a.tolist() for a in upper)))
    acc = [0] * (2 * len(pairs))
    targets = iter(grid)
    target = next(targets)
    rows = []
    for k, psi in enumerate(_psi_stream(grid[-1], ts, P), 1):
        rows.append(psi)
        if k != target and len(rows) < _ROWS:
            continue
        acc = [a + b for a, b in zip(acc, _block_sums(rows, upper))]
        rows = []
        if k == target:
            S = [[None] * l for _ in range(l)]
            for (i, j), x, y in zip(pairs, acc, acc[len(pairs):]):
                S[i][j], S[j][i] = (x, y), (x, -y)
            yield k, S
            target = next(targets, None)


def _rounded_kernel(S, bits: int):
    """H[i][j] = K_n(t_i, t_j) out of the fixed point, mpf on the diagonal."""
    P = bits + GUARD_BITS
    return [[fixed_mpf(x, -2 * P, bits) if i == j else fixed_mpc(x, y, -2 * P, bits)
             for j, (x, y) in enumerate(row)] for i, row in enumerate(S)]


def _fixed_kernel(S, bits: int):
    """(H, 1) at ldl_profile's fixed point for bits, 2^-P: each part of the
    sums shifted once, to nearest. H is at least 1 on its diagonal
    (psi_1 = 1), so 2^-P needs no scale."""
    P = bits + GUARD_BITS
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
    """value = 1^T H^{-1} 1, and residual = max_i |sum_k c_k psi_k(t_i) - 1|
    for the exact coefficients of x = H^{-1} 1; both rounded once at bits.
    coeffs, those coefficients rounded once each, only on request."""

    value: mpf
    residual: mpf
    coeffs: Optional[list]
    n: int
    t: tuple


def _interp_residual(S, xs, P: int, bits: int):
    """max_i |(S x)_i - 1| from the kernel sums S at 2^-2P and x at 2^-P.

    S_ij = sum_k psi_k(t_i) conj(psi_k(t_j)) exactly, so (S x)_i is
    sum_k c_k psi_k(t_i) for c_k = sum_j conj(psi_k(t_j)) x_j: the
    interpolation residual of the coefficients, an exact Gaussian integer at
    2^-3P. The largest modulus is rounded once, to nearest, at bits.
    """
    one = 1 << (3 * P)
    worst = 0
    for row in S:
        re = sum(a * xr - b * xi for (a, b), (xr, xi) in zip(row, xs)) - one
        im = sum(a * xi + b * xr for (a, b), (xr, xi) in zip(row, xs))
        worst = max(worst, re * re + im * im)
    return mp.make_mpf(mpf_shift(mpf_sqrt(from_int(worst), bits, round_nearest), -3 * P))


def _min_norms(grid: Sequence[int], t: Sequence, bits: int, with_coeffs: bool = False):
    """At each n of an increasing grid, from one pass of the stream, what
    min_norm(n, t, bits) returns, or the NSingular it raises.

    H enters ``linalg.audited_profile`` as its sums shifted to the fixed
    point: a pivot in the band rebuilds H from a new pass at doubled
    precision, with its own sums, and a dropped pivot gives NSingular with
    the smallest pivot. value = 1^T H^{-1} 1 is the factorization's
    unclamped sum of |z_i|^2 / p_i, rounded once at bits. x = H^{-1} 1 comes
    by back-substitution in the same integers, and the residual from x and
    the sums of the audited build (_interp_residual). Each coefficient
    conj(psi_k) . x is summed exactly against the stream at the audited
    precision and rounded once.
    """
    ts, sums = _kernel_grid(grid, t, bits)
    for n, S in sums:

        def build(p):
            Sp = S if p == bits else next(_kernel_sums([n], ts, p))[1]
            return (*_fixed_kernel(Sp, p), Sp)

        (_, _, S_used), prof, used = audited_profile(build, bits)
        if prof.dropped:
            i = min(range(len(prof.pivots)), key=prof.pivots.__getitem__)
            yield NSingular(i, prof.pivots[i])
            continue
        P = used + GUARD_BITS
        xs = prof.solve()
        coeffs = None
        if with_coeffs:
            coeffs = []
            for psi in _psi_stream(n, ts, P):
                cr = sum(pr * xr + pi * xi for (pr, pi), (xr, xi) in zip(psi, xs))
                ci = sum(pr * xi - pi * xr for (pr, pi), (xr, xi) in zip(psi, xs))
                coeffs.append(fixed_mpc(cr, ci, -2 * P, bits))
        yield MinNormSolution(value=fixed_mpf(prof.inner, -P, bits),
                              residual=_interp_residual(S_used, xs, P, bits),
                              coeffs=coeffs, n=n, t=ts)


def min_norm(n: int, t: Sequence, bits: Optional[int] = None,
             with_coeffs: bool = False) -> MinNormSolution:
    """Least-norm coefficients with sum_k c_k psi_k(t_i) = 1 at each ordinate.

    The optimum is value = 1^T H^{-1} 1; it lower-bounds the squared
    approximation distances whenever the t_i are ordinates of critical-line
    zeros and H is the corresponding kernel matrix. H passes the d^2 pivot
    audit: a pivot below 2^{-p/2} of the largest raises NSingular. The
    residual, how far the exact coefficients miss 1 at the ordinates, comes
    with every solution; the coefficients themselves only with with_coeffs.
    """
    sol = next(_min_norms([n], t, resolve_bits(bits), with_coeffs))
    if isinstance(sol, NSingular):
        raise sol
    return sol


# K_n(u, u) = sum_{k<=n} f(k) with f(x) = |x^w - (x-1)^w|^2, w = 1/2 - iu,
# the same code at every u: terms up to the start a are summed on the stream,
# the rest comes from Euler-Maclaurin on the Laurent series of f (_Laurent,
# _em_tails). Correction term p is about 2 c_1 (2p-1)!/(2 pi a)^{2p} times
# the factor sum_j |c_j/c_1| binom(j+2p-2, j-1) a^{1-j} of the later
# coefficients. The majorant M_j of _Laurent, with M_1/c_1 <= 12 and
# M_{j+1}/M_j <= W = ceil(2|w|), keeps that factor below
# 12 (1 - W/a)^{-2p}. So _EM_MAX_TERMS terms from
# a = _EM_START reach about 2170 bits of K_a at u = 0 and at u = 2 pi/log 2,
# and 2164 bits at |u| = 62 (W = 125), the largest |w| that keeps that start.
# Each doubling of a adds 400 bits. Up to _EM_FIXED_BITS the start stays at
# _EM_START; beyond, it grows by 2^{(bits - _EM_FIXED_BITS)/400}.
#
# The start grows with |w| too: a >= _EM_START_PER_W W >= 16 |w|. The
# majorant ratio M_{j+1}/M_j = (W + j + 1)/(j + 2) is largest at j = 1, where
# it is (W + 2)/3 <= W, so at a >= 8W every majorant term M_j a^{-j} is at
# most 1/8 of the one before: the coefficient tail loses 3 bits a term from
# its first term on, and the factor above stays below 12 (8/7)^{2p}. u = 0
# (W = 1) and u = 2 pi/log 2 (W = 19) keep a = _EM_START.
_EM_START = 1000
_EM_FIXED_BITS = 2048
_EM_GUARD = 32
_EM_MAX_TERMS = 200
_EM_START_PER_W = 8


def _em_start(bits: int) -> int:
    if bits <= _EM_FIXED_BITS:
        return _EM_START
    return math.ceil(_EM_START * 2 ** ((bits - _EM_FIXED_BITS) / 400))


def _two_w_ceil(u) -> int:
    """W = ceil(2|w|) = ceil(sqrt(1 + 4u^2)), exactly, for the mpf u."""
    man, exp = u.man_exp
    shift = 2 * exp + 2
    x = 1 + (man * man << shift) if shift >= 0 else 1 - (-man * man >> -shift)
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def _mag(x) -> int:
    """An e with |x| < 2^e, from the raw mpf."""
    _, _, exp, bc = x._mpf_
    return exp + bc


class _Laurent:
    """The Laurent coefficients of the diagonal term, grown as far as asked,
    and its series at integer points; one per report, which also keeps the
    powers of each point and the Euler-Maclaurin factors beta_p.

    f(x) = |x^w - (x-1)^w|^2 = x |1 - (1 - y)^w|^2 with y = 1/x and
    w = 1/2 - iu, so f(k) = |psi_k(u)|^2 for k >= 2. The binomial series
    1 - (1 - y)^w = sum_{m>=1} d_m y^m, d_1 = w, d_{m+1} = d_m (m - w)/(m + 1),
    converges for |y| < 1, so for x > 1
        f(x) = sum_{j>=1} c_j x^{-j},   c_j = sum_{m=1}^{j} d_m conj(d_{j+1-m}).
    - c_j is real: m -> j + 1 - m maps each term to the conjugate of
      another. c_1 = |d_1|^2 = |w|^2 = 1/4 + u^2.
    - The table reads c_j = 2 Re d_{j+1}, the same numbers at O(1) each:
      2 Re w = 1, so |(1 - y)^w|^2 = 1 - y for 0 < y < 1, and
      |1 - (1 - y)^w|^2 = 2 - y - 2 Re (1 - y)^w = 2 sum_{m>=2} Re(d_m) y^m
      since 2 Re d_1 = 1; two power series equal on (0, 1) have the same
      coefficients. At u = 0, c_j = 2 a_{j+1} with 1 - sqrt(1 - y) =
      sum a_m y^m, all positive.
    - Majorant. |m - w| <= m + |w|, so by induction |d_m| <= (|w|)_m/m!, with
      (s)_m = s (s+1) ... (s+m-1). Vandermonde's identity for rising
      factorials, (s + t)_N/N! = sum_{m=0}^{N} (s)_m (t)_{N-m}/(m! (N-m)!),
      at s = t = |w| and N = j + 1 gives
          |c_j| <= sum_{m=1}^{j} (|w|)_m (|w|)_{j+1-m}/(m! (j+1-m)!)
                <= (2|w|)_{j+1}/(j+1)!,
      as the terms m = 0 and m = j + 1 it leaves out are positive. The table
      keeps the integer M_j = (W)_{j+1}/(j+1)! = binom(W + j, j + 1), with
      W = ceil(2|w|) >= 1, at least as large; it bounds the coefficients past
      the last computed one. M_{j+1}/M_j = (W + j + 1)/(j + 2) does not grow
      with j.
    """

    def __init__(self, u):
        self.W = _two_w_ceil(u)
        self._w = mpc(mpf(1) / 2, -u)
        self._d = self._w * (1 - self._w) / 2
        self._c = [None]
        self._major = [None, self.W * (self.W + 1) // 2]
        self._at = {}
        self._beta = [None]

    def coeff(self, j: int):
        while len(self._c) <= j:
            m = len(self._c)
            self._c.append(2 * self._d.real)
            self._d *= (m + 1 - self._w) / (m + 2)
        return self._c[j]

    def majorant(self, j: int) -> int:
        while len(self._major) <= j:
            m = len(self._major)
            self._major.append(self._major[-1] * (self.W + m) // (m + 1))
        return self._major[j]

    def beta(self, p: int):
        """beta_p = B_{2p}/(2p), the factor of L_{2p-1} in Euler-Maclaurin."""
        while len(self._beta) <= p:
            num, den = bernfrac(2 * len(self._beta))
            self._beta.append(mpf(num) / (2 * len(self._beta) * den))
        return self._beta[p]

    def series(self, x: int, r: int, e_cut: int, with_abs: bool = False):
        """(L, Lbar) at the integer x > 1, cut where the tail is below 2^e_cut.

        For r >= 0, L = L_r(x) = sum_j c_j binom(j+r-1, r) x^{-(j+r)}
        = (-1)^r f^(r)(x)/r!. For r = -1, L = I(x) = sum_{j>=2} c_j x^{1-j}/(j-1),
        so that the integral of f over [a, n] is c_1 log(n/a) + I(a) - I(n).
        Lbar (None unless with_abs) is the same sum with |c_j|, plus the
        bound on its cut tail.

        Cut. Write b_j x^{-(j+r)} for the weight of c_j. Past the cut J the
        majorant terms M_j b_j x^{-(j+r)} fall by a ratio of at most
        (W + j + 1)(j + max(r, 0))/((j + 2) j x), which does not grow with j;
        the sum stops at the first J where that ratio at j = J + 1 is at
        most 1/2, checked in integers, and twice the first majorant term
        past J is below 2^e_cut. That term is bounded by the bit lengths of
        M_{J+1} and b_{J+1} and the exponents of the rounded x^{-(J+1)} and
        x^{-r}, with one bit for their rounding: integer work only, with no
        mpf bound per term. The powers x^{-k} and c_j x^{-j} are kept per x.
        """
        pw, v = self._at.setdefault(x, ([mpf(1), 1 / mpf(x)], [None]))

        def power(k):
            while len(pw) <= k:
                pw.append(pw[-1] * pw[1])
            return pw[k]

        if r >= 0:
            xr, mag_xr, j = power(r), _mag(power(r)), 1
        else:
            xr, mag_xr, j = mpf(x), x.bit_length(), 2
        b = 1
        s = sa = mpf(0)
        while True:
            while len(v) <= j:
                v.append(self.coeff(len(v)) * power(len(v)))
            if r >= 0:
                s += b * v[j]
                if with_abs:
                    sa += b * abs(v[j])
                b = b * (j + r) // j
            else:
                s += v[j] / (j - 1)
                if with_abs:
                    sa += abs(v[j]) / (j - 1)
            tail = (self.majorant(j + 1).bit_length() + b.bit_length()
                    + _mag(power(j + 1)) + mag_xr + 2)
            if (tail <= e_cut and 2 * (self.W + j + 2) * (j + 1 + max(r, 0))
                    <= (j + 3) * (j + 1) * x):
                return xr * s, (xr * sa + mpf(2) ** tail if with_abs else None)
            j += 1


def _em_side(lau: _Laurent, x: int, e_tol: int, bound: bool):
    """Phi_p(x) for p = 0, 1, ..., _EM_MAX_TERMS, each with the remainder
    bound R_p(x) = |beta_p| Lbar_{2p-1}(x) if bound (None at p = 0 or
    without bound).

    Phi_p(x) = I(x) - f(x)/2 + sum_{p'<=p} beta_{p'} L_{2p'-1}(x), with
    beta_p = B_{2p}/(2p), so that with q correction terms
    sum_{a<k<=n} f(k) = c_1 log(n/a) + Phi_q(a) - Phi_q(n) + remainder.
    Each series is cut once its tail, times the factor it enters with, is
    below 2^e_tol.
    """
    phi = lau.series(x, -1, e_tol)[0] - lau.series(x, 0, e_tol)[0] / 2
    yield phi, None
    for p in range(1, _EM_MAX_TERMS + 1):
        beta = lau.beta(p)
        s, sa = lau.series(x, 2 * p - 1, e_tol - _mag(beta), bound)
        phi += beta * s
        yield phi, (abs(beta) * sa if bound else None)


def _em_tails(u, head, start: int, ns: Sequence[int], bits: int) -> list:
    """[sum_{start < k <= n} |psi_k(u)|^2 for n in ns] by Euler-Maclaurin;
    head = K_start(u, u), every n > start.

    Remainder. After q correction terms Euler-Maclaurin leaves
    -int_a^n B_2q({x})/(2q)! f^(2q)(x) dx, with |B_2q({x})| <= |B_2q|, and
    f^(2q)(x) = sum_j c_j (j)_2q x^{-(j+2q)} termwise on x >= a, so the
    remainder is at most
        (|B_2q|/(2q)!) sum_j |c_j| (j)_{2q-1} a^{-(j+2q-1)} = R_q(a)
    whatever n is: |beta_q| Lbar_{2q-1}(a), with |c_j| from the table up to
    the cut and the majorant M_j beyond it. q is the first number of terms
    with R_q(a) below 2^-(bits+9) of head, so below 2^-(bits+8) of every
    value with a bit to spare for the bound's own rounding. head is the
    smallest value, so one q serves the whole grid, and Phi_q(a) is summed
    once. If no q within _EM_MAX_TERMS gets there, RemainderNotProven.

    Every series is cut where its tail is below 2^-(bits+24) of head; there
    are at most 2 (_EM_MAX_TERMS + 2) of them per value, so the cuts cost
    less than 2^-(bits+14) of it. The sums run at bits + _EM_GUARD.
    """
    with working(bits + _EM_GUARD):
        lau = _Laurent(u)
        e_tol = _mag(head) - bits - 24
        stop = head * mpf(2) ** -(bits + 9)
        for q, (phi_a, rem) in enumerate(_em_side(lau, start, e_tol, True)):
            if rem is not None and rem < stop:
                break
        else:
            raise RemainderNotProven(
                f"Euler-Maclaurin remainder after {_EM_MAX_TERMS} terms for "
                f"K_n(u, u), u = {mp.nstr(u, 8)}, still above 2^-{bits + 8}")
        tails = []
        for n in ns:
            *_, (phi_n, _) = islice(_em_side(lau, n, e_tol, False), q + 1)
            tails.append(lau.coeff(1) * mp.log(mpf(n) / start) + phi_a - phi_n)
    return tails


@dataclass(frozen=True)
class KernelAsymptoticsRow:
    n: int
    value: mpf
    ratio: mpf


def kernel_asymptotics_report(u, n_grid: Sequence[int],
                              bits: Optional[int] = None) -> list:
    """K_n(u, u) and K_n(u, u)/((1/4) log n) along an increasing n grid.

    The terms |psi_k(u)|^2 are summed on the stream up to the start
    a = max(_em_start(bits), _EM_START_PER_W ceil(2|w|)), w = 1/2 - iu:
    1000 up to 2048 bits for |u| <= 62, growing with bits and |u| beyond.
    Rows with n <= a are those sums, rounded once at bits. The rest of
    each row, sum_{a<k<=n}, comes from Euler-Maclaurin on the Laurent series
    of |x^w - (x-1)^w|^2 at infinity, the same code at every u (_Laurent,
    _em_tails), with its integral and odd derivatives taken termwise. A
    majorant of the coefficients proves the remainder: the number of
    correction terms is the first whose bound is below 2^-(bits+8) of
    K_a(u, u), and RemainderNotProven is raised if none within the cap gets
    there. A row past a is K_a rounded at bits plus that tail, rounded once
    more, so it is within about 2^-bits of the exact value. A grid that ends
    at or below a is summed directly.
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
        head = min(grid[-1], max(_em_start(bits), _EM_START_PER_W * _two_w_ceil(u_mp)))
        for k, S in _kernel_sums(sorted({n for n in grid if n < head} | {head}),
                                 [u_mp], bits):
            acc = _rounded_kernel(S, bits)[0][0]
            if k in targets:
                add_row(k, acc)
        beyond = [n for n in grid if n > head]
        if beyond:
            for n, tail in zip(beyond, _em_tails(u_mp, acc, head, beyond, bits)):
                add_row(n, acc + tail)
    return rows
