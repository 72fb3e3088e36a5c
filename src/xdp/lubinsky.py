"""Orthonormal system and reproducing kernels in weighted L^2 on the line.

The measure is (1/2pi) dt / (1/4 + t^2). Against it the monomials x^{it}
integrate to min(x, 1/x)^{1/2}, and the differenced powers

    psi_1 = 1,   psi_n(t) = n^{1/2 - it} - (n-1)^{1/2 - it}   (n >= 2)

form an orthonormal family. K_n is the order-n reproducing kernel; the
min-norm problem interpolates 1 at a finite set of ordinates and its optimal
value 1^T H^{-1} 1 lower-bounds the approximation distances computed in
``distance`` when the ordinates come from zeros on the critical line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import bernfrac, mp, mpc, mpf

from .errors import DuplicateOrdinates, NSingular, RemainderNotProven
from .exact import to_mp
from .linalg import ldl_factor, ldl_solve
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


def _psi_columns(n: int, ts):
    """[psi_k(t) for t in ts] for k = 1..n, at the caller's precision.

    psi_k(0) is the real 1/(sqrt(k) + sqrt(k-1)), free of the cancellation in
    sqrt(k) - sqrt(k-1); other ordinates difference consecutive powers k^w,
    w = 1/2 - it. Every kernel sum reads this one stream.
    """
    ws = [None if t == 0 else mpc(mpf(1) / 2, -t) for t in ts]
    prev = [mpf(0)] * len(ts)
    for k in range(1, n + 1):
        cur = [mp.sqrt(k) if w is None else mp.power(k, w) for w in ws]
        yield [1 / (c + p) if w is None else c - p
               for c, p, w in zip(cur, prev, ws)]
        prev = cur


def _gram_terms(keys):
    """term(a, b) = sqrt(a) sqrt(b) <(a/b)^{it}>_w for a, b in keys.

    The weighted inner <x^{it}>_w = min(x, 1/x)^{1/2} enters as
    sq[lo] * inv[hi], so term(a, b) is min(a, b) up to rounding, and
    <psi_n, psi_m> = term(n, m) - term(n, m-1) - term(n-1, m) + term(n-1, m-1).
    term is symmetric bit for bit: the first product rounds the same in
    either order.
    """
    sq = {k: mp.sqrt(k) for k in keys if k > 0}
    inv = {k: 1 / s for k, s in sq.items()}

    def term(a, b):
        if a == 0 or b == 0:
            return mpf(0)
        lo, hi = (a, b) if a <= b else (b, a)
        return sq[a] * sq[b] * sq[lo] * inv[hi]
    return term


def psi_inner(n: int, m: int, bits: Optional[int] = None):
    """<psi_n, psi_m> in the weighted space; delta_{nm} up to rounding."""
    if n < 1 or m < 1:
        raise ValueError(f"need indices >= 1, got ({n}, {m})")
    bits = resolve_bits(bits)
    with working(bits):
        term = _gram_terms({n, m, n - 1, m - 1})
        return term(n, m) - term(n, m - 1) - term(n - 1, m) + term(n - 1, m - 1)


def psi_inner_max_deviation(n_max: int, bits: Optional[int] = None):
    """max_{n,m <= n_max} |<psi_n, psi_m> - delta_{nm}|, one shared sqrt table."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    bits = resolve_bits(bits)
    with working(bits):
        term = _gram_terms(range(n_max + 1))
        # Row n of the four-term formula reads term(n, 0..n) and
        # term(n-1, 0..n); by symmetry the previous row plus
        # term(n-1, n) = term(n, n-1) covers the second half.
        worst = mpf(0)
        prev = [mpf(0)]
        for n in range(1, n_max + 1):
            cur = [term(n, m) for m in range(n + 1)]
            prev.append(cur[n - 1])
            for m in range(1, n + 1):
                val = cur[m] - cur[m - 1] - prev[m] + prev[m - 1]
                dev = abs(val - 1) if n == m else abs(val)
                if dev > worst:
                    worst = dev
            prev = cur
        return worst


def kernel(n: int, u, v, bits: Optional[int] = None):
    """K_n(u, v) = sum_{k<=n} psi_k(u) conj(psi_k(v))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    bits = resolve_bits(bits)
    with working(bits):
        u_mp = to_mp(u)
        v_mp = to_mp(v)
        diag = u_mp == v_mp
        acc = mpf(0)
        for psi in _psi_columns(n, [u_mp] if diag else [u_mp, v_mp]):
            acc = acc + (abs(psi[0]) ** 2 if diag else psi[0] * mp.conj(psi[1]))
        return acc


@dataclass(frozen=True)
class KernelMatrix:
    n: int
    t: tuple
    H: list


def kernel_matrix(n: int, t: Sequence, bits: Optional[int] = None) -> KernelMatrix:
    """H[i][j] = K_n(t_i, t_j) over distinct real ordinates."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not t:
        raise ValueError("ordinate list is empty")
    bits = resolve_bits(bits)
    with working(bits):
        t_mp = [to_mp(x) for x in t]
        for x in t_mp:
            if isinstance(x, mpc):
                raise ValueError(f"ordinates must be real, got {x}")
        guard = mpf(_DUPLICATE_GUARD)
        l = len(t_mp)
        for i in range(l):
            for j in range(i + 1, l):
                if abs(t_mp[i] - t_mp[j]) < guard:
                    raise DuplicateOrdinates(
                        f"ordinates {i} and {j} closer than {_DUPLICATE_GUARD}")
        H = [[mpf(0)] * l for _ in range(l)]
        for psi in _psi_columns(n, t_mp):
            conj = [mp.conj(p) for p in psi]
            for i in range(l):
                row, p = H[i], psi[i]
                for j in range(i, l):
                    row[j] = row[j] + p * conj[j]
        for i in range(l):
            for j in range(i):
                H[i][j] = mp.conj(H[j][i])
        return KernelMatrix(n=n, t=tuple(t_mp), H=H)


@dataclass(frozen=True)
class MinNormSolution:
    value: mpf
    coeffs: Optional[list]
    n: int
    t: tuple


def min_norm(n: int, t: Sequence, bits: Optional[int] = None,
             with_coeffs: bool = False) -> MinNormSolution:
    """Least-norm coefficients with sum_k c_k psi_k(t_i) = 1 at each ordinate.

    The optimum is value = 1^T H^{-1} 1; it lower-bounds the squared
    approximation distances whenever the t_i are ordinates of critical-line
    zeros and H is the corresponding kernel matrix.
    """
    bits = resolve_bits(bits)
    km = kernel_matrix(n, t, bits=bits)
    with working(bits):
        f = ldl_factor(km.H)
        for i, d in enumerate(f.d):
            if not d > 0:
                raise NSingular(i, d)
        ones = [mpf(1)] * len(km.t)
        x = ldl_solve(f, ones)
        value = mp.re(mp.fsum(x))
        coeffs = None
        if with_coeffs:
            coeffs = [mp.fsum(mp.conj(p) * xi for p, xi in zip(psi, x))
                      for psi in _psi_columns(n, km.t)]
        return MinNormSolution(value=value, coeffs=coeffs, n=n, t=km.t)


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
        u_mp = to_mp(u)
        head = grid[-1] if u_mp != 0 else min(grid[-1], _em_start(bits))
        acc = mpf(0)
        for k, (x,) in enumerate(_psi_columns(head, [u_mp]), 1):
            acc = acc + abs(x) ** 2
            if k in targets:
                add_row(k, acc)
        for n in grid:
            if n > head:
                add_row(n, acc + _em_tail(acc, head, n, bits))
    return rows
