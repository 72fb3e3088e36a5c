"""Dense Hermitian LDL^H factorizations on mpmath scalars.

Runs at the ambient mpmath precision; callers wrap invocations in
``precision.working``. Matrices are lists of row lists holding mpf/mpc.
``ldl_factor``/``ldl_solve`` are the pivoted factorization and solve on mpf
objects; ``ldl_profile`` is the unpivoted fixed-point factorization that
yields the whole d^2 profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional

from mpmath import mp, mpc, mpf

from .errors import NSingular


def _real(x):
    return x.real if hasattr(x, "real") and not isinstance(x, mpf) else x


def _check_square(A) -> int:
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("matrix must be square and nonempty")
    return n


@dataclass(frozen=True)
class LDLFactors:
    """P A P^T = L D L^H; perm[i] is the source index of permuted row i."""

    L: list
    d: list
    perm: list


def ldl_factor(A) -> LDLFactors:
    """P A P^T = L D L^H; each step pivots on the largest remaining diagonal
    entry."""
    n = _check_square(A)
    M = [list(row) for row in A]
    perm = list(range(n))
    L = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
    d = [mpf(0)] * n
    for j in range(n):
        p = max(range(j, n), key=lambda i: _real(M[i][i]))
        if p != j:
            M[j], M[p] = M[p], M[j]
            for row in M:
                row[j], row[p] = row[p], row[j]
            perm[j], perm[p] = perm[p], perm[j]
            for c in range(j):
                L[j][c], L[p][c] = L[p][c], L[j][c]
        dj = _real(M[j][j])
        d[j] = dj
        if dj == 0:
            continue  # PSD remainder is (numerically) zero; skip the update
        for i in range(j + 1, n):
            L[i][j] = M[i][j] / dj
        for i in range(j + 1, n):
            row = M[i]
            c = L[i][j] * dj
            for k in range(j + 1, n):
                row[k] = row[k] - c * mp.conj(L[k][j])
    return LDLFactors(L=L, d=d, perm=perm)


def ldl_solve(f: LDLFactors, b, drop_at=None):
    """Solve A x = b given factors of A.

    A zero pivot raises NSingular. With ``drop_at``, components whose pivot
    is below it are set to zero instead: their generators are dropped.
    """
    n = len(f.d)
    if len(b) != n:
        raise ValueError(f"rhs length {len(b)} does not match order {n}")
    if drop_at is None:
        for i, dv in enumerate(f.d):
            if dv == 0:
                raise NSingular(i, dv)
    y = [b[f.perm[i]] for i in range(n)]
    z = [mpf(0)] * n
    for i in range(n):
        acc = y[i]
        for k in range(i):
            acc = acc - f.L[i][k] * z[k]
        z[i] = acc
    w = [z[i] / f.d[i] if drop_at is None or f.d[i] >= drop_at else mpf(0)
         for i in range(n)]
    x = [mpf(0)] * n
    for i in reversed(range(n)):
        acc = w[i]
        for k in range(i + 1, n):
            acc = acc - mp.conj(f.L[k][i]) * x[k]
        x[i] = acc
    out = [mpf(0)] * n
    for i in range(n):
        out[f.perm[i]] = x[i]
    return out


# =========================================================================
# d^2 profile: one unpivoted LDL^H in fixed point
# =========================================================================

_GUARD_BITS = 64


@dataclass(frozen=True)
class LDLProfile:
    """One unpivoted LDL^H of G with z = L^{-1} g carried along.

    d_squared[i] = 1 - sum_{k<=i} |z_k|^2 / pivots[k] is d^2 for the first
    i + 1 generators, clamped to [0, 1]. pivots[i] = det(G_{i+1})/det(G_i)
    is the leading-minor ratio. A pivot below 2^{-p/2} * max_pivot is dropped
    (its generator adds nothing) and counted in ``dropped``. ``band`` is the
    index of the first pivot in the indeterminate band
    [2^{-p/2}, 2^{-p/4}) * max_pivot, where the factorization stops; it is
    None when every pivot was decided. max_pivot is the largest diagonal
    entry, the first pivot a pivoted factorization would take.
    """

    d_squared: list
    pivots: list
    dropped: int
    band: Optional[int]


def _fixed(t, shift: int) -> int:
    """round(x * 2^shift) for the finite mpf tuple t of x, by a mantissa shift."""
    sign, man, exp, _ = t
    if not man:
        if exp:
            raise ValueError("matrix entries must be finite")
        return 0
    e = exp + shift
    v = man << e if e >= 0 else (man + (1 << (-e - 1))) >> -e
    return -v if sign else v


def _fixed_pair(x, shift: int):
    if isinstance(x, mpc):
        re, im = x._mpc_
        return _fixed(re, shift), _fixed(im, shift)
    return _fixed(x._mpf_, shift), 0


def ldl_profile(G, g) -> LDLProfile:
    """d^2 = 1 - g* G_n^{-1} g for every leading order n of the Hermitian PSD G.

    By the Schur complement this is det(G_n - g g*)/det(G_n). The loop runs
    on (re, im) pairs of Python ints scaled by 2^(p + 64), p the ambient
    precision, after G is scaled by an even power of two near its largest
    diagonal entry and g by half that power, which leaves d^2 unchanged.
    Entries convert by a mantissa shift, exactly down to 2^-64 of that
    entry, and results round back to mpf once. Rows are built Crout-style,
    so every inner product is a C-level dot product of two int lists.
    """
    n = _check_square(G)
    if len(g) != n:
        raise ValueError(f"rhs length {len(g)} does not match order {n}")
    prec = mp.prec
    frac = prec + _GUARD_BITS
    top = max(_real(G[i][i]) for i in range(n))
    if not top > 0:
        raise NSingular(0, top)
    _, _, exp, bc = top._mpf_
    scale = exp + bc - ((exp + bc) & 1)
    shift_G, shift_g = frac - scale, frac - scale // 2
    top_fixed = _fixed(top._mpf_, shift_G)
    drop_at = top_fixed >> (prec // 2)
    band_at = top_fixed >> (prec // 4)

    Lr, Li = [], []                 # Lr[j], Li[j]: row j of L left of the diagonal
    piv = []                        # fixed-point pivots, 0 where dropped
    zr, zi = [], []
    acc = 1 << frac
    values, pivots = [], []
    dropped = 0
    band = None
    for i in range(n):
        row = G[i]
        cr, ci, lr, li = [], [], [], []     # C[i][k] = L[i][k] d_k, and L[i][k]
        for j in range(i):
            ar, ai = _fixed_pair(row[j], shift_G)
            Lrj, Lij = Lr[j], Li[j]
            re = ar - ((sum(map(mul, cr, Lrj)) + sum(map(mul, ci, Lij))) >> frac)
            im = ai - ((sum(map(mul, ci, Lrj)) - sum(map(mul, cr, Lij))) >> frac)
            d = piv[j]
            if d:
                cr.append(re)
                ci.append(im)
                lr.append((re << frac) // d)
                li.append((im << frac) // d)
            else:
                cr.append(0)
                ci.append(0)
                lr.append(0)
                li.append(0)
        p = _fixed_pair(row[i], shift_G)[0] \
            - ((sum(map(mul, cr, lr)) + sum(map(mul, ci, li))) >> frac)
        gr, gi = _fixed_pair(g[i], shift_g)
        zr_i = gr - ((sum(map(mul, lr, zr)) - sum(map(mul, li, zi))) >> frac)
        zi_i = gi - ((sum(map(mul, lr, zi)) + sum(map(mul, li, zr))) >> frac)
        pivots.append(mpf((p, scale - frac)))
        if p < drop_at:
            dropped += 1
            p = 0
        elif p < band_at:
            band = i
            break
        else:
            acc -= (zr_i * zr_i + zi_i * zi_i) // p
        Lr.append(lr)
        Li.append(li)
        piv.append(p)
        zr.append(zr_i)
        zi.append(zi_i)
        if acc <= 0:
            values.append(mpf(0))
        elif acc >> frac:
            values.append(mpf(1))
        else:
            values.append(mpf((acc, -frac)))
    return LDLProfile(d_squared=values, pivots=pivots, dropped=dropped, band=band)
