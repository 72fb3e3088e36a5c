"""The one Hermitian factorization: an unpivoted LDL^H in Gaussian integers.

``ldl_profile`` factors at the fixed point of ``exact`` and gives the whole
d^2 profile and the min-norm value and coefficients, and ``audited_profile``
runs it under the one pivot audit: an indeterminate pivot rebuilds the
system at doubled precision. The independent check on it,
``distance_squared(method="projection")``, solves with mpmath's own LU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Optional

from .errors import NSingular, PrecisionExhausted
from .exact import GUARD_BITS, fixed_mpf


# =========================================================================
# d^2 profile: one unpivoted LDL^H in fixed point
# =========================================================================

_ESCALATION_LIMIT = 3


@dataclass(frozen=True)
class LDLProfile:
    """One unpivoted LDL^H of G with z = L^{-1} g carried along.

    d_squared[i] = 1 - sum_{k<=i} |z_k|^2 / pivots[k] is d^2 for the first
    i + 1 generators, clamped to [0, 1]. pivots[i] = det(G_{i+1})/det(G_i)
    is the leading-minor ratio. A pivot below 2^{-bits/2} * max_pivot is
    dropped (its generator adds nothing) and counted in ``dropped``. ``band``
    is the index of the first pivot in the indeterminate band
    [2^{-bits/2}, 2^{-bits/4}) * max_pivot, where the factorization stops; it is
    None when every pivot was decided. max_pivot is the largest diagonal
    entry, the first pivot a pivoted factorization would take.

    ``inner`` is g* G_n^{-1} g = sum |z_k|^2 / p_k over the kept pivots,
    unclamped, as an int at the fixed point of ``bits``: d^2 is 1 minus it.
    ``solve()`` gives x = G_n^{-1} g = L^{-H} D^{-1} z by back-substitution
    in the same integers, as (re, im) pairs at that fixed point, with 0 for
    a dropped pivot's component. A profile read back from the cache has
    neither.
    """

    d_squared: list
    pivots: list
    dropped: int
    band: Optional[int]
    inner: Optional[int] = field(default=None, compare=False)
    solve: Optional[Callable[[], list]] = field(default=None, repr=False, compare=False)

    def singular(self) -> Optional[NSingular]:
        """NSingular at the first smallest pivot if one was dropped, else None."""
        if not self.dropped:
            return None
        i = min(range(len(self.pivots)), key=self.pivots.__getitem__)
        return NSingular(i, self.pivots[i])


def ldl_profile(G, g, bits: int) -> LDLProfile:
    """d^2 = 1 - g* G_n^{-1} g for every leading order n of the Hermitian PSD G.

    By the Schur complement this is det(G_n - g g*)/det(G_n). G and g hold
    Gaussian integers (re, im) at the fixed point of ``exact`` for bits; only
    the lower triangle of G is read. G scaled by 4^e and g by 2^e leave d^2
    unchanged, so the caller may place its data at the fixed point relative
    to any even power of two (near the largest diagonal entry, so that
    bits + GUARD_BITS cover it); the pivots come back in the units of the
    integers given. The loop is exact but for one floor per product and
    quotient, and results round out once. Rows are built Crout-style, so
    every inner product is a C-level dot product of two int lists.
    """
    n = len(G)
    if n == 0 or any(len(row) != n for row in G):
        raise ValueError("matrix must be square and nonempty")
    if len(g) != n:
        raise ValueError(f"rhs length {len(g)} does not match order {n}")
    frac = bits + GUARD_BITS
    top = max(G[i][i][0] for i in range(n))
    if not top > 0:
        raise NSingular(0, fixed_mpf(top, -frac, bits))
    drop_at = top >> (bits // 2)
    band_at = top >> (bits // 4)

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
            ar, ai = row[j]
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
        p = row[i][0] - ((sum(map(mul, cr, lr)) + sum(map(mul, ci, li))) >> frac)
        gr, gi = g[i]
        zr_i = gr - ((sum(map(mul, lr, zr)) - sum(map(mul, li, zi))) >> frac)
        zi_i = gi - ((sum(map(mul, lr, zi)) + sum(map(mul, li, zr))) >> frac)
        pivots.append(fixed_mpf(p, -frac, bits))
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
        values.append(fixed_mpf(min(max(acc, 0), 1 << frac), -frac, bits))   # clamped to [0, 1]

    def solve():
        xr = [(a << frac) // p if p else 0 for a, p in zip(zr, piv)]
        xi = [(b << frac) // p if p else 0 for b, p in zip(zi, piv)]
        for k in reversed(range(len(xr))):
            a, b = xr[k], xi[k]        # final: every later row is subtracted
            for j, (lr, li) in enumerate(zip(Lr[k], Li[k])):
                xr[j] -= (lr * a + li * b) >> frac
                xi[j] -= (lr * b - li * a) >> frac
        return list(zip(xr, xi))

    return LDLProfile(d_squared=values, pivots=pivots, dropped=dropped, band=band,
                      inner=(1 << frac) - acc, solve=solve)


def audited_profile(build, bits: int):
    """(system, LDLProfile, p) for the first p = bits, 2 bits, ... at which
    ``ldl_profile`` decides every pivot of system = build(p).

    build(p) returns G and g at p's fixed point first; anything after them
    rides along. A pivot in the indeterminate band rebuilds the system at
    doubled precision, at most _ESCALATION_LIMIT times, and then raises
    PrecisionExhausted. Every d^2 and every min-norm value passes here.
    """
    for p in (bits << e for e in range(_ESCALATION_LIMIT + 1)):
        system = build(p)
        prof = ldl_profile(system[0], system[1], p)
        if prof.band is None:
            return system, prof, p
    raise PrecisionExhausted(
        f"profile pivots stayed in the indeterminate band up to {p} bits")
