"""Pivoted LDL^H on mpmath matrices, solves, determinants, and the
fixed-point profile factorization (fed through ``fixedpoint.fixed_system``).

Oracle values: exact Hilbert-matrix determinant, hand-computed 2x2 Hermitian
factorizations, reconstruction residuals checked against the inputs, and
leading-minor ratios of hand-built matrices.
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from fixedpoint import fixed_system
from xdp.distance import _audited_profile, _build_gram
from xdp.dpcore import DirichletPolynomial
from xdp.errors import NSingular
from xdp.linalg import ldl_factor, ldl_profile, ldl_solve
from xdp.precision import working


def hilbert(n):
    with working(256):
        return [[mpf(1) / (i + j + 1) for j in range(n)] for i in range(n)]


def product(values):
    out = mpf(1)
    for v in values:
        out = out * v
    return out


def mat_apply(A, x):
    return [sum((A[i][j] * x[j] for j in range(len(x))), mpf(0)) for i in range(len(A))]


def reconstruct(f):
    """L D L^H in the permuted frame."""
    n = len(f.d)
    out = [[mpf(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = mpf(0)
            for k in range(min(i, j) + 1):
                acc += f.L[i][k] * f.d[k] * mp.conj(f.L[j][k])
            out[i][j] = acc
    return out


def test_hand_hermitian_2x2():
    with working(256):
        A = [[mpf(2), mpc(0, 1)], [mpc(0, -1), mpf(2)]]
        f = ldl_factor(A)
        # det A = 4 - |i|^2 = 3 and det A_1 = 2, whatever the pivot order
        assert abs(product(f.d) - 3) < mpf(2) ** -248
        assert abs(f.d[0] - 2) < mpf(2) ** -250
        assert abs(f.d[1] - mpf(3) / 2) < mpf(2) ** -250
        # A^{-1} [1, 0]^T = [2/3, i/3]
        x = ldl_solve(f, [mpf(1), mpf(0)])
        assert abs(x[0] - mpf(2) / 3) < mpf(2) ** -248
        assert abs(x[1] - mpc(0, 1) / 3) < mpf(2) ** -248


def test_hilbert_determinant():
    with working(256):
        exact = mpf(1) / 6048000
        # pivoting reorders but keeps the determinant
        f = ldl_factor(hilbert(4))
        assert abs(product(f.d) - exact) / exact < mpf(2) ** -230
        # leading minors, det H_3 = 1/2160 and det H_2 = 1/12
        assert abs(product(ldl_factor(hilbert(3)).d) - mpf(1) / 2160) < mpf(2) ** -240
        assert abs(product(ldl_factor(hilbert(2)).d) - mpf(1) / 12) < mpf(2) ** -240


def test_pivoting_picks_max_diagonal():
    with working(128):
        A = [[mpf(1), mpf("0.1"), mpf("0.1")],
             [mpf("0.1"), mpf(5), mpf("0.1")],
             [mpf("0.1"), mpf("0.1"), mpf(3)]]
        f = ldl_factor(A)
        assert f.perm[0] == 1
        R = reconstruct(f)
        for i in range(3):
            for j in range(3):
                assert abs(R[i][j] - A[f.perm[i]][f.perm[j]]) < mpf(2) ** -120


def test_random_hermitian_roundtrip():
    rng = random.Random(20240817)
    n = 5
    with working(256):
        B = [[mpc(mpf(rng.randint(-8, 8)) / 3, mpf(rng.randint(-8, 8)) / 3)
              for _ in range(n)] for _ in range(n)]
        A = [[sum((mp.conj(B[k][i]) * B[k][j] for k in range(n)), mpf(0))
              for j in range(n)] for i in range(n)]
        for i in range(n):
            A[i][i] = A[i][i] + 1
        f = ldl_factor(A)
        R = reconstruct(f)
        scale = max(abs(A[i][j]) for i in range(n) for j in range(n))
        for i in range(n):
            for j in range(n):
                assert abs(R[i][j] - A[f.perm[i]][f.perm[j]]) < scale * mpf(2) ** -240
        assert all(dv > 0 for dv in f.d)
        rhs = [mpc(1, -1)] * n
        x = ldl_solve(f, rhs)
        back = mat_apply(A, x)
        for i in range(n):
            assert abs(back[i] - rhs[i]) < scale * mpf(2) ** -230


def test_profile_pivots_leading_minor_ratios():
    with working(128):
        A = [[mpf(2), mpf(1)], [mpf(1), mpf(3)]]
        s = ldl_profile(*fixed_system(A, [0, 0], 128), 128).pivots
        assert abs(s[0] - 2) < mpf(2) ** -120
        assert abs(s[1] - mpf(5) / 2) < mpf(2) ** -120
        # rank-1 matrix: second pivot exactly zero, and that generator is dropped
        f = ldl_profile(*fixed_system([[1, 1], [1, 1]], [1, 1], 128), 128)
        assert len(f.pivots) == 2
        assert f.pivots[0] == 1
        assert f.pivots[1] == 0
        assert f.dropped == 1 and f.band is None
        assert f.d_squared == [0, 0]
        # Hilbert pivots are the classical minor ratios: det H_3 / det H_2
        s = ldl_profile(*fixed_system(hilbert(3), [0] * 3, 128), 128).pivots
        d3, d2 = mpf(1) / 2160, mpf(1) / 12
        assert abs(s[2] - d3 / d2) < mpf(2) ** -110


def test_profile_matches_solve_and_determinant_ratio():
    # d^2_n = 1 - g* A_n^{-1} g = det(A_n - g g*)/det(A_n), leading orders n
    rng = random.Random(5)
    n = 6
    with working(256):
        B = [[mpc(mpf(rng.randint(-8, 8)) / 5, mpf(rng.randint(-8, 8)) / 5)
              for _ in range(n)] for _ in range(n)]
        A = [[sum((mp.conj(B[k][i]) * B[k][j] for k in range(n)), mpf(0))
              for j in range(n)] for i in range(n)]
        for i in range(n):
            A[i][i] = A[i][i] + 4
        g = [mpc(mpf(rng.randint(-4, 4)) / 7, mpf(rng.randint(-4, 4)) / 7)
             for _ in range(n)]
        f = ldl_profile(*fixed_system(A, g, 256), 256)
        assert f.dropped == 0 and f.band is None
        for m in range(1, n + 1):
            sub = [row[:m] for row in A[:m]]
            x = ldl_solve(ldl_factor(sub), g[:m])
            want = 1 - mp.re(mp.fsum(mp.conj(gv) * xv for gv, xv in zip(g, x)))
            assert abs(f.d_squared[m - 1] - want) < mpf(2) ** -240
            low = [[sub[i][j] - g[i] * mp.conj(g[j]) for j in range(m)]
                   for i in range(m)]
            det = product(ldl_factor(sub).d)
            ratio = product(ldl_factor(low).d) / det
            assert abs(f.d_squared[m - 1] - ratio) < mpf(2) ** -230
            # pivots[m - 1] = det A_m / det A_{m-1}
            prev = product(ldl_factor([row[:m - 1] for row in A[:m - 1]]).d) if m > 1 else 1
            assert abs(f.pivots[m - 1] - det / prev) < mpf(2) ** -230
        # the integers give g* A^{-1} g unclamped, and x = A^{-1} g by
        # back-substitution
        frac = 256 + 64
        assert abs(mpf((f.inner, -frac)) - (1 - f.d_squared[-1])) < mpf(2) ** -240
        x = ldl_solve(ldl_factor(A), g)
        for (xr, xi), want in zip(f.solve(), x):
            assert abs(mpc(mpf((xr, -frac)), mpf((xi, -frac))) - want) < mpf(2) ** -230


def test_profile_drops_and_flags_band_pivots():
    # at 128 bits: drop below 2^-64 * max pivot, indeterminate in [2^-64, 2^-32)
    with working(128):
        one, tiny, mid = mpf(1), mpf(2) ** -100, mpf(2) ** -40
        z = mpf(0)
        f = ldl_profile(*fixed_system([[one, z], [z, tiny]], [mpf(1) / 2, mpf(2) ** -50], 128),
                        128)
        assert f.dropped == 1 and f.band is None
        assert f.pivots[1] == tiny
        assert f.d_squared[0] == f.d_squared[1] == mpf(3) / 4  # dropped: adds nothing
        assert f.solve()[1] == (0, 0)
        f = ldl_profile(*fixed_system([[one, z, z], [z, mid, z], [z, z, tiny]],
                                      [mpf(1) / 2, mpf(2) ** -21, mpf(2) ** -51], 128), 128)
        assert f.band == 1
        assert len(f.d_squared) == 1 and len(f.pivots) == 2
    with working(256):
        # the same 2^-40 pivot is decided at 256 bits
        f = ldl_profile(*fixed_system([[one, z], [z, mid]], [mpf(1) / 2, mpf(2) ** -21], 256),
                        256)
        assert f.band is None and f.dropped == 0
        assert f.d_squared[1] == mpf(1) / 2


def test_profile_scale_invariant():
    # G -> 4^e G, g -> 2^e g leaves d^2 unchanged, bit for bit: the Gram
    # build places its integers relative to G_11, so 2^e P (whose G is
    # 4^e times that of P) hands ldl_profile the same integers, and the
    # pivots scale by exactly 4^e; on an exact (r = 1/2) and an mpf (r = 0)
    # kappa profile
    P = DirichletPolynomial.parse("1:1,2:1/3,3:-3/4")
    for r in (Fraction(1, 2), Fraction(0)):
        G, g, scale = _build_gram(P, r, 6, 128)
        base = _audited_profile(P, r, 6, 128)[1]
        for e in (-300, 7, 300):
            Pe = DirichletPolynomial([c * Fraction(2) ** e for c in P.coeffs])
            assert _build_gram(Pe, r, 6, 128) == (G, g, scale + 2 * e)
            scaled = _audited_profile(Pe, r, 6, 128)[1]
            assert scaled.d_squared == base.d_squared
            assert scaled.pivots == [mp.ldexp(v, 2 * e) for v in base.pivots]


def test_profile_validation():
    with working(128):
        with pytest.raises(ValueError):
            ldl_profile([[(1, 0)]], [(1, 0), (0, 0)], 128)
        with pytest.raises(NSingular):
            ldl_profile([[(0, 0)]], [(0, 0)], 128)


def test_singular_solve_raises():
    with working(128):
        f = ldl_factor([[mpf(1), mpf(1)], [mpf(1), mpf(1)]])
        # the dependent second generator is dropped: its pivot is below
        # 2^{-p/2} of the largest, p the working precision
        assert ldl_solve(f, [mpf(1), mpf(1)]) == [1, 0]
        near = ldl_factor([[mpf(1), mpf(0)], [mpf(0), mpf(2) ** -63]])
        assert ldl_solve(near, [mpf(1), mpf(1)]) == [1, mpf(2) ** 63]
    with working(124):
        # at 124 bits the threshold is 2^-62
        assert ldl_solve(near, [mpf(1), mpf(1)]) == [1, 0]


def test_shape_validation():
    with pytest.raises(ValueError):
        ldl_factor([[mpf(1), mpf(2)]])
    with pytest.raises(ValueError):
        ldl_factor([])
