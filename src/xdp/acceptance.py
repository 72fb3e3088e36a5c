"""Self-contained acceptance suite.

Each criterion returns a result carrying pass/fail, wall-clock time, and a
one-line detail. Runtime budgets are part of the pass condition wherever a
criterion carries one. The same functions back `xdp validate --suite
acceptance` and the test suite.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from mpmath import mp, mpc, mpf

from .config import ExperimentConfig
from .distance import (distance_profile, distance_squared,
                       mellin_identity_residual)
from .dpcore import DirichletPolynomial
from .errors import NSingular
from .exact import GaussianRational
from .experiments import run_decay_fit
from .lubinsky import _min_norms, kernel_asymptotics_report, psi_inner_max_deviation
from .numio import mp_to_str
from .precision import working
from .zeros import Rectangle, constant_C, find_zeros

BITS = 256
P_ONE = DirichletPolynomial.parse("1:1")
P_BASE = DirichletPolynomial.parse("1:1,2:-1")
P_SQUARED = DirichletPolynomial.parse("1:1,2:-2,4:1")


@dataclass(frozen=True)
class AcceptanceResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    detail: str


def _result(index, name, t0, ok, detail, budget=None):
    elapsed = perf_counter() - t0
    if budget is not None and elapsed >= budget:
        ok = False
        detail += f"; over budget ({elapsed:.1f}s >= {budget}s)"
    return AcceptanceResult(index=index, name=name, passed=bool(ok),
                            elapsed=elapsed, detail=detail)


def criterion_1() -> AcceptanceResult:
    """d^2 vanishes identically for the constant polynomial."""
    t0 = perf_counter()
    with working(BITS):
        worst = mpf(0)
        for r in (-1, 0, Fraction(1, 2)):
            prof = distance_profile(P_ONE, r, 64, bits=BITS)
            worst = max(worst, max(d.d_squared for d in prof))
        ok = worst < mpf(10) ** -40
    return _result(1, "exact-baseline", t0, ok,
                   f"max d^2 over r in {{-1, 0, 1/2}}, n <= 64: "
                   f"{mp_to_str(worst, 64)}", budget=10)


def criterion_2() -> AcceptanceResult:
    """n = 1 distance against the hand closed form (2 + sqrt 2)/4."""
    t0 = perf_counter()
    d2 = distance_squared(P_BASE, 0, 1, bits=BITS).d_squared
    with working(BITS):
        err = abs(d2 - (2 + mp.sqrt(2)) / 4)
        ok = err < mpf(10) ** -30
    return _result(2, "one-dim-closed-form", t0, ok,
                   f"|d^2 - (2+sqrt2)/4| = {mp_to_str(err, 64)}")


def criterion_3() -> AcceptanceResult:
    """Floor from the zero at s = 0 when approximating at r = -1."""
    t0 = perf_counter()
    prof = distance_profile(P_BASE, -1, 128, bits=BITS)
    with working(BITS):
        low = min(d.d_squared for d in prof)
        ok = low >= mpf(8) / 9 - mpf(10) ** -20
    return _result(3, "floor-bound", t0, ok,
                   f"min d^2 over n <= 128: {mp_to_str(low, 64)} vs 8/9")


def criterion_4() -> AcceptanceResult:
    """Partial spectral sums bracket the cotangent closed form."""
    t0 = perf_counter()
    details = []
    ok = True
    with working(BITS):
        target = mp.log(2) / mp.tanh(mp.log(2) / 4)
    for T in (10 ** 2, 10 ** 3, 10 ** 4):
        t_one = perf_counter()
        c = constant_C(P_BASE, 0, T, Fraction(1, 10 ** 9), bits=BITS)
        elapsed_one = perf_counter() - t_one
        with working(BITS):
            err = abs(c.partial + c.tail_bound / 2 - target)
            this_ok = err <= c.tail_bound and elapsed_one < 60
        ok = ok and this_ok
        details.append(f"T=10^{len(str(T)) - 1}: err {mp_to_str(err, 64)} "
                       f"vs tail {mp_to_str(c.tail_bound, 64)} [{elapsed_one:.1f}s]")
    return _result(4, "spectral-constant", t0, ok, "; ".join(details))


def criterion_5() -> AcceptanceResult:
    """d^2 dominates the kernel-interpolation lower bound at every n."""
    t0 = perf_counter()
    with working(BITS):
        step = 2 * mp.pi / mp.log(2)
        ords = (mpf(0), step, 2 * step)
        prof = distance_profile(P_BASE, 0, 128, bits=BITS)
        worst = None
        ns = (4, 8, 16, 32, 64, 128)
        for n, sol in zip(ns, _min_norms([2 * n for n in ns], ords, BITS)):
            if isinstance(sol, NSingular):
                raise sol
            margin = prof[n - 1].d_squared - sol.value
            if worst is None or margin < worst:
                worst = margin
        ok = worst >= -(mpf(10) ** -20)
    return _result(5, "lower-bound-inequality", t0, ok,
                   f"worst margin d^2 - bound: {mp_to_str(worst, 64)}")


def criterion_6() -> AcceptanceResult:
    """Eleven lattice zeros located to 1e-20, and a double zero detected."""
    t0 = perf_counter()
    zs = find_zeros(P_BASE, Rectangle(-1, 1, Fraction(1, 2), Fraction(201, 2)),
                    tol=Fraction(1, 10 ** 30), bits=BITS)
    with working(BITS):
        tol = mpf(10) ** -20
        ok = zs.total_count == 11 and len(zs.zeros) == 11
        worst = mpf(0)
        if ok:
            step = 2 * mp.pi / mp.log(2)
            for k, (z, mult) in enumerate(zs.zeros, start=1):
                worst = max(worst, abs(z - mpc(0, k * step)))
                ok = ok and mult == 1
            ok = ok and worst < tol
        zd = find_zeros(P_SQUARED, Rectangle(Fraction(-2, 5), Fraction(2, 5),
                                             Fraction(-2, 5), Fraction(2, 5)),
                        tol=Fraction(1, 10 ** 30), bits=BITS)
        double_ok = (zd.total_count == 2 and len(zd.zeros) == 1
                     and zd.zeros[0][1] == 2 and abs(zd.zeros[0][0]) < tol)
        ok = ok and double_ok
    return _result(6, "zero-census", t0, ok,
                   f"count {zs.total_count}/11, worst offset {mp_to_str(worst, 64)}, "
                   f"double-zero mult {zd.zeros[0][1] if zd.zeros else 'none'}",
                   budget=30)


def criterion_7() -> AcceptanceResult:
    """Orthonormality of the first 500 system elements."""
    t0 = perf_counter()
    dev = psi_inner_max_deviation(500, bits=BITS)
    with working(BITS):
        ok = dev < mpf(2) ** -230
    return _result(7, "orthonormality", t0, ok,
                   f"max |<psi_n, psi_m> - delta| = {mp_to_str(dev, 64)}",
                   budget=5)


def criterion_8() -> AcceptanceResult:
    """Diagonal kernel growth ratio near (1/4) log n, decreasing."""
    t0 = perf_counter()
    rows = kernel_asymptotics_report(0, (10 ** 4, 10 ** 5, 10 ** 6), bits=BITS)
    with working(BITS):
        ratios = [row.ratio for row in rows]
        ok = (mpf(1) <= ratios[-1] <= mpf("1.6")
              and ratios[0] > ratios[1] > ratios[2])
    return _result(8, "kernel-trend", t0, ok,
                   "ratios " + ", ".join(mp_to_str(x, 64)[:10] for x in ratios),
                   budget=10)


def criterion_9() -> AcceptanceResult:
    """Strict decay and fitted slope at r = 1/2 up to n = 256."""
    t0 = perf_counter()
    cfg = ExperimentConfig(poly="1:1,2:-1", r=Fraction(1, 2), precision_bits=BITS)
    fit = run_decay_fit(cfg)
    rows = fit.rows
    strict = all(b.d_squared < a.d_squared for a, b in zip(rows, rows[1:]))
    ok = strict and fit.slope <= -0.2
    return _result(9, "decay-rate", t0, ok,
                   f"strictly decreasing: {strict}, slope {fit.slope:.4f} "
                   f"(rss {fit.residual:.3e})", budget=600)


def criterion_10() -> AcceptanceResult:
    """Mellin identity and det-ratio/projection agreement on random data."""
    t0 = perf_counter()
    rng = random.Random(20260815)

    def frac(lo=-4, hi=4, nonzero=False):
        num = rng.randint(lo, hi)
        while nonzero and num == 0:
            num = rng.randint(lo, hi)
        return Fraction(num, rng.randint(1, 3))

    worst_mellin = mpf(0)
    worst_agree = mpf(0)
    with working(BITS):
        s_values = (Fraction(1, 2), mpc(mpf(1) / 2, 1), mpc(mpf(1) / 2, 10))
        for _ in range(20):
            m = rng.randint(2, 6)
            coeffs = [frac(nonzero=True)]
            coeffs.extend(frac() for _ in range(m - 2))
            coeffs.append(frac(nonzero=True))
            P = DirichletPolynomial(coeffs)
            r = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            n = rng.randint(1, 8)
            b = [GaussianRational(frac(), frac()) for _ in range(n)]
            for s in s_values:
                res = mellin_identity_residual(P, r, b, s, bits=BITS)
                worst_mellin = max(worst_mellin, res)
            a = distance_squared(P, r, n, method="det-ratio", bits=BITS).d_squared
            p = distance_squared(P, r, n, method="projection", bits=BITS).d_squared
            denom = max(a, p)
            if denom > 0:
                worst_agree = max(worst_agree, abs(a - p) / denom)
        ok = worst_mellin < mpf(2) ** -200 and worst_agree <= mpf(2) ** -128
    return _result(10, "identity-suite", t0, ok,
                   f"worst Mellin residual {mp_to_str(worst_mellin, 64)}, "
                   f"worst method disagreement {mp_to_str(worst_agree, 64)}")


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_acceptance(indices=None) -> list:
    """All (or the selected) criteria, in index order."""
    if indices is None:
        indices = sorted(CRITERIA)
    bad = [i for i in indices if i not in CRITERIA]
    if bad:
        raise ValueError(f"unknown criteria {bad}; valid: 1..10")
    return [CRITERIA[i]() for i in sorted(indices)]
