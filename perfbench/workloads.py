"""Seeded inputs, job lists and output checks for the three workloads.

A workload is a fixed list of jobs. Each job calls one public entry point of
``xdp`` (or the ``xdp distance`` command through ``xdp.cli.main``) on inputs
made here from the seed, and has a check that runs untimed after it. The seed
changes coefficients, ordinates and rectangle placement; it never changes a
term count, a coefficient height, a matrix order or a rectangle size, so two
seeds give passes of comparable cost.

Library functions are always looked up as module attributes at call time
(``distance.distance_profile``, never a local alias), so the tracer can wrap
them for a traced pass and restore them afterwards.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from mpmath import mp, mpc, mpf

from xdp import cli, distance, dpcore, lubinsky, zeros
from xdp.dpcore import DirichletPolynomial
from xdp.exact import GaussianRational

BITS = 256
WORKLOADS = ("dsq", "census", "kernels")

BASE = "1:1,2:-1"                 # 1 - 2^{-s}: zeros at 2 pi i k / log 2
SQUARED = "1:1,2:-2,4:1"          # (1 - 2^{-s})^2: double zero at 0

# dsq: profile order, sweep order and the shifts of each Gram path
PROFILE_N = 48
SWEEP_N = 48
R_EXACT = Fraction(1, 2)          # k^{1/2-r} = 1: Gaussian-rational Gram
R_MPF_BASE = Fraction(0)          # sqrt 2 is irrational: mpf Gram
R_MPF_SEEDED = Fraction(1, 3)     # k^{1/6} is irrational for k = 2, 3
R_SWEEP = Fraction(1, 2)

# census
LATTICE_RECT = (-1, 1, Fraction(1, 2), Fraction(201, 2))
DOUBLE_RECT = (Fraction(-2, 5), Fraction(2, 5), Fraction(-2, 5), Fraction(2, 5))
SEEDED_HEIGHT = 100
CONSTANT_T = 2000
LINE_TOL = Fraction(1, 10 ** 9)
ZERO_TOL = Fraction(1, 10 ** 30)

# kernels
DIAG_GRID = (10 ** 3, 10 ** 4, 10 ** 5)
OFFDIAG_GRID = (10 ** 3, 3 * 10 ** 3, 10 ** 4)
ORTHO_N = 250
MIN_NORM_N = 512
MIN_NORM_ORDINATES = 16

# seeded polynomials: 1 + a_2 2^{-s} + a_3 3^{-s} with the coefficient height
# and denominators fixed. Real coefficients are +-k/5, k = 1..4. Complex ones
# are (+-2 +- i)/3 or (+-1 +- 2i)/3, all of modulus sqrt(5)/3, so
# strip_bounds, and with it the width of the census rectangle, is the same
# for every seed.
REAL_COEFFS = tuple(Fraction(k, 5) for k in (-4, -3, -2, -1, 1, 2, 3, 4))


@dataclass(frozen=True)
class Job:
    """One timed call. ``run(ctx)`` returns the output; ``check(out, ctx)``
    returns None when the output is right, else a one-line reason."""

    kind: str
    label: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], Optional[str]]


# =========================================================================
# seeded inputs
# =========================================================================

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench|{workload}|{seed}")


def _coeff(rng: random.Random, complex_part: bool) -> GaussianRational:
    if not complex_part:
        return GaussianRational(rng.choice(REAL_COEFFS))
    a, b = rng.choice(((2, 1), (1, 2)))
    return GaussianRational(Fraction(rng.choice((-a, a)), 3),
                            Fraction(rng.choice((-b, b)), 3))


def seeded_poly(rng: random.Random, complex_part: bool) -> DirichletPolynomial:
    """Three terms, a_1 = 1 and seeded a_2, a_3 (see REAL_COEFFS)."""
    return DirichletPolynomial([GaussianRational(1), _coeff(rng, complex_part),
                                _coeff(rng, complex_part)])


def _edge_clear(P: DirichletPolynomial, z0: complex, z1: complex) -> bool:
    """|P| stays well away from 0 along the segment (numpy doubles)."""
    ks = np.array([k for k, _ in P.items()], dtype=np.float64)
    a = np.array([complex(float(c.re), float(c.im)) for _, c in P.items()])
    s = z0 + np.linspace(0.0, 1.0, 4001) * (z1 - z0)
    v = np.abs(np.exp(-np.multiply.outer(s, np.log(ks))) @ a)
    return bool(v.min() > 1e-2 * v.max())


def _outward(x, up: bool) -> Fraction:
    q = Fraction(float(x)).limit_denominator(64)
    return q + Fraction(1, 4) if up else q - Fraction(1, 4)


def census_rect(P: DirichletPolynomial, rng: random.Random):
    """The strip from strip_bounds, padded by 1/4, from Im ~ 1/2 to ~ 100.

    The horizontal edges move by seeded steps until |P| is clear of zero
    along them, so the census never meets a zero on its contour.
    """
    sb = dpcore.strip_bounds(P, bits=BITS)
    x0, x1 = _outward(sb.alpha, False), _outward(sb.beta, True)

    def clear_height(start: Fraction) -> Fraction:
        y = start
        while not _edge_clear(P, complex(float(x0), float(y)),
                              complex(float(x1), float(y))):
            y += Fraction(rng.randrange(1, 50), 100)
        return y

    lo = clear_height(Fraction(1, 2) + Fraction(rng.randrange(0, 25), 100))
    hi = clear_height(Fraction(SEEDED_HEIGHT) + Fraction(rng.randrange(0, 25), 100))
    return (x0, x1, lo, hi)


def lattice_step():
    with mp.workprec(BITS):
        return 2 * mp.pi / mp.log(2)


# =========================================================================
# output checks
# =========================================================================

def _profile_problem(values) -> Optional[str]:
    for i, v in enumerate(values):
        if not 0 <= v <= 1:
            return f"d^2 at n={i + 1} outside [0, 1]"
        if i and v > values[i - 1]:
            return f"d^2 increases at n={i + 1}"
    return None


def _check_profile(out, ctx):
    return _profile_problem([row.d_squared for row in out])


def _check_base_mpf(P: DirichletPolynomial):
    # The job's inputs never change within a run, so the projection
    # reference is computed once and every pass is compared against it.
    reference = []

    def check(out, ctx):
        values = [row.d_squared for row in out]
        problem = _profile_problem(values)
        if problem:
            return problem
        with mp.workprec(BITS):
            if abs(values[0] - (2 + mp.sqrt(2)) / 4) >= mpf(10) ** -30:
                return "d^2_1 differs from (2 + sqrt 2)/4 by 1e-30 or more"
        if not reference:
            reference.append(distance.distance_squared(
                P, R_MPF_BASE, PROFILE_N, method="projection", bits=BITS))
        with mp.workprec(BITS):
            a, b = values[-1], reference[0].d_squared
            if abs(a - b) > max(a, b) * mpf(2) ** -128:
                return f"profile and projection disagree at n={PROFILE_N}"
        return None
    return check


def _sweep_values(blob: bytes):
    with mp.workprec(BITS):
        return [mpf(row["d_squared"]) for row in json.loads(blob)["rows"]]


def _check_sweep(out, ctx):
    return _profile_problem(_sweep_values(out))


def _check_warm(out, ctx):
    if out != ctx["sweep_cold"]:
        return "warm sweep output differs from the cold sweep's"
    return _check_sweep(out, ctx)


def _check_multiplicities(zs) -> Optional[str]:
    if sum(m for _, m in zs.zeros) != zs.total_count:
        return "multiplicities do not sum to the contour count"
    return None


def _check_lattice(zs, ctx):
    problem = _check_multiplicities(zs)
    if problem:
        return problem
    if zs.total_count != 11 or len(zs.zeros) != 11:
        return f"lattice census found {zs.total_count} zeros, want 11"
    with mp.workprec(BITS):
        step = lattice_step()
        for k, (z, mult) in enumerate(zs.zeros, start=1):
            if mult != 1 or abs(z - mpc(0, k * step)) >= mpf(10) ** -20:
                return f"lattice zero {k} off k 2 pi/log 2 by 1e-20 or more"
    return None


def _check_double(zs, ctx):
    problem = _check_multiplicities(zs)
    if problem:
        return problem
    if zs.total_count != 2 or len(zs.zeros) != 1 or zs.zeros[0][1] != 2:
        return "double zero not found with multiplicity 2"
    with mp.workprec(BITS):
        if abs(zs.zeros[0][0]) >= mpf(10) ** -20:
            return "double zero not at 0"
    return None


def _check_seeded_census(zs, ctx):
    problem = _check_multiplicities(zs)
    if problem:
        return problem
    if zs.total_count < 1:
        return "seeded census found no zeros"
    return None


def _check_bracket(c, ctx):
    with mp.workprec(BITS):
        target = mp.log(2) / mp.tanh(mp.log(2) / 4)
        if abs(c.partial + c.tail_bound / 2 - target) > c.tail_bound:
            return "constant C partial sum misses the criterion-4 bracket"
    return None


def _check_kernel_trend(u):
    def check(rows, ctx):
        # |psi_k(u)|^2 ~ (1/4 + u^2)/k, so K_n(u,u)/((1/4) log n) tends to
        # 1 + 4u^2: down from above at u = 0, up from below otherwise.
        with mp.workprec(BITS):
            limit = 1 + 4 * mp.mpmathify(u) ** 2
            gaps = [abs(row.ratio - limit) for row in rows]
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            return "kernel ratios do not move monotonically toward 1 + 4u^2"
        return None
    return check


def _check_ortho(dev, ctx):
    with mp.workprec(BITS):
        if not dev < mpf(2) ** -230:
            return "orthonormality deviation not below 2^-230"
    return None


def _check_min_norm(sol, ctx):
    if not 0 < sol.value <= 1:
        return "min_norm value outside (0, 1]"
    return None


# =========================================================================
# job lists
# =========================================================================

def _profile_job(kind, P, r, check=_check_profile):
    return Job(kind, f"distance_profile {P} r={r} n={PROFILE_N}",
               lambda ctx: distance.distance_profile(P, r, PROFILE_N, bits=BITS),
               check)


def _sweep_job(kind, P, key):
    def run(ctx):
        out = ctx["dir"] / f"{key}.json"
        argv = ["distance", f"--poly={P}", f"--r={R_SWEEP}",
                f"--n-max={SWEEP_N}", "--format=json",
                f"--cache-dir={ctx['dir'] / 'cache'}", f"--out={out}"]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"xdp distance exited with {code}")
        ctx[key] = out.read_bytes()
        return ctx[key]
    return Job(kind, f"xdp distance {P} r={R_SWEEP} n-max={SWEEP_N}", run,
               _check_warm if key == "sweep_warm" else _check_sweep)


def dsq_jobs(seed: int):
    rng = _rng("dsq", seed)
    base = DirichletPolynomial.parse(BASE)
    P = seeded_poly(rng, complex_part=False)
    Q = seeded_poly(rng, complex_part=False)      # the sweep's own polynomial
    return [
        _profile_job("profile_exact", base, R_EXACT),
        _profile_job("profile_mpf", base, R_MPF_BASE, _check_base_mpf(base)),
        _profile_job("profile_exact", P, R_EXACT),
        _profile_job("profile_mpf", P, R_MPF_SEEDED),
        _sweep_job("sweep_cold", Q, "sweep_cold"),
        _sweep_job("sweep_warm", Q, "sweep_warm"),
    ]


def _zeros_job(P, rect, check):
    return Job("census", f"find_zeros {P} {rect}",
               lambda ctx: zeros.find_zeros(P, rect, tol=ZERO_TOL, bits=BITS),
               check)


def census_jobs(seed: int):
    rng = _rng("census", seed)
    base = DirichletPolynomial.parse(BASE)
    P = seeded_poly(rng, complex_part=True)
    rect = zeros.Rectangle(*census_rect(P, rng))
    return [
        _zeros_job(base, zeros.Rectangle(*LATTICE_RECT), _check_lattice),
        _zeros_job(DirichletPolynomial.parse(SQUARED),
                   zeros.Rectangle(*DOUBLE_RECT), _check_double),
        _zeros_job(P, rect, _check_seeded_census),
        Job("constant_c", f"constant_C {base} r=0 T={CONSTANT_T}",
            lambda ctx: zeros.constant_C(base, 0, CONSTANT_T, LINE_TOL, bits=BITS),
            _check_bracket),
    ]


def kernels_jobs(seed: int):
    rng = _rng("kernels", seed)
    step = lattice_step()
    ks = sorted(rng.sample(range(-32, 33), MIN_NORM_ORDINATES))
    with mp.workprec(BITS):
        ordinates = [k * step for k in ks]
    return [
        Job("kernel_diag", f"kernel_asymptotics_report u=0 {DIAG_GRID}",
            lambda ctx: lubinsky.kernel_asymptotics_report(0, DIAG_GRID, bits=BITS),
            _check_kernel_trend(0)),
        Job("kernel_offdiag", f"kernel_asymptotics_report u=2pi/log2 {OFFDIAG_GRID}",
            lambda ctx: lubinsky.kernel_asymptotics_report(step, OFFDIAG_GRID, bits=BITS),
            _check_kernel_trend(step)),
        Job("ortho", f"psi_inner_max_deviation {ORTHO_N}",
            lambda ctx: lubinsky.psi_inner_max_deviation(ORTHO_N, bits=BITS),
            _check_ortho),
        Job("min_norm", f"min_norm n={MIN_NORM_N} k={ks}",
            lambda ctx: lubinsky.min_norm(MIN_NORM_N, ordinates, bits=BITS),
            _check_min_norm),
    ]


JOB_LISTS = {"dsq": dsq_jobs, "census": census_jobs, "kernels": kernels_jobs}

# Job kinds per workload, in the order their times are reported.
KINDS = {
    "dsq": ("profile_exact", "profile_mpf", "sweep_cold", "sweep_warm"),
    "census": ("census", "constant_c"),
    "kernels": ("kernel_diag", "kernel_offdiag", "ortho", "min_norm"),
}


def build(workload: str, seed: int) -> list:
    return JOB_LISTS[workload](seed)


def warm_up(workload: str) -> None:
    """Fill mpmath's constant caches and the quadrature node tables with a
    small instance of each job kind, so timed passes start warm."""
    base = DirichletPolynomial.parse(BASE)
    if workload == "dsq":
        for r in (R_EXACT, R_MPF_BASE, R_MPF_SEEDED):
            distance.distance_profile(base, r, 4, bits=BITS)
    elif workload == "census":
        zeros.find_zeros(base, zeros.Rectangle(-1, 1, Fraction(1, 2), 10),
                         tol=ZERO_TOL, bits=BITS)
        zeros.constant_C(base, 0, 20, LINE_TOL, bits=BITS)
    else:
        step = lattice_step()
        lubinsky.kernel_asymptotics_report(step, (2, 4), bits=BITS)
        lubinsky.psi_inner_max_deviation(4, bits=BITS)
        lubinsky.min_norm(8, [0, step], bits=BITS)


# =========================================================================
# output digests
# =========================================================================

def canonical(obj) -> str:
    """Exact text form of a job output: mpf/mpc by their binary tuples."""
    if isinstance(obj, mpf):
        return f"f{obj._mpf_}"
    if isinstance(obj, mpc):
        return f"c{obj._mpc_}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(x) for x in obj) + "]"
    if isinstance(obj, bytes):
        return "b" + hashlib.sha256(obj).hexdigest()
    if is_dataclass(obj):
        return type(obj).__name__ + "{" + ",".join(
            f"{f.name}={canonical(getattr(obj, f.name))}" for f in fields(obj)) + "}"
    if isinstance(obj, (int, str, Fraction)) or obj is None:
        return repr(obj)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()
