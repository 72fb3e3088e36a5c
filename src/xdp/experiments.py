"""Experiment orchestration: sweeps, criterion reports, decay fits.

The run_* functions compute and open no file; ``_sweep_text`` and the
``*_json`` functions give the text and JSON forms of their results, and the
CLI writes them. Everything here is deterministic for a fixed config and
cache state: numeric output goes through the exact decimal round-trip
serializers, so a warm-cache rerun reproduces the CLI's output byte for byte.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .cache import load_gram, store_gram
from .config import ExperimentConfig
from .distance import _audited_profile
from .dpcore import DirichletPolynomial, StripBounds, strip_bounds
from .errors import NSingular
from .exact import fraction_to_mpf
from .lubinsky import _min_norms
from .numio import mp_to_str
from .precision import working
from .zeros import ConstantC, ZeroSet, constant_C, find_zeros

SWEEP_COLUMNS = ("n", "d_squared", "d_squared_times_log_n",
                 "precision_bits", "min_pivot")


@dataclass(frozen=True)
class SweepRow:
    n: int
    d_squared: mpf
    d_squared_times_log_n: mpf
    precision_bits: int
    min_pivot: mpf


def run_distance_sweep(cfg: ExperimentConfig) -> list:
    """One SweepRow per scheduled n.

    With cfg.cache_dir, a stored profile covering the schedule is used as
    stored, at the precision it was computed at; on a miss the audited
    profile is computed and stored.
    """
    P = cfg.polynomial()
    n_max = cfg.n_schedule[-1]
    hit = None
    if cfg.cache_dir is not None:
        hit = load_gram(cfg.cache_dir, P, cfg.r, cfg.precision_bits, n_min=n_max)
    if hit is None:
        _, prof, used = _audited_profile(P, cfg.r, n_max, cfg.precision_bits)
        if cfg.cache_dir is not None:
            store_gram(cfg.cache_dir, P, cfg.r, cfg.precision_bits, prof, used)
    else:
        prof, used = hit
    with working(used):
        running = []
        for p in prof.pivots:
            running.append(p if not running else min(running[-1], p))
        rows = []
        for n in cfg.n_schedule:
            d2 = prof.d_squared[n - 1]
            rows.append(SweepRow(n=n, d_squared=d2,
                                 d_squared_times_log_n=d2 * mp.log(n),
                                 precision_bits=used,
                                 min_pivot=running[n - 1]))
    return rows


def _sweep_text(rows, fmt: str) -> str:
    """The sweep as CSV or JSON text; each row at its own precision."""
    def fmt_row(row):
        bits = row.precision_bits
        return {"n": row.n,
                "d_squared": mp_to_str(row.d_squared, bits),
                "d_squared_times_log_n": mp_to_str(row.d_squared_times_log_n, bits),
                "precision_bits": bits,
                "min_pivot": mp_to_str(row.min_pivot, bits)}

    if fmt == "json":
        return json.dumps({"columns": list(SWEEP_COLUMNS),
                           "rows": [fmt_row(r) for r in rows]}, indent=1)
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        d = fmt_row(row)
        writer.writerow([d[c] for c in SWEEP_COLUMNS])
    return fh.getvalue()


# =========================================================================
# decay fit
# =========================================================================

@dataclass(frozen=True)
class DecayFit:
    slope: float
    residual: float
    n_used: tuple
    rows: tuple          # the sweep's SweepRows the fit was taken from


def run_decay_fit(cfg: ExperimentConfig) -> DecayFit:
    """Least-squares slope of log d^2 against log n over the schedule's
    upper half; all-zero (or any exactly-zero) tail reports slope -inf."""
    rows = tuple(run_distance_sweep(cfg))
    half = cfg.n_schedule[len(cfg.n_schedule) // 2:]
    chosen = [row for row in rows if row.n in half]
    if any(row.d_squared <= 0 for row in chosen):
        return DecayFit(slope=float("-inf"), residual=0.0, n_used=tuple(half),
                        rows=rows)
    xs = [math.log(row.n) for row in chosen]
    ys = [math.log(float(row.d_squared)) for row in chosen]
    nn = len(xs)
    mx = sum(xs) / nn
    my = sum(ys) / nn
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        raise ValueError("decay fit needs at least two distinct n")
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
    inter = my - slope * mx
    rss = sum((y - (inter + slope * x)) ** 2 for x, y in zip(xs, ys))
    return DecayFit(slope=slope, residual=math.sqrt(rss / nn),
                    n_used=tuple(half), rows=rows)


def decay_fit_json(fit: DecayFit) -> dict:
    return {"slope": "-inf" if fit.slope == float("-inf") else fit.slope,
            "residual": fit.residual, "n_used": list(fit.n_used)}


# =========================================================================
# criterion report
# =========================================================================

@dataclass(frozen=True)
class CriterionReport:
    strip: StripBounds
    zeros_found: ZeroSet
    C: ConstantC
    distances: tuple     # the sweep's SweepRows
    verdict: str
    evidence: tuple


def run_criterion_report(cfg: ExperimentConfig) -> CriterionReport:
    """Zero census + spectral constant + distance sweep, fused into one of
    the three verdicts. Verdicts only ever cite the recorded evidence."""
    if cfg.rect is None:
        raise ValueError("criterion report needs a rectangle")
    if cfg.T is None:
        raise ValueError("criterion report needs a height T")
    P = cfg.polynomial()
    bits = cfg.precision_bits
    rows = tuple(run_distance_sweep(cfg))     # first: it refuses an out-of-range r
    strip = strip_bounds(P, bits=bits)
    zs = find_zeros(P, cfg.rect, bits=bits)
    C = constant_C(P, cfg.r, cfg.T, cfg.line_tol, bits=bits)
    evidence = []
    with working(bits):
        r_mp, line_tol = fraction_to_mpf(cfg.r), fraction_to_mpf(cfg.line_tol)
        tol9 = mpf(10) ** -9
        ds = [row.d_squared for row in rows]

        # remark-1 floor from any located zero right of Re = r + line_tol
        floor = floor_zero = None
        for z, mult in zs.zeros:
            delta = mp.re(z) - r_mp
            if delta > line_tol:
                cand = 2 * delta / abs(z - (r_mp - mpf(1) / 2)) ** 2
                if floor is None or cand > floor:
                    floor, floor_zero = cand, z
        floor_observed = floor is not None and min(ds) >= floor - tol9
        if floor is not None:
            evidence.append(
                f"remark-1 floor {'observed' if floor_observed else 'violated'}: "
                f"min d^2 = {mp_to_str(min(ds), 64)} vs floor "
                f"{mp_to_str(floor, 64)} from zero at {floor_zero}")
        else:
            evidence.append("remark-1 floor not applicable: no located zero "
                            f"has Re(z) - r > line_tol = {cfg.line_tol}")

        # monotone decay
        monotone = all(b <= a for a, b in zip(ds, ds[1:])) \
            and (ds[-1] < ds[0] or ds[0] == 0)
        evidence.append("monotone decay observed" if monotone
                        else "monotone decay not observed")

        # lower-bound inequality from on-line ordinates
        theorem2 = True
        if len(C.ordinates) == 0:
            evidence.append("lower-bound inequality vacuous: no on-line zeros")
        else:
            worst = None
            sols = _min_norms([P.m * row.n for row in rows], C.ordinates, bits)
            for row, sol in zip(rows, sols):
                if isinstance(sol, NSingular):
                    continue
                gap = row.d_squared - sol.value
                if worst is None or gap < worst:
                    worst = gap
                if gap < -tol9:
                    theorem2 = False
            evidence.append(
                "lower-bound inequality not checked: the min-norm system is "
                "singular at every n" if worst is None else
                f"lower-bound inequality {'observed' if theorem2 else 'violated'}"
                f" (worst margin {mp_to_str(worst, 64)})")

    if floor_observed:
        verdict = "consistent-zeros-present"
    elif monotone and theorem2:
        verdict = "consistent-zero-free"
    else:
        verdict = "inconclusive"
    return CriterionReport(strip=strip, zeros_found=zs, C=C,
                           distances=rows, verdict=verdict,
                           evidence=tuple(evidence))


def zero_report_json(P: DirichletPolynomial, zs: ZeroSet, bits: int) -> dict:
    return {
        "poly": P.to_text(),
        "rect": [str(zs.rectangle.re_lo), str(zs.rectangle.re_hi),
                 str(zs.rectangle.im_lo), str(zs.rectangle.im_hi)],
        "zeros": [{"re": mp_to_str(mp.re(z), bits),
                   "im": mp_to_str(mp.im(z), bits),
                   "mult": mult,
                   "residual": mp_to_str(res, bits)}
                  for (z, mult), res in zip(zs.zeros, zs.residuals)],
        "count": zs.total_count,
    }


def constant_c_json(C: ConstantC, bits: int) -> dict:
    return {
        "r": str(C.r),
        "T": str(C.T),
        "partial": mp_to_str(C.partial, bits),
        "tail_bound": mp_to_str(C.tail_bound, bits),
        "line_tolerance": str(C.line_tolerance),
        "ordinates": [mp_to_str(t, bits) for t in C.ordinates],
        "multiplicities": list(C.multiplicities),
    }


def _edge_json(edge, bits: int):
    # a polynomial without zeros (m = 1) has no strip edges: JSON null
    return None if edge is None else mp_to_str(edge, bits)


def report_to_json(rep: CriterionReport, bits: int) -> dict:
    return {
        "strip": {"alpha": _edge_json(rep.strip.alpha, bits),
                  "beta": _edge_json(rep.strip.beta, bits),
                  "no_zeros": rep.strip.no_zeros},
        "zeros": {"count": rep.zeros_found.total_count,
                  "zeros": [{"re": mp_to_str(mp.re(z), bits),
                             "im": mp_to_str(mp.im(z), bits),
                             "mult": mult}
                            for z, mult in rep.zeros_found.zeros]},
        "C": constant_c_json(rep.C, bits),
        "distances": [{"n": d.n, "d_squared": mp_to_str(d.d_squared, bits)}
                      for d in rep.distances],
        "verdict": rep.verdict,
        "evidence": list(rep.evidence),
    }
