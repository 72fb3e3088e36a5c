"""Command-line interface.

Exit codes: 0 success, 1 configuration or I/O problems (including bad
flags), 2 mathematical failures (singular systems, contour trouble,
precision exhaustion, failed acceptance criteria).
"""

import argparse
import json
import sys
from typing import Optional

from mpmath import mp, mpf

from .acceptance import run_acceptance
from .config import config_from_json, load_config, parse_rect
from .dpcore import DirichletPolynomial
from .errors import XdpError
from .exact import as_fraction, to_mp
from .experiments import (_write_sweep, constant_c_json, decay_fit_json,
                          report_to_json, run_criterion_report, run_decay_fit,
                          run_distance_sweep, zero_report_json)
from .cache import cache_gc
from .lubinsky import kernel_asymptotics_report, min_norm, psi_eval
from .numio import mp_to_str
from .precision import resolve_bits, working
from .zeros import constant_C, find_zeros


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(sp, *names):
    flags = {
        "poly": lambda: sp.add_argument("--poly"),
        "r": lambda: sp.add_argument("--r"),
        "n_max": lambda: sp.add_argument("--n-max", type=int, dest="n_max"),
        "schedule": lambda: sp.add_argument("--schedule"),
        "precision": lambda: sp.add_argument("--precision", type=int),
        "rect": lambda: sp.add_argument("--rect"),
        "height": lambda: sp.add_argument("--height"),
        "out": lambda: sp.add_argument("--out"),
        "format": lambda: sp.add_argument("--format", choices=("csv", "json")),
        "cache_dir": lambda: sp.add_argument("--cache-dir", dest="cache_dir"),
        "config": lambda: sp.add_argument("--config"),
        "line_tol": lambda: sp.add_argument("--line-tol", dest="line_tol"),
    }
    for name in names:
        flags[name]()


def _build_parser():
    parser = _Parser(prog="xdp",
                     description="Approximation distances, zero census, and "
                                 "orthogonal-system bounds for Dirichlet polynomials")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("distance", help="d^2 sweep over a schedule of n")
    _add_common(sp, "poly", "r", "n_max", "schedule", "precision", "out",
                "format", "cache_dir", "config")

    sp = sub.add_parser("zeros", help="zero census inside a rectangle")
    _add_common(sp, "poly", "rect", "precision", "out")
    sp.add_argument("--tol")

    sp = sub.add_parser("constant-c", help="spectral constant partial sum")
    _add_common(sp, "poly", "r", "height", "precision", "out", "line_tol")

    sp = sub.add_parser("lubinsky", help="kernel asymptotics table")
    _add_common(sp, "precision", "out")
    sp.add_argument("--u", required=True)
    sp.add_argument("--n-grid", required=True, dest="n_grid")

    sp = sub.add_parser("min-norm", help="minimum-norm interpolation value")
    _add_common(sp, "precision", "out")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", required=True)

    sp = sub.add_parser("report", help="zero census + constant + sweep with verdict")
    _add_common(sp, "poly", "r", "n_max", "schedule", "precision", "rect",
                "height", "out", "cache_dir", "config", "line_tol")

    sp = sub.add_parser("decay-fit", help="slope of log d^2 against log n")
    _add_common(sp, "poly", "r", "n_max", "schedule", "precision", "out",
                "cache_dir", "config")

    sp = sub.add_parser("validate", help="run the acceptance suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--criteria")

    sp = sub.add_parser("cache-gc", help="evict least-recently-used cache entries")
    sp.add_argument("--cache-dir", required=True, dest="cache_dir")
    sp.add_argument("--max-bytes", type=int, required=True, dest="max_bytes")

    return parser, sub


def _load_cfg(args, extra: Optional[dict] = None):
    overrides = {"poly": getattr(args, "poly", None),
                 "r": getattr(args, "r", None),
                 "schedule": getattr(args, "schedule", None),
                 "n_max": getattr(args, "n_max", None),
                 "precision_bits": getattr(args, "precision", None),
                 "rect": getattr(args, "rect", None),
                 "T": getattr(args, "height", None),
                 "output": getattr(args, "out", None),
                 "format": getattr(args, "format", None),
                 "cache_dir": getattr(args, "cache_dir", None),
                 "line_tol": getattr(args, "line_tol", None)}
    overrides.update(extra or {})
    if getattr(args, "config", None):
        return load_config(args.config, overrides)
    return config_from_json({}, overrides)


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=1)
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_distance(args) -> int:
    cfg = _load_cfg(args)
    rows = run_distance_sweep(cfg)
    if cfg.output is None:
        _write_sweep(rows, cfg.format, sys.stdout)
    return 0


def _cmd_zeros(args) -> int:
    if args.poly is None or args.rect is None:
        raise _UsageError("zeros needs --poly and --rect")
    P = DirichletPolynomial.parse(args.poly)
    bits = resolve_bits(args.precision)
    rect = parse_rect(args.rect)
    tol = as_fraction(args.tol) if args.tol is not None else None
    zs = find_zeros(P, rect, tol=tol, bits=bits)
    _emit(zero_report_json(P, zs, bits), args.out)
    return 0


def _cmd_constant_c(args) -> int:
    if args.poly is None or args.height is None:
        raise _UsageError("constant-c needs --poly and --height")
    P = DirichletPolynomial.parse(args.poly)
    bits = resolve_bits(args.precision)
    r = as_fraction(args.r) if args.r is not None else 0
    line_tol = as_fraction(args.line_tol) if args.line_tol is not None \
        else as_fraction("1e-9")
    c = constant_C(P, r, as_fraction(args.height), line_tol, bits=bits)
    _emit(constant_c_json(c, bits), args.out)
    return 0


def _cmd_lubinsky(args) -> int:
    bits = resolve_bits(args.precision)
    grid = tuple(int(p) for p in args.n_grid.split(","))
    rows = kernel_asymptotics_report(as_fraction(args.u), grid, bits=bits)
    with working(bits):
        u_str = mp_to_str(to_mp(as_fraction(args.u)), bits)
    lines = ["n,u,K_n,ratio"]
    for row in rows:
        lines.append(f"{row.n},{u_str},{mp_to_str(row.value, bits)},"
                     f"{mp_to_str(row.ratio, bits)}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _cmd_min_norm(args) -> int:
    bits = resolve_bits(args.precision)
    with working(bits):
        ts = [to_mp(as_fraction(p)) for p in args.t.split(",")]
        sol = min_norm(args.n, ts, bits=bits, with_coeffs=True)
        worst = mpf(0)
        for t in ts:
            val = mp.fsum(c * psi_eval(k + 1, t, bits=bits)
                          for k, c in enumerate(sol.coeffs))
            worst = max(worst, abs(val - 1))
    _emit({"n": args.n,
           "t": [mp_to_str(t, bits) for t in ts],
           "value": mp_to_str(sol.value, bits),
           "interp_residual": mp_to_str(worst, bits)}, args.out)
    return 0


def _cmd_report(args) -> int:
    cfg = _load_cfg(args)
    rep = run_criterion_report(cfg)
    if cfg.output is None:
        _emit(report_to_json(rep, cfg.precision_bits), None)
    return 0


def _cmd_decay_fit(args) -> int:
    cfg = _load_cfg(args)
    fit = run_decay_fit(cfg)
    if cfg.output is None:
        _emit(decay_fit_json(fit), None)
    return 0


def _cmd_validate(args) -> int:
    if args.suite != "acceptance":
        raise ValueError(f"unknown suite {args.suite!r}")
    indices = None
    if args.criteria is not None:
        indices = tuple(int(p) for p in args.criteria.split(","))
    results = run_acceptance(indices)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.index:2d} {res.name} ({res.elapsed:.2f}s): {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 2


def _cmd_cache_gc(args) -> int:
    print(cache_gc(args.cache_dir, args.max_bytes))
    return 0


_DISPATCH = {
    "distance": _cmd_distance,
    "zeros": _cmd_zeros,
    "constant-c": _cmd_constant_c,
    "lubinsky": _cmd_lubinsky,
    "min-norm": _cmd_min_norm,
    "report": _cmd_report,
    "decay-fit": _cmd_decay_fit,
    "validate": _cmd_validate,
    "cache-gc": _cmd_cache_gc,
}


def _attach_dash_values(sub, argv: list) -> list:
    """Rewrite '--opt value' as '--opt=value' where --opt takes a value and
    the value starts with '-' ('--rect -1,1,1/2,20', '--t -1/2,3'): argparse
    reads such a value as an option unless it is a plain negative number."""
    # argparse has no public map from option string to action
    actions = {opt: action for sp in sub.choices.values()
               for opt, action in sp._option_string_actions.items()}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        takes_value = tok in actions and actions[tok].nargs is None
        if (takes_value and i + 1 < len(argv) and argv[i + 1].startswith("-")
                and argv[i + 1].split("=", 1)[0] not in actions):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser, sub = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_dash_values(sub, argv))
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"xdp: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"xdp: {exc}", file=sys.stderr)
        return 1
    except XdpError as exc:
        print(f"xdp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
