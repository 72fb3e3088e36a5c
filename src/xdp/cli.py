"""Command-line interface.

Each subcommand reads its flags (through ``_load_cfg`` where they are
config keys), calls one library function and writes its result once, through
``_emit``: the library computes and opens no file.

Exit codes: 0 success, 1 configuration or I/O problems (including bad
flags), 2 mathematical failures (singular systems, contour trouble,
precision exhaustion, failed acceptance criteria).
"""

import argparse
import json
import sys
from typing import Optional

from .acceptance import run_acceptance
from .config import config_from_json, load_config
from .errors import XdpError
from .exact import as_fraction, to_mp
from .experiments import (_sweep_text, constant_c_json, decay_fit_json,
                          report_to_json, run_criterion_report, run_decay_fit,
                          run_distance_sweep, zero_report_json)
from .cache import cache_gc
from .lubinsky import kernel_asymptotics_report, min_norm
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


def _emit(result, out: Optional[str]) -> None:
    """Write a subcommand's result to the file out, or to stdout when out is
    None: ready text as it is, a JSON payload with indent 1. A payload
    printed to stdout ends with a newline; its file does not."""
    if isinstance(result, str):
        text, end = result, ""
    else:
        text, end = json.dumps(result, indent=1), "\n"
    if out is None:
        sys.stdout.write(text + end)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_distance(args) -> int:
    cfg = _load_cfg(args)
    _emit(_sweep_text(run_distance_sweep(cfg), cfg.format), cfg.output)
    return 0


def _cmd_zeros(args) -> int:
    if args.poly is None or args.rect is None:
        raise _UsageError("zeros needs --poly and --rect")
    cfg = _load_cfg(args)
    P = cfg.polynomial()
    tol = as_fraction(args.tol) if args.tol is not None else None
    zs = find_zeros(P, cfg.rect, tol=tol, bits=cfg.precision_bits)
    _emit(zero_report_json(P, zs, cfg.precision_bits), cfg.output)
    return 0


def _cmd_constant_c(args) -> int:
    if args.poly is None or args.height is None:
        raise _UsageError("constant-c needs --poly and --height")
    cfg = _load_cfg(args)
    c = constant_C(cfg.polynomial(), cfg.r, cfg.T, cfg.line_tol,
                   bits=cfg.precision_bits)
    _emit(constant_c_json(c, cfg.precision_bits), cfg.output)
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
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_min_norm(args) -> int:
    bits = resolve_bits(args.precision)
    sol = min_norm(args.n, [as_fraction(p) for p in args.t.split(",")], bits)
    _emit({"n": args.n,
           "t": [mp_to_str(t, bits) for t in sol.t],
           "value": mp_to_str(sol.value, bits),
           "interp_residual": mp_to_str(sol.residual, bits)}, args.out)
    return 0


def _cmd_report(args) -> int:
    cfg = _load_cfg(args)
    _emit(report_to_json(run_criterion_report(cfg), cfg.precision_bits), cfg.output)
    return 0


def _cmd_decay_fit(args) -> int:
    cfg = _load_cfg(args)
    _emit(decay_fit_json(run_decay_fit(cfg)), cfg.output)
    return 0


def _cmd_validate(args) -> int:
    if args.suite != "acceptance":
        raise ValueError(f"unknown suite {args.suite!r}")
    indices = None
    if args.criteria is not None:
        indices = tuple(int(p) for p in args.criteria.split(","))
    results = run_acceptance(indices)
    failed = sum(not res.passed for res in results)
    lines = [f"{'PASS' if res.passed else 'FAIL'} {res.index:2d} {res.name} "
             f"({res.elapsed:.2f}s): {res.detail}\n" for res in results]
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed\n")
    _emit("".join(lines), None)
    return 0 if failed == 0 else 2


def _cmd_cache_gc(args) -> int:
    _emit(f"{cache_gc(args.cache_dir, args.max_bytes)}\n", None)
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
