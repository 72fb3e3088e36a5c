"""Spans recorded at xdp's module boundaries, and the per-layer metrics.

A traced pass replaces functions at the names their callers bound and puts
the originals back afterwards; an untraced pass runs with nothing replaced.
Three kinds of name are wrapped:

* every function one layer module imported from another (``from .linalg
  import ldl_pivot_stream`` in ``distance``, ``from .cache import load_gram``
  in ``experiments``, ...), found by scanning the modules, so a boundary
  that a later version adds or removes needs no change here;
* the entry points the workloads call (``distance.distance_profile``, ...);
* a few functions that matter as layers but are called from inside their own
  module (``zeros.winding_count`` from ``_split_cell``, ``distance._build_gram``,
  ``lubinsky.kernel_matrix``, ``numio.mp_to_str`` from ``mpc_to_pair``).

Each span holds its name (``<layer>.<function>``), start, end, parent span,
job id and, for the functions in ``COUNTERS``, counts taken from the call's
arguments and return value after the span's end time is read. Spans stay in
memory; ``write_spans`` writes them out at the end of a run. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from mpmath import mpc
from xdp.cache import cache_path

LAYERS = ("cli", "experiments", "distance", "dpcore", "linalg", "cache",
          "numio", "zeros", "lubinsky")

ENTRY_POINTS = (
    ("distance", "distance_profile"), ("distance", "distance_squared"),
    ("zeros", "find_zeros"), ("zeros", "constant_C"),
    ("lubinsky", "kernel_asymptotics_report"),
    ("lubinsky", "psi_inner_max_deviation"), ("lubinsky", "min_norm"),
    ("cli", "main"),
)
INNER_CALLS = (
    ("zeros", "winding_count"), ("distance", "_build_gram"),
    ("lubinsky", "kernel_matrix"), ("numio", "mp_to_str"),
)


class Recorder:
    """In-memory span list with a parent stack; one per traced run."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.enabled = True
        self._stack = []

    def call(self, name, fn, counter, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.job, None)
        if counter is not None:
            self.spans[sid] = (name, t0, t1, parent, self.job,
                               counter(*args, **kwargs, result=result))
        return result


# =========================================================================
# counts from arguments and return values
# =========================================================================

def _matrix_counts(A):
    n = len(A)
    cplx = sum(1 for row in A for x in row if isinstance(x, mpc))
    return {"order": n, "entries": n * n, "complex": cplx}


def _count_stream(A, result):
    counts = _matrix_counts(A)
    n = counts["order"]
    counts["pivots"] = len(result)
    counts["ops"] = sum((n - j - 1) ** 2 for j, p in enumerate(result) if p > 0)
    return counts


def _count_factor(A, pivot=True, result=None):
    return _matrix_counts(A)


def _count_build(P, r, n, bits, result=None):
    return {"entries": n * (n + 1) // 2 + n}


def _count_kappa(P, r, bits=None, result=None):
    return {"exact": int(result.exact)}


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _count_load(cache_dir, P, r, bits, n_min, result=None):
    hit = result is not None
    return {"hit": int(hit),
            "bytes": _file_size(cache_path(cache_dir, P, r, bits)) if hit else 0}


def _count_store(*args, result=None, **kwargs):
    return {"bytes": _file_size(result)}


def _count_zero_set(*args, result=None, **kwargs):
    return {"zeros": len(result.zeros)}


def _count_constant(*args, result=None, **kwargs):
    return {"zeros": len(result.ordinates)}


def _count_asym(u, n_grid, bits=None, result=None):
    return {"terms": max(int(n) for n in n_grid)}


def _count_ortho(n_max, bits=None, result=None):
    return {"pairs": n_max * (n_max + 1) // 2}


COUNTERS = {
    "linalg.ldl_pivot_stream": _count_stream,
    "linalg.ldl_factor": _count_factor,
    "distance._build_gram": _count_build,
    "dpcore.kappa_partial_sums": _count_kappa,
    "cache.load_gram": _count_load,
    "cache.store_gram": _count_store,
    "zeros.find_zeros": _count_zero_set,
    "zeros.constant_C": _count_constant,
    "lubinsky.kernel_asymptotics_report": _count_asym,
    "lubinsky.psi_inner_max_deviation": _count_ortho,
}


# =========================================================================
# installing and removing wrappers
# =========================================================================

def _layer_of(fn):
    mod = getattr(fn, "__module__", "") or ""
    if mod.startswith("xdp.") and mod[4:] in LAYERS:
        return mod[4:]
    return None


def _targets():
    """(module, attribute, span name) for every name to wrap."""
    modules = {name: importlib.import_module(f"xdp.{name}") for name in LAYERS}
    out = []
    for layer, mod in modules.items():
        for attr, val in vars(mod).items():
            if isinstance(val, types.FunctionType):
                home = _layer_of(val)
                if home is not None and home != layer:
                    out.append((mod, attr, f"{home}.{val.__name__}"))
    for layer, attr in ENTRY_POINTS + INNER_CALLS:
        if isinstance(getattr(modules[layer], attr, None), types.FunctionType):
            out.append((modules[layer], attr, f"{layer}.{attr}"))
    return out


@contextmanager
def traced(recorder: Recorder):
    """Wrap every target for the duration of the block."""
    patched = []
    try:
        for mod, attr, name in _targets():
            original = getattr(mod, attr)
            counter = COUNTERS.get(name)

            def wrapper(*args, _fn=original, _name=name, _counter=counter, **kwargs):
                return recorder.call(_name, _fn, _counter, args, kwargs)

            setattr(mod, attr, functools.update_wrapper(wrapper, original))
            patched.append((mod, attr, original))
        yield recorder
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


# =========================================================================
# per-layer metrics
# =========================================================================

def _sums(spans):
    """Per span name: calls, total and self seconds, summed counts."""
    child = defaultdict(float)
    for name, t0, t1, parent, job, counts in spans:
        if parent is not None:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    entries = defaultdict(int)
    counts_sum = defaultdict(lambda: defaultdict(int))
    for sid, (name, t0, t1, parent, job, counts) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        own = (t1 - t0) - child[sid]
        self_s[name] += own
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        if parent is None or spans[parent][0].split(".", 1)[0] != layer:
            entries[layer] += 1
        for key, val in (counts or {}).items():
            counts_sum[name][key] += val
    return calls, total, self_s, layer_self, entries, counts_sum


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans) -> dict:
    """Every per-layer metric, as plain numbers, from one traced pass."""
    calls, total, self_s, layer_self, entries, c = _sums(spans)
    stream = c["linalg.ldl_pivot_stream"]
    factor = c["linalg.ldl_factor"]
    kappa = c["dpcore.kappa_partial_sums"]
    load = c["cache.load_gram"]
    winding = calls["zeros.winding_count"]
    found = c["zeros.find_zeros"]["zeros"] + c["zeros.constant_C"]["zeros"]
    terms = c["lubinsky.kernel_asymptotics_report"]["terms"]
    asym_s = total["lubinsky.kernel_asymptotics_report"]
    return {
        "distance.self_s": layer_self["distance"],
        "distance.calls": entries["distance"],
        "distance.gram_entries": c["distance._build_gram"]["entries"],
        "dpcore.kappa_calls": calls["dpcore.kappa_partial_sums"],
        "dpcore.kappa_exact_frac": _ratio(kappa["exact"],
                                          calls["dpcore.kappa_partial_sums"]),
        "dpcore.strip_bounds_s": total["dpcore.strip_bounds"],
        "dpcore.dp_eval_calls": calls["dpcore.dp_eval"],
        "linalg.stream_s": total["linalg.ldl_pivot_stream"],
        "linalg.stream_calls": calls["linalg.ldl_pivot_stream"],
        "linalg.stream_order": stream["order"],
        "linalg.stream_pivots": stream["pivots"],
        "linalg.stream_useful_frac": _ratio(stream["pivots"], stream["order"]),
        "linalg.stream_ops": stream["ops"],
        "linalg.entry_complex_frac": _ratio(stream["complex"] + factor["complex"],
                                            stream["entries"] + factor["entries"]),
        "linalg.factor_s": total["linalg.ldl_factor"],
        "linalg.factor_calls": calls["linalg.ldl_factor"],
        "linalg.solve_s": total["linalg.ldl_solve"],
        "cache.load_s": total["cache.load_gram"],
        "cache.hits": load["hit"],
        "cache.hit_frac": _ratio(load["hit"], calls["cache.load_gram"]),
        "cache.bytes_read": load["bytes"],
        "cache.store_s": total["cache.store_gram"],
        "cache.bytes_written": c["cache.store_gram"]["bytes"],
        "numio.mp_to_str_calls": calls["numio.mp_to_str"],
        "numio.mp_to_str_s": total["numio.mp_to_str"],
        "experiments.self_s": layer_self["experiments"],
        "cli.self_s": layer_self["cli"],
        "zeros.winding_s": total["zeros.winding_count"],
        "zeros.winding_calls": winding,
        "zeros.find_self_s": self_s["zeros.find_zeros"],
        "zeros.constant_c_self_s": self_s["zeros.constant_C"],
        "zeros.zeros_found": found,
        "zeros.windings_per_zero": _ratio(winding, found),
        "lubinsky.asym_s": asym_s,
        "lubinsky.kernel_terms": terms,
        "lubinsky.terms_per_s": _ratio(terms, asym_s),
        "lubinsky.ortho_s": total["lubinsky.psi_inner_max_deviation"],
        "lubinsky.ortho_pairs": c["lubinsky.psi_inner_max_deviation"]["pairs"],
        "lubinsky.kernel_matrix_s": total["lubinsky.kernel_matrix"],
        "lubinsky.min_norm_self_s": self_s["lubinsky.min_norm"],
    }


def write_spans(recorders, path: Path) -> None:
    """One JSON object per span, numbered across all recorders in order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    with open(path, "w") as fh:
        for rec in recorders:
            for sid, (name, t0, t1, parent, job, counts) in enumerate(rec.spans):
                fh.write(json.dumps({
                    "id": offset + sid, "name": name, "start": t0, "end": t1,
                    "parent": None if parent is None else offset + parent,
                    "job": job, "counts": counts}) + "\n")
            offset += len(rec.spans)
