"""Benchmark runner for xdp.

    python3 perfbench/run.py --workload dsq --seed 1 --seconds 42 --trace 0

Runs from the root of a checkout, imports ``xdp`` from ``src/`` and drives
one workload (``dsq``, ``census``, ``kernels``, or ``all`` for the three in
turn) in this one process and thread. A run:

1. starts ``SETUP_PROBES`` fresh interpreters that each import ``xdp`` and
   finish the workload's warm-up, and reports the median as ``setup_s``
   (untraced runs only);
2. warms up in-process and makes the workload's inputs from ``--seed``;
3. runs whole passes over the job list while the next pass is predicted to
   end within ``--seconds`` (at least one). Every job's output is checked,
   untimed, right after the job.

With ``--trace 0`` the passes are untraced and the metrics are ``setup_s``
and ``wall_s``, the mean pass time. On a shared host whose speed flips
between two levels every second or so, the mean follows the share of time
spent at each level smoothly, where the median of such a two-level sample
jumps between them. With ``--trace 1`` untraced and traced passes
alternate; the metrics are the per-layer numbers of the traced passes (median
over passes), the mean job-kind times of the untraced ones and
``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give a
readable table of every metric with its unit and the machine fingerprint; the
full record, and the spans of a traced run, are written under ``.perfbench/``.
Exits 2 without a result when ``src/xdp`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.warm_up(sys.argv[3])
print(time.perf_counter() - t0)
"""


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or "_per_" in name:
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def fingerprint(loadavg) -> dict:
    import mpmath
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "loadavg_at_start": list(loadavg)}


def setup_seconds(workload: str) -> list:
    """Import-plus-warm-up time of SETUP_PROBES fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(HERE), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(jobs, workdir: Path, pass_id: int, recorder=None) -> list:
    """Run every job once; returns one row per job. Checks run untimed and
    untraced."""
    from workloads import digest
    workdir.mkdir(parents=True)
    ctx = {"dir": workdir}
    rows = []
    try:
        for i, job in enumerate(jobs):
            job_id = f"{pass_id}.{i}"
            if recorder is not None:
                recorder.job, recorder.enabled = job_id, True
            error = None
            t0 = perf_counter()
            try:
                if recorder is None:
                    out = job.run(ctx)
                else:
                    out = recorder.call(f"job.{job.kind}", job.run, None, (ctx,), {})
            except Exception:
                out, error = None, traceback.format_exc(limit=4)
            seconds = perf_counter() - t0
            if recorder is not None:
                recorder.enabled = False
            if error is None:
                try:
                    error = job.check(out, ctx)
                except Exception:
                    error = traceback.format_exc(limit=4)
            if error is not None:
                print(f"perfbench: job {job_id} {job.label} failed: {error}",
                      file=sys.stderr)
            rows.append({"job": job_id, "kind": job.kind, "label": job.label,
                         "seconds": seconds, "error": error,
                         "digest": None if error else digest(out)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rows


def _kind_seconds(rows, kinds) -> dict:
    return {f"{k}_s": sum(r["seconds"] for r in rows if r["kind"] == k)
            for k in kinds}


def _median_of(dicts) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _mean_of(dicts) -> dict:
    return {key: statistics.fmean(d[key] for d in dicts) for key in dicts[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    loadavg = os.getloadavg()
    setup = [] if trace else setup_seconds(workload)
    workloads.warm_up(workload)
    jobs = workloads.build(workload, seed)
    all_kinds = [k for w in workloads.WORKLOADS for k in workloads.KINDS[w]]
    workdir = OUT / f"work-{os.getpid()}"
    untraced, traced, recorders = [], [], []
    t_start = perf_counter()
    try:
        while True:
            p = len(untraced)
            untraced.append(run_pass(jobs, workdir / f"u{p}", p))
            if trace:
                rec = tracing.Recorder()
                with tracing.traced(rec):
                    rows = run_pass(jobs, workdir / f"t{p}", p, recorder=rec)
                for r, u in zip(rows, untraced[-1]):
                    if r["error"] is None and r["digest"] != u["digest"]:
                        r["error"] = "traced output differs from the untraced pass"
                traced.append(rows)
                recorders.append(rec)
            spent = perf_counter() - t_start
            if spent + spent / len(untraced) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def wall(rows):
        return sum(r["seconds"] for r in rows)

    passes = untraced + traced
    failed = sum(1 for rows in passes for r in rows if r["error"] is not None)
    attempted = sum(len(rows) for rows in passes)
    walls = [wall(rows) for rows in untraced]
    kind_s = _mean_of([_kind_seconds(rows, workloads.KINDS[workload])
                       for rows in untraced])
    if trace:
        metrics = _median_of([tracing.layer_metrics(rec.spans) for rec in recorders])
        metrics["trace.overhead_frac"] = (
            statistics.fmean(wall(rows) for rows in traced)
            / statistics.fmean(walls) - 1)
        metrics.update({f"{k}_s": 0.0 for k in all_kinds})
        metrics.update(kind_s)
        tracing.write_spans(recorders, OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": statistics.fmean(walls)}
    summary = {"setup_s": statistics.median(setup) if setup else None,
               "wall_s": statistics.fmean(walls),
               "fail_frac": failed / attempted, **kind_s}
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "fingerprint": fingerprint(loadavg),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "summary": summary, "setup_samples": setup, "pass_walls": walls,
        "jobs": passes,
    }


def _print_table(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['pass_walls'])} "
          f"failed={record['failed']}/{record['attempted']}")
    shown = dict(record["summary"])
    if record["trace"]:
        shown.update({k: m["value"] for k, m in record["metrics"].items()})
    for name, value in shown.items():
        if value is not None:
            print(f"  {name:30s} {value:14.6g} {unit_of(name)}")
    print("# fingerprint " + json.dumps(record["fingerprint"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dsq", "census", "kernels", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "xdp" / "__init__.py").is_file():
        print(f"perfbench: no xdp package under {SRC}; run from the root of an "
              f"xdp checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        _print_table(record)
        records.append(record)
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        metrics.update({prefix + k: v for k, v in record["metrics"].items()})
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
