"""Tests of the benchmark itself: tracing leaves outputs alone, traced counts
repeat, seeds change inputs without breaking checks, every metric is emitted.

    python3 -m pytest perfbench -q

Each workload's passes run at full size, so the suite takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_AND_JOB_METRICS = {"setup_s", "wall_s", "fail_frac"} | {
    f"{k}_s" for kinds in workloads.KINDS.values() for k in kinds}

_passes = {}


def passes(workload):
    """Untraced seed 1, two traced seed 1, untraced seed 2; run once."""
    if workload not in _passes:
        workloads.warm_up(workload)
        jobs = workloads.build(workload, 1)
        work = run.OUT / "test-work"
        out = {"u1": run.run_pass(jobs, work / "u1", 0)}
        for key in ("t1a", "t1b"):
            rec = tracing.Recorder()
            with tracing.traced(rec):
                out[key] = run.run_pass(jobs, work / key, 0, recorder=rec)
            out[key + "_spans"] = rec.spans
        out["u2"] = run.run_pass(workloads.build(workload, 2), work / "u2", 0)
        shutil.rmtree(work, ignore_errors=True)
        _passes[workload] = out
    return _passes[workload]


def _errors(rows):
    return [(r["label"], r["error"]) for r in rows if r["error"] is not None]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_match_untraced(workload):
    p = passes(workload)
    assert _errors(p["u1"]) == [] and _errors(p["t1a"]) == []
    assert [r["digest"] for r in p["t1a"]] == [r["digest"] for r in p["u1"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    p = passes(workload)
    a, b = p["t1a_spans"], p["t1b_spans"]
    assert [(s[0], s[3], s[5]) for s in a] == [(s[0], s[3], s[5]) for s in b]
    counts_a = {k: v for k, v in tracing.layer_metrics(a).items()
                if run.unit_of(k) in ("count", "bytes")}
    counts_b = {k: v for k, v in tracing.layer_metrics(b).items()
                if run.unit_of(k) in ("count", "bytes")}
    assert counts_a == counts_b
    assert any(counts_a.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_changes_inputs_and_passes(workload):
    p = passes(workload)
    labels_1 = [j.label for j in workloads.build(workload, 1)]
    labels_2 = [j.label for j in workloads.build(workload, 2)]
    assert labels_1 != labels_2
    assert [j.label for j in workloads.build(workload, 2)] == labels_2
    assert _errors(p["u2"]) == []


def _run_cli(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "census",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(trace, section):
    stdout, result = _run_cli(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(result["metrics"][k]["value"] > 0 for k in want)


def test_run_and_job_metrics_all_named():
    named = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    # fail_frac is the result's failed/attempted, not a metric of its own
    assert RUN_AND_JOB_METRICS - named == {"fail_frac"}


def test_missing_library_exits_nonzero():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dsq", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
