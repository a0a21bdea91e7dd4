"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from spans import metric_units
from workloads import NAMES, Workload, draw_induce_pairs, draw_queries, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Every metric the benchmark's definition names, by the name it reports.
NAMED_END_TO_END = {
    "setup_s", "wall_s", "cpu_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb",
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def run_tiny(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    return record, json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(workload):
    record, result = run_tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(names) == NAMED_END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert metric["value"] > 0, name
    assert record["figures"]["fail_ratio"] == 0
    for key in ("python", "git_rev", "nproc", "loadavg_before", "loadavg_after"):
        assert key in record["env"]


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_per_layer_metric(workload):
    _record, result = run_tiny(workload, 1)
    assert result["correct"] is True
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(names) == set(metric_units())
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
    shares = sum(result["metrics"][f"layer.{m}.share"]["value"] for m in (
        "partitions", "abacus", "rouquier", "stembridge", "chars", "verify", "hnf", "cli"))
    assert shares == pytest.approx(1.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "induce-grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_changed_output_is_reported_as_failed():
    wl = Workload("induce-grid", 1, "tiny", load_reference())
    outputs = wl.run_pass(contextlib.nullcontext)
    assert wl.check(outputs) == []
    outputs[2] += " "
    assert wl.check(outputs) == [2]
    assert wl.check(outputs[:-1]) == [2, len(outputs) - 1]


def test_draws_follow_the_seed():
    ref = load_reference()
    pairs = ref["induce-grid"]["pairs"]
    assert draw_induce_pairs(pairs, 7, 100) == draw_induce_pairs(pairs, 7, 100)
    assert draw_induce_pairs(pairs, 7, 100) != draw_induce_pairs(pairs, 8, 100)
    queries = ref["cli-session"]["queries"]
    session = draw_queries(queries, 7, 111)
    assert session == draw_queries(queries, 7, 111)
    assert len(session) == 111 * len(queries)


def test_spec_matches_the_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
