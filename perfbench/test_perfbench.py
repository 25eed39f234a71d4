"""The benchmark's own tests, on tiny problem sizes.

Every workload runs once untraced and once traced with the same seed: each
named metric must be emitted with its unit, every name must be well formed,
every task must pass its checks, and both runs must produce the same task
list and the same output digests.  A checkout holding only the benchmark
must make it fail without printing a result.  The host-speed pacer must
sample the reference kernel during a task and leave no timer behind.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(cwd: Path, out_dir: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--tiny", "--out-dir", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(result line, run record) per (workload, trace), all with seed 7."""
    out_dir = tmp_path_factory.mktemp("perfbench")
    found = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, out_dir, workload, 7, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            record = json.loads(
                (out_dir / f"record-{workload}-seed7-trace{trace}.json").read_text()
            )
            found[workload, trace] = result, record
    return found


def test_spec_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(runs, workload, trace, section):
    result, _ = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_tasks_and_digests(runs, workload):
    _, plain = runs[workload, 0]
    _, traced = runs[workload, 1]
    assert plain["tasks"] and plain["tasks"] == traced["tasks"]
    assert set(plain["digests"]) == set(plain["tasks"])
    assert all(plain["digests"].values())
    assert plain["digests"] == traced["digests"]
    assert plain["digests_stable"] and traced["digests_stable"]


def test_other_seed_other_inputs(runs, tmp_path):
    proc = bench(ROOT, tmp_path, "crosscheck", 8, 0)
    assert proc.returncode == 0, proc.stderr
    other = json.loads((tmp_path / "record-crosscheck-seed8-trace0.json").read_text())
    _, same = runs["crosscheck", 0]
    assert other["tasks"] == same["tasks"]
    assert set(other["digests"].values()).isdisjoint(same["digests"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, tmp_path / "out", "emit", 7, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_pace_samples_during_a_task_and_disarms():
    pace = bench_speed.Pace(interval_s=0.02)
    handler = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    with pace.measure() as timing:
        while time.perf_counter() - started < 0.3:
            sum(range(1000))
    outside = time.perf_counter() - started
    assert len(timing.samples) >= 3  # before, at least one during, after
    assert 0.0 < timing.wall < outside
    assert timing.norm > 0.0 and math.isfinite(timing.norm)
    assert pace.references[-1] == timing.samples[-1]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler
