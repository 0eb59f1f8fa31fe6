"""Smoke self-test of the repository benchmark.

Runs every workload at ``--smoke`` sizes, untraced and traced, through
the same command line the gate uses.  The file name matches no pytest
test pattern, so the repository's test run never collects it; run it
by path with ``python -m pytest benchmarks/suite/selftest.py -m bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parents[1]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(key: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_replica_is_faithful(workload):
    result = _run(workload, trace=1)
    assert result["correct"] is True
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == _declared("per_layer")
    record = json.loads((SUITE / "out" / f"{workload}.traced.json")
                        .read_text())
    identity = {name: passed for name, passed in record["checks"].items()
                if name.startswith("replica_")}
    assert identity and all(identity.values()), record["checks"]

    # Every span nests inside its parent, so self times never go
    # negative and a root's subtree adds up to the root.
    spans = {span["id"]: span for span in map(
        json.loads, (SUITE / "out" / f"{workload}.trace.jsonl")
        .read_text().splitlines())}
    children = defaultdict(float)
    for span in spans.values():
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]
            assert span["request"] == parent["request"]
            children[span["parent"]] += span["end"] - span["start"]
    for span in spans.values():
        assert children[span["id"]] <= span["end"] - span["start"] + 1e-9

    # The layers' self times plus the unattributed residual account for
    # the traced wall, timed outside the replica, within 5%.
    extra = record["extra"]
    wall, attributed = extra["traced_wall_s"], extra["attributed_s"]
    assert wall > 0
    assert abs(attributed - wall) <= 0.05 * wall
    assert 0 <= extra["unattributed_s"] <= 0.05 * attributed
