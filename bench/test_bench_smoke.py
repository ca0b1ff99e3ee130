"""Smoke test of the lifecycle benchmark (collected by the tier-1 run).

Runs every workload at ``--quick`` size, untraced twice on one seed and
traced once, in this process, and checks the contract of
``BENCHMARK.json``: every named metric is produced, names and units are
well formed, nothing failed, counts repeat exactly on one seed, another
seed changes the inputs but not the schema, and the command line refuses
an unknown workload instead of silently doing nothing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [p for p in (BENCH, os.path.join(ROOT, "src")) if p not in sys.path]

import layers  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = bench_run.load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Untraced values that count bytes or ops: equal inputs, equal values.
EXACT = ("stored_bytes_per_user_byte",)


def test_contract_is_well_formed():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in CONTRACT["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_end_to_end(name):
    first = bench_run.run_untraced(WORKLOADS[name](0, "quick"), 0, 1)
    again = bench_run.run_untraced(WORKLOADS[name](0, "quick"), 0, 1)
    for record in (first, again):
        assert record["failed"] == 0, record["notes"]
        assert record["failed_ops_share"] == 0
        for metric in CONTRACT["end_to_end"]:
            value = record["metrics"][metric["name"]]["value"]
            assert isinstance(value, float) and value > 0, metric["name"]
    assert first["attempted"] == again["attempted"]
    assert first["digests"] == again["digests"]
    for metric in EXACT:
        assert first["metrics"][metric]["value"] == again["metrics"][metric]["value"]

    # Another seed: other inputs, same schema and op mix.
    base, other = WORKLOADS[name](0, "quick"), WORKLOADS[name](1, "quick")
    assert base.schema == other.schema
    assert base.tables != other.tables
    assert [spec[:2] for spec in sorted(base.specs, key=lambda s: s[:2])] == [
        spec[:2] for spec in sorted(other.specs, key=lambda s: s[:2])
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_traced(name, tmp_path):
    record = layers.run_traced(WORKLOADS[name](0, "quick"), str(tmp_path))
    assert record["failed"] == 0, record["notes"]
    produced = record["metrics"]
    known = {m["name"] for m in CONTRACT["per_layer"]}
    assert set(produced) <= known, sorted(set(produced) - known)
    assert produced["bench.unresolved_probes"]["value"] == 0, record["notes"]
    assert produced["bench.failed_ops_share"]["value"] == 0
    assert produced["trace.coverage"]["value"] > 0
    spans = [json.loads(line) for line in open(tmp_path / f"trace_{name}.jsonl", encoding="utf-8")]
    assert spans and {"name", "start_ns", "end_ns", "parent", "op_id"} <= set(spans[0])


def test_command_line():
    cmd = CONTRACT["command"] + ["--seed", "0", "--seconds", "1", "--trace", "0"]
    unknown = subprocess.run(
        cmd + ["--workload", "no_such_workload"], cwd=ROOT, capture_output=True, text=True,
        check=False,
    )
    assert unknown.returncode != 0 and "no_such_workload" in unknown.stderr
    done = subprocess.run(
        cmd + ["--workload", "standing_writes", "--quick"], cwd=ROOT, capture_output=True,
        text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for metric in CONTRACT["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
