"""Committed benchmark records (``BENCH_*.json`` at the repository root):
each holds the parent commit's runs and the change's, for both gated
workloads in both trace modes, and every run passed its correctness gate."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_parent_and_holds_correct_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent"]["commit"])
    for side in ("parent", "change"):
        runs = record[side]["runs"]
        for workload in ("transitivity", "kbc"):
            for mode in ("trace_0", "trace_1"):
                run = runs[workload][mode]
                assert run["correct"] is True, (side, workload, mode)
                assert run["failed"] == 0 and run["metrics"], (side, workload, mode)
