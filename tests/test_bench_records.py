"""Committed benchmark records: a speed-up counts only when a ``BENCH_*.json``
at the root of the repository shows it, so every such file must parse and
carry what a reader needs to check the claim."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("command", "method", "parent_commit", "seeds", "seconds", "machine",
        "inputs_sha256", "summary", "pairs")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_carries_its_evidence(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    missing = [key for key in KEYS if key not in record]
    assert not missing, f"{path.name}: missing {missing}"
    # one list of pairs, or one per workload
    pairs = record["pairs"]
    runs = pairs.values() if isinstance(pairs, dict) else [pairs]
    assert pairs and all(isinstance(r, list) and r for r in runs)
