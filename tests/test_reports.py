"""Reports are strict JSON: nothing the repository writes or commits
carries ``NaN`` or ``Infinity``, which JSON does not have."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.sweep import append_record, read_journal

REPO = Path(__file__).resolve().parents[1]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_committed_bench_decode_is_strict_json():
    text = (REPO / "BENCH_decode.json").read_text(encoding="utf-8")
    records = json.loads(text, parse_constant=reject_constant)
    # A stage timed at 0 s has no rate, rather than an infinite one.
    idle = [r for r in records if r.get("seconds") == 0.0]
    assert idle
    assert all(r["shots_per_sec"] is None for r in idle)


def test_rate_of_a_stage_timed_at_zero_is_null(monkeypatch):
    path = REPO / "benchmarks" / "perf_report.py"
    spec = importlib.util.spec_from_file_location("perf_report", path)
    perf_report = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec.loader.exec_module(perf_report)
    assert perf_report._rate(8000, 0.0) is None
    assert perf_report._rate(8000, 2.0) == 4000.0


def test_journal_rejects_non_finite_values(tmp_path):
    path = tmp_path / "journal.jsonl"
    with pytest.raises(ValueError):
        append_record(path, {"type": "chunk", "elapsed": float("inf")})
    assert read_journal(path) == ([], 0)
