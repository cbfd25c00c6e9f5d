"""Self-tests of the benchmark, kept out of the tier-1 suite by name.

Run from the repository root (about two minutes)::

    python -m pytest perfbench/selftest.py

A tiny run of each workload must report every named metric, finite,
with every gate passing; each gate must reject a deliberately wrong
result; the result line must stay strict JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import gates
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    record = run.run(name, seed=5, seconds=1.0, trace=trace)
    result = record["result"]
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.per_layer_names() if trace else run.END_TO_END
    assert result["metrics"].keys() == expected.keys()
    for key, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), key
        assert metric["unit"] == expected[key]
    json.dumps(result, allow_nan=False)
    assert set(record["named"]) <= set(run.NAMED)
    if trace:
        assert result["metrics"]["op.calls"]["value"] >= 1
        assert result["metrics"]["trace.reconcile_gap"]["value"] <= (
            tracing.RECONCILE_TOLERANCE
        )


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()


def test_event_gate_rejects_a_wrong_pin():
    from repro import CodeDeformationUnit, rotated_surface_code

    pin = PINS["events"][0]
    patch = rotated_surface_code(pin["d"])
    report = CodeDeformationUnit().deform(patch, {tuple(q) for q in pin["defects"]})
    assert gates.event_gate("event 0", report, patch.code, pin) is None
    dx, dz = pin["final_distance"]
    wrong_distance = {**pin, "final_distance": [dx - 1, dz]}
    assert "final distance" in gates.event_gate("e", report, patch.code, wrong_distance)
    wrong_steps = {**pin, "instructions": pin["instructions"][:-1]}
    assert "instructions" in gates.event_gate("e", report, patch.code, wrong_steps)


def test_event_gate_rejects_an_invalid_code():
    from repro import CodeDeformationUnit, rotated_surface_code

    pin = PINS["events"][0]
    patch = rotated_surface_code(pin["d"])
    report = CodeDeformationUnit().deform(patch, {tuple(q) for q in pin["defects"]})
    broken = patch.code.copy()
    # Logical X and Z that commute: the encoded qubit is lost.
    broken.logical_x = broken.logical_z
    assert "check_code" in gates.event_gate("e", report, broken, pin)


def test_stream_gate_rejects_flipped_predictions(tmp_path):
    stream = workloads.Stream(seed=7, budget_s=1.0, pins=PINS, workdir=tmp_path)
    stream.setup()
    words = stream.records[0].reshape(-1, 1)
    predictions = stream.decoder.decode_batch(
        workloads.PackedBits(words, workloads.STREAM_SHOTS)
    )
    errors = int((predictions != stream.flips[0]).sum())
    assert gates.count_gate("s", errors, workloads.STREAM_SHOTS, stream.ref) is None
    flipped = int(((1 - predictions) != stream.flips[0]).sum())
    assert gates.count_gate("s", flipped, workloads.STREAM_SHOTS, stream.ref)


@pytest.mark.parametrize("label", sorted(PINS["sweep"]["cells"]))
def test_sweep_gate_rejects_flipped_cell(label):
    ref = PINS["sweep"]["cells"][label]
    shots = workloads.SWEEP_SHOTS
    expected = round(ref["errors"] * shots / ref["shots"])
    assert gates.count_gate(label, expected, shots, ref) is None
    # Every prediction flipped turns each success into an error.
    assert gates.count_gate(label, shots - expected, shots, ref)


def test_count_bounds_widen_with_reference_uncertainty():
    narrow = gates.count_bounds(1000, 100_000, 1000)
    wide = gates.count_bounds(10, 1000, 1000)
    assert wide[0] <= narrow[0] <= 10 <= narrow[1] <= wide[1]
    assert gates.count_bounds(0, 1000, 1000)[0] == 0


def test_reconcile_flags_an_uncovered_wall():
    rec = tracing.Recorder()
    with rec.span("op"), rec.span("decode.batch"):
        pass
    caller = next(iter({s.thread for s in rec.spans}))
    covered = rec.spans[0].duration_ns / 1e9
    assert rec.reconcile(caller, covered) == pytest.approx(0.0)
    assert rec.reconcile(caller, 10 * covered) > tracing.RECONCILE_TOLERANCE
    op, child = rec.self_times()["op"], rec.self_times()["decode.batch"]
    assert op[1] == child[1] == 1
    assert op[0] + child[0] == pytest.approx(covered)


def test_instrument_restores_every_binding():
    import repro.deform.removal
    from repro.decode.base import Decoder

    before = (repro.deform.removal.graph_distance, Decoder.__dict__["decode_batch"])
    with tracing.instrument(tracing.Recorder()):
        assert repro.deform.removal.graph_distance is not before[0]
    assert (repro.deform.removal.graph_distance, Decoder.__dict__["decode_batch"]) == before


def test_non_finite_metric_is_a_failure():
    metrics = {"op_p50_ms": float("nan"), "setup_s": 1.0}
    failures: list[str] = []
    line = run.result_line(metrics, run.END_TO_END, failures, checked=3)
    assert line["correct"] is False and line["failed"] == 1
    assert line["attempted"] == 4
    assert "op_p50_ms" not in line["metrics"]
    json.dumps(line, allow_nan=False)


def test_event_pool_is_the_same_for_every_seed(tmp_path):
    plans = [
        workloads.DefectEvent(seed, 20.0, PINS, tmp_path).plan for seed in (1, 2)
    ]
    assert [i for i, _, _ in plans[0]] == [i for i, _, _ in plans[1]]
    assert [s for _, _, s in plans[0]] != [s for _, _, s in plans[1]]
    budget = sum(e["nominal_s"] for _, e, _ in plans[0])
    assert budget >= 20.0 > budget - plans[0][-1][1]["nominal_s"]
