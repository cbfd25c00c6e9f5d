"""Regenerate ``pins.json``: the ``defect_event`` pool and reference rates.

Run from the repository root (takes a few minutes on two cores)::

    python3 perfbench/pin.py

Pins record what the program computes at the commit they were made on;
a later change that alters them changes what the program computes, so
regenerate them only when that is the point of the change.

* ``events``: cosmic-ray clusters from
  ``CosmicRayModel.sample_defective_qubits`` (1-3 qubits on a fresh
  d = 7 or d = 9 patch, cycling through the six combinations), each
  with Algorithm 1's instruction list and final ``(dX, dZ)``, and the
  event's duration on the pinning machine (``nominal_s``), which only
  sizes a pass.  An event that fails here is an error, not skipped.
* ``sweep``: the untreated cell's defective data qubits and, for every
  cell, a reference logical-error count from ``REFERENCE_SCALE`` times
  the cell's shots.
* ``stream``: a reference count from ``STREAM_REFERENCE_RECORDS``
  records decoded by the same window decoder.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
STRATA = ((7, 1), (9, 1), (7, 2), (9, 2), (7, 3), (9, 3))
EVENT_COUNT = 48
#: Entropy tag of every pinning draw, distinct from workload seeds'
#: spawn paths.
PIN_SEED = 20241017
REFERENCE_SCALE = 20
STREAM_REFERENCE_RECORDS = 128
UNTREATED_DEFECTS = 4


def pin_events(workloads) -> list[dict]:
    from repro import CodeDeformationUnit, CosmicRayModel, NoiseModel, rotated_surface_code
    from repro.codes import check_code
    from repro.eval import memory_experiment

    unit = CodeDeformationUnit()
    noise = NoiseModel.uniform(workloads.EVENT_P)
    warm = rotated_surface_code(5)
    unit.deform(warm, {(5, 5)})
    memory_experiment(warm.code, "Z", noise, rounds=5, shots=64, seed=0)
    events = []
    for i in range(EVENT_COUNT):
        d, k = STRATA[i % len(STRATA)]
        patch = rotated_surface_code(d)
        model = CosmicRayModel(seed=PIN_SEED + i)
        defects = model.sample_defective_qubits(patch.all_qubit_coords(), k)
        start = time.perf_counter()
        report = unit.deform(patch, defects)
        memory_experiment(
            patch.code, "Z", noise, rounds=d, shots=workloads.EVENT_SHOTS, seed=i
        )
        nominal = time.perf_counter() - start
        check_code(patch.code)
        events.append(
            {
                "d": d,
                "defects": sorted([int(x), int(y)] for x, y in defects),
                "instructions": report.instructions,
                "final_distance": [int(v) for v in report.final_distance],
                "nominal_s": round(nominal, 3),
            }
        )
        print(f"event {i}: d={d} {report.instructions} {nominal:.2f}s", flush=True)
    return events


def pin_sweep(workloads) -> dict:
    from repro import CosmicRayModel, NoiseModel, rotated_surface_code
    from repro.eval import memory_experiment

    data = set(rotated_surface_code(7).code.data_qubits)
    untreated = CosmicRayModel(seed=PIN_SEED).sample_defective_qubits(
        data, UNTREATED_DEFECTS
    )
    cells = workloads.sweep_cells(frozenset(untreated))
    refs = {}
    for index, cell in enumerate(cells):
        shots = REFERENCE_SCALE * cell.shots
        result = memory_experiment(
            rotated_surface_code(cell.distance).code,
            cell.basis,
            NoiseModel.uniform(cell.p),
            rounds=cell.rounds,
            shots=shots,
            seed=PIN_SEED + index,
            chunk_shots=workloads.SWEEP_CHUNK_SHOTS,
            defective_data=set(cell.defective_data) or None,
            workers=workloads.SWEEP_WORKERS,
        )
        refs[cell.label()] = {"errors": result.errors, "shots": shots}
        print(f"sweep {cell.label()}: {result.errors}/{shots}", flush=True)
    return {
        "untreated_defects": sorted([int(x), int(y)] for x, y in untreated),
        "cells": refs,
    }


def pin_stream(workloads) -> dict:
    from repro import NoiseModel, rotated_surface_code
    from repro.serve import SlidingWindowDecoder, WindowConfig
    from repro.sim import memory_circuit, sample_detectors

    code = rotated_surface_code(workloads.STREAM_DISTANCE).code
    noise = NoiseModel.uniform(workloads.STREAM_P)
    shots = STREAM_REFERENCE_RECORDS * workloads.STREAM_SHOTS
    circuit = memory_circuit(code, "Z", workloads.STREAM_ROUNDS, noise)
    detectors, observables = sample_detectors(
        circuit, shots, seed=PIN_SEED, output="packed"
    )
    decoder = SlidingWindowDecoder(code, "Z", noise, config=WindowConfig())
    predictions = decoder.decode_batch(detectors)
    errors = int((predictions != observables.unpack()[0]).sum())
    print(f"stream: {errors}/{shots}", flush=True)
    return {"rounds": workloads.STREAM_ROUNDS, "errors": errors, "shots": shots}


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    pins = {
        "events": pin_events(workloads),
        "sweep": pin_sweep(workloads),
        "stream": pin_stream(workloads),
    }
    text = json.dumps(pins, indent=1, allow_nan=False) + "\n"
    (HERE / "pins.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
