"""Pins of the layered circuit pipeline to digests of the per-instruction one.

``fixtures/layered_pins.json`` holds, per circuit, SHA-256 prefixes
recorded with the per-instruction compiler and sampler, before circuits
were compiled by layer and their rounds replayed:

* ``instructions`` — the instruction list (names, targets, ``float.hex``
  arguments);
* ``dem`` — ``build_dem``'s mechanisms in order, probabilities as
  ``float.hex``;
* ``samples`` — packed ``sample_detectors`` planes at 1, 64, 256 and
  1,000 shots, and one row sample, at fixed seeds.

A layering that reorders two operations on one qubit, loses a flip or
draws the random stream in another order changes a digest.  Tier-1
covers clean d = 3–7 memory circuits in both bases, a p = 5e-3 circuit,
an untreated strike and the first 8 pinned ``defect_event`` events
(``perfbench/pins.json``); the ``slow`` test covers all 48.  To record
the digests again, run ``python tests/test_layered_pins.py`` from the
repo root with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import CodeDeformationUnit
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.surface import rotated_surface_code

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "fixtures" / "layered_pins.json"
EVENTS = json.loads((ROOT / "perfbench" / "pins.json").read_text())["events"]
TIER1_EVENTS = 8
NOISE = NoiseModel.uniform(1e-3)
#: Data qubits and ancillas of the untreated strike on a d = 5 patch.
STRIKE = ({(3, 3), (5, 5), (5, 3)}, {(4, 4), (6, 4)})
SAMPLE_SEEDS = ((1, 11), (64, 12), (256, 13), (1000, 14))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def digests(circuit) -> dict[str, str]:
    """The three digests of one circuit."""
    instructions = _digest(
        (i.name, i.targets, float(i.arg).hex()) for i in circuit.instructions
    )
    dem = build_dem(circuit)
    mechanisms = _digest(
        [
            (dem.num_detectors, dem.num_observables, dem.dropped_hyperedges),
            *((m.probability.hex(), m.detectors, m.observable_flip) for m in dem.mechanisms),
        ]
    )
    planes = []
    for shots, seed in SAMPLE_SEEDS:
        det, obs = sample_detectors(circuit, shots, seed=seed, output="packed")
        planes += [det.words.tobytes(), obs.words.tobytes()]
    rows = sample_detectors(circuit, 100, seed=15)
    planes += [rows[0].tobytes(), rows[1].tobytes()]
    return {"instructions": instructions, "dem": mechanisms, "samples": _digest(planes)}


def _clean(d: int, basis: str):
    return memory_circuit(rotated_surface_code(d).code, basis, d, NOISE)


def _dense():
    return memory_circuit(
        rotated_surface_code(5).code, "Z", 5, NoiseModel.uniform(5e-3)
    )


def _strike():
    data, ancillas = STRIKE
    return memory_circuit(
        rotated_surface_code(5).code,
        "Z",
        5,
        NOISE,
        defective_data=data,
        defective_ancillas=ancillas,
    )


def event_circuits(count: int):
    """``(name, circuit)`` of the first ``count`` pinned events: the
    deformed code's Z-memory circuit that ``defect_event`` samples."""
    unit = CodeDeformationUnit()
    for index, event in enumerate(EVENTS[:count]):
        patch = rotated_surface_code(event["d"])
        report = unit.deform(patch, {tuple(q) for q in event["defects"]})
        assert report.instructions == event["instructions"], index
        yield f"event-{index}", memory_circuit(patch.code, "Z", event["d"], NOISE)


CIRCUITS = {
    **{f"clean-d{d}-{b}": (lambda d=d, b=b: _clean(d, b)) for d in (3, 5, 7) for b in "ZX"},
    "p5e-3-d5": _dense,
    "strike-d5": _strike,
}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_circuit_digests(recorded, name):
    assert digests(CIRCUITS[name]()) == recorded[name]


def test_first_events_digests(recorded):
    for name, circuit in event_circuits(TIER1_EVENTS):
        assert digests(circuit) == recorded[name], name


@pytest.mark.slow
def test_all_events_digests(recorded):
    assert len(EVENTS) == 48
    for name, circuit in event_circuits(len(EVENTS)):
        assert digests(circuit) == recorded[name], name


@pytest.mark.parametrize("name", ["clean-d5-X", "strike-d5"])
def test_each_layer_acts_on_disjoint_qubits(name):
    program = CIRCUITS[name]().compiled()
    layers: dict[int, list] = {}
    for op in program.ops:
        layers.setdefault(op.layer, []).append(op)
    assert sorted(layers) == list(range(len(layers)))
    for ops in layers.values():
        assert len({op.kind for op in ops}) == len(ops)
        seen: set[int] = set()
        for op in ops:
            qubits = op.targets.tolist()
            if op.targets2 is not None:
                qubits += op.targets2.tolist()
            if op.kind not in ("M", "MX", "R"):
                assert len(set(qubits)) == len(qubits), op
            assert seen.isdisjoint(qubits), op
            seen.update(qubits)


def test_d9_25_rounds_compiles_to_few_ops():
    circuit = memory_circuit(rotated_surface_code(9).code, "Z", 25, NOISE)
    assert len(circuit) == 27_470
    assert len(circuit.compiled().ops) <= 2_500


if __name__ == "__main__":
    cases = {name: build() for name, build in CIRCUITS.items()}
    cases.update(event_circuits(len(EVENTS)))
    table = {name: digests(circuit) for name, circuit in cases.items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
