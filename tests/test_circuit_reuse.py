"""Memory-circuit reuse: a run of same-configuration ``memory_experiment``
calls (the chunks of a sweep cell) builds and compiles its circuit once,
and any change of configuration builds a new one."""

import json
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro.eval.montecarlo as mc
from repro.deform import data_q_rm
from repro.sim import NoiseModel
from repro.surface import rotated_surface_code
from repro.sweep import SweepCell, SweepSpec, run_sweep

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"

BASE = dict(
    basis="Z",
    noise=NoiseModel.uniform(1e-3),
    rounds=3,
    defective_data=None,
    defective_ancillas=None,
)
#: One changed value per configuration field.
CHANGES = dict(
    noise=NoiseModel.uniform(2e-3),
    rounds=4,
    basis="X",
    defective_data={(5, 5)},
    defective_ancillas={(4, 4)},
)


@pytest.fixture
def calls(monkeypatch):
    """Calls through montecarlo's ``memory_circuit`` and
    ``compile_circuit`` bindings, from an empty memo."""
    counts = {"build": 0, "compile": 0}
    build, compile_circuit = mc.memory_circuit, mc.compile_circuit

    def counted_build(*args, **kwargs):
        counts["build"] += 1
        return build(*args, **kwargs)

    def counted_compile(circuit):
        counts["compile"] += 1
        return compile_circuit(circuit)

    monkeypatch.setattr(mc, "memory_circuit", counted_build)
    monkeypatch.setattr(mc, "compile_circuit", counted_compile)
    mc.clear_decoder_cache()
    yield counts
    mc.clear_decoder_cache()


def run(code, **changes):
    config = {**BASE, **changes}
    basis, noise = config.pop("basis"), config.pop("noise")
    return mc.memory_experiment(code, basis, noise, shots=64, seed=3, **config)


def test_two_chunk_sweep_cell_builds_and_compiles_once(calls, tmp_path):
    spec = SweepSpec(
        cells=(SweepCell(3, 1e-2, rounds=3, shots=200),), seed=5, chunk_shots=100
    )
    result = run_sweep(spec, tmp_path / "sweep")
    assert result.executed_chunks == 2
    assert calls == {"build": 1, "compile": 1}


def test_repeated_configuration_reuses_circuit(calls):
    code = rotated_surface_code(5).code
    first = run(code)
    assert run(code) == first
    assert calls == {"build": 1, "compile": 1}


@pytest.mark.parametrize("field", sorted(CHANGES))
def test_changed_configuration_rebuilds(calls, field):
    code = rotated_surface_code(5).code
    run(code)
    run(code, **{field: CHANGES[field]})
    # An untreated defect set leaves the decoder on the clean model,
    # which the first call already built: one new circuit either way.
    assert calls == {"build": 2, "compile": 2}
    run(code, **{field: CHANGES[field]})
    assert calls == {"build": 2, "compile": 2}


def test_in_place_deformation_rebuilds(calls):
    patch = rotated_surface_code(5)
    run(patch.code)
    data_q_rm(patch, (7, 7))
    run(patch.code)
    assert calls == {"build": 2, "compile": 2}


def test_clear_decoder_cache_drops_circuit(calls):
    code = rotated_surface_code(5).code
    run(code)
    assert mc._LAST_CIRCUIT is not None
    mc.clear_decoder_cache()
    assert mc._LAST_CIRCUIT is None
    run(code)
    assert calls == {"build": 2, "compile": 2}


def test_old_circuit_is_freed_before_the_next_build(monkeypatch):
    """A miss drops the memoised circuit before building its successor,
    so two large circuits are never alive at once."""
    code = rotated_surface_code(3).code
    noise = NoiseModel.uniform(1e-3)
    mc.clear_decoder_cache()
    old = weakref.ref(mc._compiled_circuit(code, "Z", 3, noise))
    alive_at_build = []
    build = mc.memory_circuit

    def watched_build(*args, **kwargs):
        alive_at_build.append(old() is not None)
        return build(*args, **kwargs)

    monkeypatch.setattr(mc, "memory_circuit", watched_build)
    mc._compiled_circuit(code, "Z", 4, noise)
    mc.clear_decoder_cache()
    assert alive_at_build == [False]


def test_decoder_model_build_leaves_memo_alone(calls):
    """An untreated cell samples the struck circuit but decodes with the
    clean model; building that model must not evict the struck circuit."""
    code = rotated_surface_code(5).code
    struck = CHANGES["defective_data"]
    run(code, defective_data=struck)
    assert calls["build"] == 2  # the struck circuit and the clean model
    assert mc._LAST_CIRCUIT[0][4] == frozenset(struck)
    run(code, defective_data=struck)
    assert calls["build"] == 2


def test_threads_never_get_another_configurations_circuit():
    """Threads alternating two configurations through the one-entry memo
    each get a circuit of their own configuration."""
    code = rotated_surface_code(3).code
    noise = NoiseModel.uniform(1e-3)
    detectors = {
        rounds: mc.memory_circuit(code, "Z", rounds, noise).num_detectors
        for rounds in (3, 4)
    }
    wrong = []

    def worker(offset):
        for i in range(30):
            rounds = 3 + (i + offset) % 2
            circuit = mc._compiled_circuit(code, "Z", rounds, noise)
            if circuit.num_detectors != detectors[rounds]:
                wrong.append(rounds)

    mc.clear_decoder_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        mc.clear_decoder_cache()
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_perfbench_sweep_cells_keep_their_error_counts(calls, tmp_path):
    """The sweep workload's five cells at one fixed seed: the per-cell
    error counts recorded before the circuit memo, from half the builds."""
    untreated = frozenset(
        tuple(q) for q in json.loads(PINS.read_text())["sweep"]["untreated_defects"]
    )
    cells = (
        SweepCell(5, 1e-3, rounds=5, shots=1000),
        SweepCell(7, 1e-3, rounds=7, shots=1000),
        SweepCell(9, 1e-3, rounds=9, shots=1000),
        SweepCell(
            7,
            1e-3,
            rounds=7,
            shots=1000,
            defective_data=untreated,
            scenario="untreated_defect",
        ),
        SweepCell(7, 5e-3, rounds=7, shots=1000, scenario="dense"),
    )
    spec = SweepSpec(cells=cells, seed=7, chunk_shots=500)
    result = run_sweep(spec, tmp_path / "sweep")
    assert {c.cell.label(): c.errors for c in result.cells} == {
        "d5_p0.001_Z": 0,
        "d7_p0.001_Z": 0,
        "d9_p0.001_Z": 0,
        "d7_p0.001_Z_untreated_defect": 1,
        "d7_p0.005_Z_dense": 12,
    }
    # Ten chunks, one build per cell: the untreated cell's clean model
    # is the clean d = 7 cell's decoder.
    assert calls == {"build": 5, "compile": 5}
