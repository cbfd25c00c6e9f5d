"""The benchmark's three caller-level workloads.

Each is a closed loop driven from one process through the public API.
Its inputs are generated from the workload seed in ``__init__``, before
set-up and timing; :meth:`setup` builds fresh program state (timed as
``setup_s``); :meth:`run_pass` runs the timed loop and returns every
output for the gates, which run after the timed region.

* ``defect_event`` — a cosmic-ray cluster strikes a fresh d = 7 or
  d = 9 patch; one event is ``CodeDeformationUnit.deform`` followed by
  the first decoded ``memory_experiment`` batch on the deformed code.
  The only workload where ``deform`` and ``codes`` do most of the work,
  and every event builds a new code, so code-keyed caches stay cold.
* ``sweep`` — one fig. 11(a)-style ``run_sweep`` grid in a fresh
  directory and artifact store.  Per-chunk set-up dominates its sparse
  cells, decoding its dense cell; the only workload that runs the
  sampler, the store and the journal inside the timed region.
* ``stream`` — two concurrent ``DecodeService`` sessions, each pushing
  its own d = 7 syndrome record chunk by chunk, timed in consecutive
  blocks.  The only workload that runs the window decoder and the
  service.
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gates
import repro.eval
from repro import CodeDeformationUnit, NoiseModel, rotated_surface_code
from repro.eval.montecarlo import clear_decoder_cache
from repro.serve import DecodeService, SlidingWindowDecoder, WindowConfig
from repro.sim import memory_circuit, sample_detectors
from repro.sweep import SweepCell, SweepSpec, read_journal, run_sweep
from repro.utils.gf2 import PackedBits
from tracing import Recorder

# -- defect_event ------------------------------------------------------
EVENT_P = 1e-3
#: Shots of the first decoded batch on the deformed code.
EVENT_SHOTS = 256

# -- sweep -------------------------------------------------------------
SWEEP_SHOTS = 1000
SWEEP_CHUNK_SHOTS = 500
SWEEP_WORKERS = 2

# -- stream ------------------------------------------------------------
STREAM_DISTANCE = 7
STREAM_P = 1e-3
STREAM_ROUNDS = 200
#: One packed word of shots per stream, so a record is one word column.
STREAM_SHOTS = 64
STREAM_SESSIONS = 2
#: One pool thread: the window decoder is pure Python, so a second
#: thread adds no throughput, only GIL hand-offs between threads, whose
#: cost moved with the load other processes put on the host's CPUs.
STREAM_WORKERS = 1
STREAM_MAX_PENDING = 4
STREAM_CHUNK_LAYERS = 4
#: Records sampled up front: more than twice what the two sessions
#: decode in a 30 s pass at this commit.  A pass that runs out stops early.
STREAM_RECORDS = 256
#: A timed pass runs in this many consecutive blocks, each with its own
#: service; its rates and chunk percentiles are the medians over the
#: blocks, so a burst of load from other processes moves one block only.
STREAM_BLOCKS = 5
#: Warm-up record length.  201 and 31 detector layers leave the same
#: final window (6 layers) under the default 10/5 window, so the warm-up
#: builds every window graph the timed streams use.
STREAM_WARMUP_ROUNDS = 30


@dataclass
class PassResult:
    """What one timed pass did; gates fill ``failures`` afterwards."""

    wall_s: float = 0.0
    #: Per-operation latencies (events, grids); the stream reports
    #: chunk latencies through ``ServiceStats`` instead.
    latencies_s: list[float] = field(default_factory=list)
    ops: int = 0
    #: Inputs the loop consumed (events, grids, stream records); a
    #: second pass given this as ``limit`` repeats the same work.
    items: int = 0
    #: QEC rounds x shots decoded.
    round_shots: int = 0
    #: Outputs checked by a gate (events, sweep cells, streams).
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    #: ``(wall_s, ops, round_shots)`` of each block of a pass timed in
    #: blocks; its rates are then the medians over the blocks.
    blocks: list[tuple[float, int, int]] = field(default_factory=list)
    #: Workload-specific figures (chunk percentiles, retries, ...).
    extra: dict = field(default_factory=dict)


def op_span(rec: Recorder | None):
    """The benchmark's own span around one timed operation."""
    return rec.span("op") if rec is not None else contextlib.nullcontext()


def _child_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def event_pool(events: list[dict], budget_s: float) -> list[dict]:
    """The pinned events one pass runs: the shortest prefix whose pinned
    durations fill ``budget_s`` (at least one event per distance).

    Every seed runs the same events in the same order and draws only
    their syndrome samples: event costs vary by an order of magnitude,
    and the decoder memo makes an event's cost depend on the events
    before it, so a seed-chosen subset or order would move the figures
    with the seed rather than with the program.
    """
    total = 0.0
    for count, event in enumerate(events, start=1):
        total += event["nominal_s"]
        if total >= budget_s and count >= 2:
            return events[:count]
    return list(events)


class DefectEvent:
    name = "defect_event"

    def __init__(self, seed: int, budget_s: float, pins: dict, workdir: Path):
        self.plan = [
            (i, event, _child_seed(seed, i))
            for i, event in enumerate(event_pool(pins["events"], budget_s))
        ]
        self.noise = NoiseModel.uniform(EVENT_P)

    def setup(self) -> None:
        clear_decoder_cache()
        self.unit = CodeDeformationUnit()
        # A small warm-up event on its own input pays first-call costs here.
        patch = rotated_surface_code(5)
        self.unit.deform(patch, {(5, 5)})
        repro.eval.memory_experiment(
            patch.code, "Z", self.noise, rounds=5, shots=64, seed=0
        )

    def run_pass(
        self, budget_s: float, limit: int | None, rec: Recorder | None
    ) -> PassResult:
        clear_decoder_cache()
        plan = self.plan if limit is None else self.plan[:limit]
        patches = [rotated_surface_code(event["d"]) for _, event, _ in plan]
        outputs = []
        result = PassResult()
        start = time.perf_counter()
        for (index, event, seed), patch in zip(plan, patches, strict=True):
            defects = {tuple(q) for q in event["defects"]}
            with op_span(rec):
                t0 = time.perf_counter()
                try:
                    report = self.unit.deform(patch, defects)
                    repro.eval.memory_experiment(
                        patch.code,
                        "Z",
                        self.noise,
                        rounds=event["d"],
                        shots=EVENT_SHOTS,
                        seed=seed,
                    )
                except Exception as exc:
                    report = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
            outputs.append((index, event, patch, report))
            result.latencies_s.append(latency)
            result.round_shots += event["d"] * EVENT_SHOTS
        result.wall_s = time.perf_counter() - start
        result.ops = result.items = result.checked = len(outputs)
        for index, event, patch, report in outputs:
            label = f"event {index} (d={event['d']}, {len(event['defects'])} defects)"
            failure = (
                f"{label}: {report}"
                if isinstance(report, str)
                else gates.event_gate(label, report, patch.code, event)
            )
            if failure is not None:
                result.failures.append(failure)
        return result


def sweep_cells(untreated: frozenset) -> tuple[SweepCell, ...]:
    """Clean d = 5/7/9 cells, one untreated-defect cell (the decoder sees
    the clean model) and one dense decode-bound cell."""
    return (
        SweepCell(5, 1e-3, rounds=5, shots=SWEEP_SHOTS),
        SweepCell(7, 1e-3, rounds=7, shots=SWEEP_SHOTS),
        SweepCell(9, 1e-3, rounds=9, shots=SWEEP_SHOTS),
        SweepCell(
            7,
            1e-3,
            rounds=7,
            shots=SWEEP_SHOTS,
            defective_data=untreated,
            scenario="untreated_defect",
        ),
        SweepCell(7, 5e-3, rounds=7, shots=SWEEP_SHOTS, scenario="dense"),
    )


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, budget_s: float, pins: dict, workdir: Path):
        untreated = frozenset(tuple(q) for q in pins["sweep"]["untreated_defects"])
        self.cells = sweep_cells(untreated)
        self.refs = pins["sweep"]["cells"]
        self.seed = seed
        self.workdir = workdir
        self._dirs = 0

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"sweep-{self._dirs}"

    def setup(self) -> None:
        clear_decoder_cache()
        warmup = self._fresh_dir()
        run_sweep(
            SweepSpec(cells=(SweepCell(3, 1e-3, rounds=3, shots=64),)), warmup
        )
        shutil.rmtree(warmup)

    def run_pass(
        self, budget_s: float, limit: int | None, rec: Recorder | None
    ) -> PassResult:
        result = PassResult()
        grids = []
        start = time.perf_counter()
        deadline = start + budget_s
        while (limit is None and time.perf_counter() < deadline) or (
            limit is not None and len(grids) < limit
        ):
            spec = SweepSpec(
                cells=self.cells,
                seed=_child_seed(self.seed, len(grids)),
                chunk_shots=SWEEP_CHUNK_SHOTS,
                workers=SWEEP_WORKERS,
            )
            sweep_dir = self._fresh_dir()
            with op_span(rec):
                t0 = time.perf_counter()
                clear_decoder_cache()
                try:
                    outcome = run_sweep(spec, sweep_dir)
                except Exception as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
            grids.append((sweep_dir, outcome))
            result.latencies_s.append(latency)
            result.round_shots += sum(c.rounds * c.shots for c in self.cells)
        result.wall_s = time.perf_counter() - start
        result.ops = result.items = len(grids)
        retries = 0
        for grid, (sweep_dir, outcome) in enumerate(grids):
            result.checked += len(self.cells)
            if isinstance(outcome, str):
                result.failures.append(f"grid {grid}: {outcome}")
                continue
            records, _ = read_journal(outcome.journal_path)
            retried: dict[int, int] = {}
            for r in records:
                if r.get("type") == "chunk" and r["attempts"] > 1:
                    retried[r["cell"]] = retried.get(r["cell"], 0) + r["attempts"] - 1
            retries += sum(retried.values())
            for index, cell in enumerate(outcome.cells):
                label = f"grid {grid} cell {cell.cell.label()}"
                if cell.failed:
                    failure = f"{label}: {cell.error}"
                elif index in retried:
                    failure = f"{label}: retried {retried[index]} time(s)"
                else:
                    failure = gates.count_gate(
                        label, cell.errors, cell.shots, self.refs[cell.cell.label()]
                    )
                if failure is not None:
                    result.failures.append(failure)
            shutil.rmtree(sweep_dir, ignore_errors=True)
        result.extra["retries"] = retries
        return result


class Stream:
    name = "stream"

    def __init__(self, seed: int, budget_s: float, pins: dict, workdir: Path):
        self.code = rotated_surface_code(STREAM_DISTANCE).code
        self.noise = NoiseModel.uniform(STREAM_P)
        self.ref = pins["stream"]
        record_seed, warmup_seed = _child_seed(seed, 0), _child_seed(seed, 1)
        circuit = memory_circuit(self.code, "Z", STREAM_ROUNDS, self.noise)
        detectors, observables = sample_detectors(
            circuit, STREAM_RECORDS * STREAM_SHOTS, seed=record_seed, output="packed"
        )
        # Row r holds record r: every detector's bits for one word of shots.
        self.records = np.ascontiguousarray(detectors.words.T)
        self.flips = observables.unpack()[0].reshape(STREAM_RECORDS, STREAM_SHOTS)
        warmup = memory_circuit(self.code, "Z", STREAM_WARMUP_ROUNDS, self.noise)
        self.warmup, _ = sample_detectors(
            warmup, STREAM_SHOTS, seed=warmup_seed, output="packed"
        )

    def setup(self) -> None:
        self.decoder = SlidingWindowDecoder(
            self.code, "Z", self.noise, config=WindowConfig()
        )
        self.decoder.decode_batch(self.warmup)

    def _chunks(self, record: int):
        rows = STREAM_CHUNK_LAYERS * self.decoder.layer_width
        words = self.records[record]
        for lo in range(0, len(words), rows):
            yield PackedBits(words[lo : lo + rows].reshape(-1, 1), STREAM_SHOTS)

    async def _serve(self, budget_s: float, records, rec: Recorder | None):
        service = DecodeService(
            self.decoder, workers=STREAM_WORKERS, max_pending=STREAM_MAX_PENDING
        )
        outcomes: list[tuple[int, object]] = []
        #: id(chunk) -> (submit time, chunk); holding the chunk keeps the id unique.
        submitted: dict[int, tuple[int, PackedBits]] = {}

        async def client(deadline: float) -> None:
            while time.perf_counter() < deadline:
                record = next(records, None)
                if record is None:
                    return
                session = service.open_stream(STREAM_SHOTS)
                try:
                    for chunk in self._chunks(record):
                        submitted[id(chunk)] = (time.perf_counter_ns(), chunk)
                        await session.submit(chunk)
                    predictions = (await session.finish()).copy()
                except Exception as exc:
                    outcomes.append((record, f"{type(exc).__name__}: {exc}"))
                else:
                    outcomes.append((record, predictions))

        with op_span(rec):
            start = time.perf_counter()
            deadline = start + budget_s
            async with service:
                await asyncio.gather(
                    *(client(deadline) for _ in range(STREAM_SESSIONS))
                )
            wall = time.perf_counter() - start
        return wall, outcomes, service.stats(), submitted

    def run_pass(
        self, budget_s: float, limit: int | None, rec: Recorder | None
    ) -> PassResult:
        records = iter(range(STREAM_RECORDS if limit is None else limit))
        # A pass bounded by ``limit`` decodes exactly that many records,
        # in one block without a deadline.
        blocks, block_s = (
            (STREAM_BLOCKS, budget_s / STREAM_BLOCKS)
            if limit is None
            else (1, float("inf"))
        )
        result = PassResult()
        outcomes: list[tuple[int, object]] = []
        submitted: dict[int, tuple[int, PackedBits]] = {}
        p50s, p95s = [], []
        for _ in range(blocks):
            wall, done, stats, sent = asyncio.run(self._serve(block_s, records, rec))
            if not done:  # the sampled records ran out
                break
            round_shots = len(done) * STREAM_ROUNDS * STREAM_SHOTS
            result.blocks.append((wall, stats.chunks, round_shots))
            result.wall_s += wall
            result.ops += stats.chunks
            result.round_shots += round_shots
            outcomes += done
            submitted.update(sent)
            p50s.append(stats.p50_ms)
            p95s.append(stats.p95_ms)
        result.items = result.checked = len(outcomes)
        result.extra.update(
            chunk_p50_ms=float(np.median(p50s)),
            chunk_p95_ms=float(np.median(p95s)),
            submitted=submitted,
        )
        for record, predictions in sorted(outcomes, key=lambda o: o[0]):
            label = f"stream record {record}"
            if isinstance(predictions, str):
                result.failures.append(f"{label}: {predictions}")
                continue
            errors = int((predictions != self.flips[record]).sum())
            failure = gates.count_gate(label, errors, STREAM_SHOTS, self.ref)
            if failure is not None:
                result.failures.append(failure)
        return result


WORKLOADS = {w.name: w for w in (DefectEvent, Sweep, Stream)}
