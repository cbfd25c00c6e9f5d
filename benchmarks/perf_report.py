"""Decode-pipeline performance report (writes ``BENCH_decode.json``).

Times the three stages every Monte-Carlo figure funnels through, at
d ∈ {3, 5, 7, 9} on a 25-round Z-memory experiment with the paper's
standard p = 1e-3 circuit noise:

* ``sample``    — Pauli-frame sampling (shots/sec) on the packed
                  uint64-bitplane engine,
* ``build``     — code construction + DEM extraction + decoding graph
                  with all-pairs matrices (builds/sec), with a
                  ``dem_build`` record splitting out DEM extraction
                  alone (and its ``mechanism_count``),
* ``decode``    — throughput per decoder method (shots/sec, best of
                  ``DECODE_REPS`` cold-cache runs to damp heavy-tail /
                  thermal noise), including ``blossom_packed`` — the
                  batch pipeline fed packed uint64 detector bitplanes
                  straight from the sampler (no uint8 round-trip) —
                  and ``blossom_legacy``: the seed's per-shot-Dijkstra
                  formulation (``SeedDecoder`` from
                  ``tests/decode_oracles.py``, no syndrome cache,
                  matching by the same native engine), which is the
                  baseline the ≥10× acceptance criterion is measured
                  against at d = 7.

Run with ``PYTHONPATH=src python benchmarks/perf_report.py``; optional
``--distances 3,5,7,9`` and ``--benchmarks build,sample,decode`` filter
the (expensive) grid for quick reruns, ``--workers N`` adds a sharded
``blossom`` decode record (the ``decode_batch(workers=N)`` process
pool), and ``--out BENCH_decode.json`` redirects the output.  Unknown
or empty ``--benchmarks``/``--distances`` selections are rejected up
front (exit 2) instead of silently writing an empty report.
``--benchmarks scaling`` adds the multi-core sweep: the same decode
workload at pool widths ``sorted({1, 2, 4, nproc})`` (largest selected
distance only), each record carrying ``workers`` and
``parallel_efficiency`` — rate(w) / (w × rate(1)) — so forked-pool
scaling is visible wherever the hardware has cores even though CI's
container has one.
``--benchmarks glue`` adds the stage-timing breakdown: per distance
and input flavour (``blossom`` uint8 rows, ``blossom_packed``
bitplanes) the decode wall time is attributed to ``dedup`` (row
packing + the word-packed axis-0 ``np.unique``), ``gathers`` (stacked
all-pairs fancy indexing), ``dp`` (stacked subset-DP buckets),
``engine`` (oversize matching-engine calls), ``other`` and ``total``
via accumulating timers wrapped around the pipeline's internal seams,
so a glue regression is attributable to a stage, not just a total.
``--benchmarks service`` adds the streaming-service benchmark (largest
selected distance only): ``SERVICE_STREAMS`` concurrent sessions push a
``SERVICE_ROUNDS``-round syndrome stream through
:class:`repro.serve.DecodeService` in ``SERVICE_CHUNK_LAYERS``-layer
chunks, decoding through the sliding-window decoder's bounded-memory
window graphs; the record carries per-chunk service latency
percentiles (``p50_ms``/``p95_ms``/``p99_ms``, submit → decode-done,
queueing included) alongside decoded-shot throughput.  A non-finite
p99 (the service never decoded a chunk) fails the run.
``--smoke`` is the CI gate: a d = 3 decode tripwire with a small shot
plan, written to ``BENCH_decode.smoke.json`` so the committed report
is untouched, exiting nonzero if the blossom pipeline falls below
``SMOKE_MIN_SPEEDUP``× the seed formulation — plus the matching-engine
gate, a d = 7, p = 3e-3 slice whose large (>
:data:`~repro.decode.sparse_match.SPARSE_MIN_DEFECTS`-defect)
components are matched by both engines, exiting nonzero if the sparse
region-growing matcher is slower than the dense blossom there
(``match_smoke`` records, matchings/sec).

``BENCH_decode.json`` record schema — every record carries::

    {"benchmark":      "build" | "dem_build" | "sample" | "decode"
                       | "scaling" | "match_smoke" | "glue" | "service",
     "distance":       3 | 5 | 7 | 9,
     "method":         benchmark-specific label (decode: "blossom",
                       "uf", "greedy", "blossom_legacy"; scaling:
                       "blossom"/"blossom[wN]"; match_smoke: "sparse",
                       "dense"),
     "shots_per_sec":  the throughput figure (builds/sec for build
                       benchmarks, matchings/sec for match_smoke;
                       null for a stage timed at 0 s)}

plus benchmark-specific bookkeeping: ``rounds`` (all), ``seconds``
(build/dem_build), ``mechanism_count`` (dem_build), ``shots`` (sample/
decode/scaling), ``components``/``mean_defects``/``noise_p``
(match_smoke), ``stage``/``seconds``/``fraction`` (glue — one record
per :data:`GLUE_STAGES` entry), ``streams``/``chunks``/
``chunk_layers``/``max_pending``/``p50_ms``/``p95_ms``/``p99_ms``
(service), for decode and scaling records
``reps`` (cold-cache
repetitions) and ``workers`` — the process-pool width used by
``decode_batch``; ``1`` means the serial path — and for scaling
records ``parallel_efficiency`` (rate(w) / (w × rate(1))).  Every
record also carries a ``machine`` dict (``nproc``, ``cpu``,
``python``/``numpy``/``scipy`` versions, and ``blossom_kernel`` —
``"compiled"`` or ``"python"``, which backend decoded) so numbers
recorded in different containers — e.g. the 1-core CI runner vs a
laptop — are self-explaining when diffed.  The report is strict JSON:
an undefined figure (a rate or fraction over 0 s, a latency percentile
of a service that decoded nothing) is written as ``null``, never as
``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
# The blossom_legacy baseline is the seed formulation, kept as a test
# oracle in tests/decode_oracles.py.
sys.path.insert(0, str(_ROOT / "tests"))

import numpy as np
import scipy
from decode_oracles import SeedDecoder

from repro.decode import MatchingDecoder
from repro.store import atomic_write_text
from repro.decode.batch import _gather
from repro.decode.blossom import kernel_backend
from repro.decode.sparse_match import (
    SPARSE_MIN_DEFECTS,
    sparse_match_parity,
)
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.surface import rotated_surface_code

ROUNDS = 25
NOISE_P = 1e-3
BENCHMARKS = ("build", "sample", "decode", "scaling", "glue", "service")
DECODE_REPS = 3

#: Stage labels of the ``glue`` benchmark, in report order.  The first
#: four are accumulated by wrapping the pipeline's internal seams;
#: ``other`` is the unattributed remainder (scatter, component
#: labelling, small-k vector paths, cache bookkeeping) and ``total``
#: the whole ``decode_batch`` wall time.
GLUE_STAGES = ("dedup", "gathers", "dp", "engine", "other", "total")

#: Pool widths the ``scaling`` benchmark sweeps (plus the machine's
#: core count); parallel efficiency is rate(w) / (w × rate(1)).
SCALING_WORKERS = (1, 2, 4)

#: (timed decode shots, legacy decode shots) per distance — the legacy
#: path is orders of magnitude slower, so it gets a smaller sample.
SHOT_PLAN = {3: (8000, 2000), 5: (4000, 600), 7: (3000, 300), 9: (2000, 120)}

#: Streaming-service benchmark shape: concurrent sessions each push a
#: ``SERVICE_ROUNDS``-round stream in ``SERVICE_CHUNK_LAYERS``-layer
#: chunks through a ``workers``-wide pool with ``max_pending``
#: backpressure; shots per stream shrink with distance like the decode
#: shot plan does.
SERVICE_ROUNDS = 100
SERVICE_STREAMS = 4
SERVICE_CHUNK_LAYERS = 5
SERVICE_WORKERS = 2
SERVICE_MAX_PENDING = 4
SERVICE_SHOT_PLAN = {3: 256, 5: 128, 7: 64, 9: 32}

#: ``--smoke`` shot plan and regression floor: the blossom pipeline
#: must stay at least this many times faster than the seed formulation
#: at d = 3, else the run exits nonzero (the CI perf tripwire).
SMOKE_SHOT_PLAN = {3: (2000, 500)}
SMOKE_MIN_SPEEDUP = 2.0

#: Matching-engine smoke gate: the large defect components of this
#: d = 7, p = 3e-3 slice are matched by the sparse region-growing
#: engine and the dense blossom; the build fails if sparse throughput
#: drops below ``MATCH_SMOKE_MIN_RATIO``× dense (it is ~2× faster on
#: healthy builds).
MATCH_SMOKE_DISTANCE = 7
MATCH_SMOKE_P = 3e-3
MATCH_SMOKE_SHOTS = 120
MATCH_SMOKE_MIN_RATIO = 1.0
#: Pinned sampler seed of the gate's slice: the component list — and
#: therefore the work both engines are timed on — is identical on every
#: run, so the ratio gate only moves with real engine changes (plus the
#: interleaved best-of-``DECODE_REPS`` timing damping container wobble).
MATCH_SMOKE_SEED = 5


def _rate(count: int, seconds: float) -> float | None:
    """``count / seconds``, or ``None`` (JSON ``null``) for a stage timed
    at 0 s, whose rate is undefined: reports are strict JSON."""
    return count / seconds if seconds > 0 else None


def _finite(value: float) -> float | None:
    """``value``, or ``None`` (JSON ``null``) when it is NaN or infinite."""
    return value if np.isfinite(value) else None


def _machine_metadata() -> dict:
    """CPU/toolchain facts attached to every record (see module doc)."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # "compiled" when the C blossom kernel is active, "python" when
        # the pure fallback ran — decode figures are not comparable
        # across the two, so every record self-declares its backend.
        "blossom_kernel": kernel_backend(),
    }


def profile_distance(
    distance: int,
    benchmarks: set[str],
    *,
    workers: int | None = None,
    shot_plan: dict | None = None,
) -> list[dict]:
    shots, legacy_shots = (shot_plan or SHOT_PLAN).get(distance, (1000, 100))
    records: list[dict] = []

    t0 = time.perf_counter()
    patch = rotated_surface_code(distance)
    circuit = memory_circuit(
        patch.code, "Z", ROUNDS, NoiseModel.uniform(NOISE_P)
    )
    dem = None
    dem_seconds = 0.0
    if benchmarks & {"build", "decode"}:
        t_dem = time.perf_counter()
        dem = build_dem(circuit)
        dem_seconds = time.perf_counter() - t_dem
    if "build" in benchmarks:
        # The graph build below is part of the timed "build" record; the
        # decode loop constructs its own per-rep decoders.
        decoder = MatchingDecoder(dem)
        decoder.graph.ensure_matrices()
    build_seconds = time.perf_counter() - t0
    if "build" in benchmarks:
        records.append(
            {
                "benchmark": "build",
                "distance": distance,
                "method": "code+dem+graph",
                "shots_per_sec": _rate(1, build_seconds),
                "seconds": build_seconds,
                "rounds": ROUNDS,
            }
        )
        records.append(
            {
                "benchmark": "dem_build",
                "distance": distance,
                "method": "packed",
                "shots_per_sec": _rate(1, dem_seconds),
                "seconds": dem_seconds,
                "mechanism_count": len(dem.mechanisms),
                "rounds": ROUNDS,
            }
        )

    if not benchmarks & {"sample", "decode"}:
        return records
    sample_detectors(circuit, 64, seed=1)  # warm the compile cache
    t0 = time.perf_counter()
    detectors, observables = sample_detectors(circuit, shots, seed=11)
    sample_seconds = time.perf_counter() - t0
    if "sample" in benchmarks:
        records.append(
            {
                "benchmark": "sample",
                "distance": distance,
                "method": "pauli_frame",
                "shots_per_sec": _rate(shots, sample_seconds),
                "shots": shots,
                "rounds": ROUNDS,
            }
        )

    if "decode" not in benchmarks:
        return records
    # The packed record decodes the same sample bits as the uint8 rows
    # (equal seed, equal draws), shipped as uint64 detector bitplanes.
    packed_detectors, _ = sample_detectors(
        circuit, shots, seed=11, output="packed"
    )
    methods: list[tuple[str, dict, int]] = [
        ("blossom", {}, shots),
        ("blossom_packed", {}, shots),
        ("uf", {"method": "uf"}, shots),
        ("greedy", {"method": "greedy"}, shots),
        ("blossom_legacy", {}, legacy_shots),
    ]
    if workers is not None and workers > 1:
        # The sharded path: same decoder, unique syndromes partitioned
        # across a forked process pool.
        methods.insert(1, ("blossom", {"workers": workers}, shots))
    for name, kwargs, n in methods:
        # Best of DECODE_REPS cold-cache runs: decode cost is heavy-tailed
        # (rare dense syndromes hit the slow blossom path) and thermal
        # noise moves single timings by ±10-20%, so the minimum time is
        # the stable estimator.  A fresh decoder per rep keeps the
        # syndrome LRU cold, measuring the same quantity as one run.
        seconds = float("inf")
        for _ in range(DECODE_REPS):
            if name == "blossom_legacy":
                dec = SeedDecoder(dem)
            else:
                dec = MatchingDecoder(dem, **kwargs)
            if name.startswith("blossom") and name != "blossom_legacy":
                dec.graph.ensure_route_tables()  # outside the timed region
            data = packed_detectors if name == "blossom_packed" else detectors[:n]
            t0 = time.perf_counter()
            dec.decode_batch(data)
            seconds = min(seconds, time.perf_counter() - t0)
        records.append(
            {
                "benchmark": "decode",
                "distance": distance,
                "method": name,
                "shots_per_sec": _rate(n, seconds),
                "shots": n,
                "rounds": ROUNDS,
                "reps": DECODE_REPS,
                "workers": kwargs.get("workers", 1),
            }
        )
    return records


def _timed_seam(fn, acc: dict, key: str):
    """Wrap ``fn`` so its wall time accumulates into ``acc[key]``."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[key] += time.perf_counter() - t0

    return wrapper


def glue_benchmark(distance: int) -> list[dict]:
    """Stage-attributed decode timing: where the numpy glue goes.

    Wraps the batch pipeline's internal seams with accumulating timers
    — ``dedup`` (row packing + the word-packed axis-0 ``np.unique``
    front door), ``gathers`` (the stacked all-pairs fancy-indexing
    passes), ``dp`` (the stacked subset-DP buckets), ``engine`` (the
    oversize matching-engine calls, batched or per-component) — then
    decodes one sampled batch per input flavour (uint8 rows and a
    packed bitplane) and reports each stage's seconds and fraction of
    the decode wall time.  A glue regression is then attributable to a
    stage, not just a total.  The timers add a few µs per seam call,
    so stage fractions are trustworthy but the ``total`` here is a
    shade above the untraced ``decode`` benchmark's.
    """
    import repro.decode.base as base_mod
    import repro.decode.batch as batch_mod
    from repro.decode import mwpm as mwpm_mod
    from repro.decode import sparse_match as sparse_mod

    shots, _ = SHOT_PLAN.get(distance, (1000, 100))
    patch = rotated_surface_code(distance)
    circuit = memory_circuit(
        patch.code, "Z", ROUNDS, NoiseModel.uniform(NOISE_P)
    )
    dem = build_dem(circuit)
    sample_detectors(circuit, 64, seed=1)  # warm the compile cache
    detectors, _ = sample_detectors(circuit, shots, seed=11)
    packed_detectors, _ = sample_detectors(
        circuit, shots, seed=11, output="packed"
    )
    seams = (
        (base_mod, "gf2_pack_rows", "dedup"),
        (base_mod, "_packed_dedup", "dedup"),
        (batch_mod, "_gather", "gathers"),
        (batch_mod, "_pairable", "gathers"),
        (batch_mod, "_dp_match_batch", "dp"),
        (sparse_mod, "sparse_match_parity_batch", "engine"),
        (mwpm_mod.MatchingDecoder, "_match_oversize", "engine"),
    )
    records: list[dict] = []
    for method, data in (
        ("blossom", detectors),
        ("blossom_packed", packed_detectors),
    ):
        acc = dict.fromkeys(("dedup", "gathers", "dp", "engine"), 0.0)
        originals = []
        try:
            for owner, name, key in seams:
                fn = getattr(owner, name)
                originals.append((owner, name, fn))
                setattr(owner, name, _timed_seam(fn, acc, key))
            dec = MatchingDecoder(dem)
            dec.graph.ensure_route_tables()  # outside the timed region
            t0 = time.perf_counter()
            dec.decode_batch(data)
            total = time.perf_counter() - t0
        finally:
            for owner, name, fn in originals:
                setattr(owner, name, fn)
        stage_seconds = dict(acc)
        stage_seconds["other"] = max(total - sum(acc.values()), 0.0)
        stage_seconds["total"] = total
        for stage in GLUE_STAGES:
            seconds = stage_seconds[stage]
            records.append(
                {
                    "benchmark": "glue",
                    "distance": distance,
                    "method": method,
                    "stage": stage,
                    "shots_per_sec": _rate(shots, seconds),
                    "seconds": seconds,
                    "fraction": seconds / total if total > 0 else None,
                    "shots": shots,
                    "rounds": ROUNDS,
                }
            )
        breakdown = "  ".join(
            f"{stage}={stage_seconds[stage] / total:5.1%}"
            for stage in GLUE_STAGES[:-1]
        )
        print(f"  glue/{method:<15} {total:6.3f}s  {breakdown}")
    return records


def _oversize_components(decoder, detectors):
    """Route arrays of every component past the sparse threshold.

    The same gather + pairable-graph BFS the serial per-shot
    formulation runs, kept here so the smoke gate times the matching
    engines alone — no caching, deduplication or DP buckets in the
    timed region.
    """
    tables = decoder.graph.ensure_route_tables()
    comps = []
    for row in detectors:
        defects = np.nonzero(row)[0]
        defects = defects[defects < decoder.graph.num_detectors]
        if len(defects) < SPARSE_MIN_DEFECTS:
            continue
        det = defects[None, :]
        W, use_pair, pairable, P, b_dist, b_par = _gather(tables, det)
        k = len(defects)
        unassigned = np.ones(k, dtype=bool)
        for start in range(k):
            if not unassigned[start]:
                continue
            members = np.zeros(k, dtype=bool)
            members[start] = True
            frontier = members
            while frontier.any():
                reached = pairable[0][frontier].any(axis=0) & ~members
                members |= reached
                frontier = reached
            unassigned &= ~members
            comp = np.nonzero(members)[0]
            if len(comp) < SPARSE_MIN_DEFECTS:
                continue
            sub = np.ix_(comp, comp)
            comps.append(
                (
                    len(comp),
                    W[0][sub].copy(),
                    use_pair[0][sub].copy(),
                    P[0][sub].copy(),
                    b_dist[0][comp].copy(),
                    b_par[0][comp].copy(),
                )
            )
    return comps


def match_engine_smoke() -> tuple[list[dict], bool]:
    """The matching-engine gate: sparse vs dense on large components.

    Samples the d = 7, p = 3e-3 slice — where almost every shot is one
    big defect component — extracts every component past the sparse
    threshold, and times both engines on the identical component list
    (best of ``DECODE_REPS``, matchings/sec).  Returns the records and
    whether the sparse engine met :data:`MATCH_SMOKE_MIN_RATIO`.
    """
    patch = rotated_surface_code(MATCH_SMOKE_DISTANCE)
    circuit = memory_circuit(
        patch.code, "Z", ROUNDS, NoiseModel.uniform(MATCH_SMOKE_P)
    )
    dem = build_dem(circuit)
    decoder = MatchingDecoder(dem)
    detectors, _ = sample_detectors(
        circuit, MATCH_SMOKE_SHOTS, seed=MATCH_SMOKE_SEED
    )
    comps = _oversize_components(decoder, detectors)
    if not comps:
        # A gate that measures nothing must not pass: at this slice's
        # noise level oversize components are the common case, so an
        # empty list means the sampler, threshold or shot plan changed
        # under the gate's feet.
        print(
            f"smoke: d={MATCH_SMOKE_DISTANCE} p={MATCH_SMOKE_P} produced "
            "no large components — matching-engine gate FAIL"
        )
        return [], False
    engines = {
        "sparse": sparse_match_parity,
        "dense": MatchingDecoder._blossom_match,
    }
    records: list[dict] = []
    # Interleave the engines within each rep (rather than timing all of
    # one engine's reps first): a thermal or noisy-neighbour phase then
    # hits both engines of a rep equally instead of skewing the ratio,
    # and best-of-DECODE_REPS damps what remains.
    best = dict.fromkeys(engines, float("inf"))
    for _ in range(DECODE_REPS):
        for name, run in engines.items():
            t0 = time.perf_counter()
            for k, W, use_pair, P, b_dist, b_par in comps:
                run(k, W, use_pair, P, b_dist, b_par)
            best[name] = min(best[name], time.perf_counter() - t0)
    rates: dict[str, float] = {}
    for name in engines:
        rates[name] = _rate(len(comps), best[name])
        records.append(
            {
                "benchmark": "match_smoke",
                "distance": MATCH_SMOKE_DISTANCE,
                "method": name,
                "shots_per_sec": rates[name],
                "components": len(comps),
                "mean_defects": float(np.mean([c[0] for c in comps])),
                "noise_p": MATCH_SMOKE_P,
                "rounds": ROUNDS,
                "reps": DECODE_REPS,
            }
        )
    ratio = (
        rates["sparse"] / rates["dense"] if rates["dense"] else float("inf")
    )
    ok = ratio >= MATCH_SMOKE_MIN_RATIO
    print(
        f"smoke: d={MATCH_SMOKE_DISTANCE} p={MATCH_SMOKE_P} sparse matcher "
        f"{ratio:.2f}x dense on {len(comps)} large components "
        f"({'PASS' if ok else 'FAIL'}, floor {MATCH_SMOKE_MIN_RATIO}x)"
    )
    return records, ok


def scaling_benchmark(distance: int) -> list[dict]:
    """Multi-core decode scaling: one workload, swept pool widths.

    Decodes the *same* sampled batch with ``decode_batch`` at
    ``workers ∈ sorted({1, 2, 4, nproc})`` and records per-width
    throughput plus ``parallel_efficiency`` — rate(w) / (w × rate(1)),
    1.0 meaning perfect linear scaling.  On a 1-core container the
    sweep still runs (the forked pool time-slices one core), so the
    committed records show what sharding costs there and what it buys
    wherever ``nproc`` is real; the ``machine`` dict on each record
    tells the two apart.  ``min_shard_syndromes`` is lowered so the
    fixed workload actually shards at every width instead of falling
    back to serial on the small-shard floor.
    """
    shots, _ = SHOT_PLAN.get(distance, (1000, 100))
    patch = rotated_surface_code(distance)
    circuit = memory_circuit(
        patch.code, "Z", ROUNDS, NoiseModel.uniform(NOISE_P)
    )
    dem = build_dem(circuit)
    sample_detectors(circuit, 64, seed=1)  # warm the compile cache
    detectors, _ = sample_detectors(circuit, shots, seed=11)
    widths = sorted({*SCALING_WORKERS, os.cpu_count() or 1})
    records: list[dict] = []
    base_rate = None
    for w in widths:
        seconds = float("inf")
        for _ in range(DECODE_REPS):
            # workers=1 is the explicit serial path (no fork), so the
            # base rate is measured on exactly the code path sharded
            # widths are compared against.
            dec = MatchingDecoder(dem, workers=w)
            dec.min_shard_syndromes = 1
            dec.graph.ensure_route_tables()  # outside the timed region
            t0 = time.perf_counter()
            dec.decode_batch(detectors)
            seconds = min(seconds, time.perf_counter() - t0)
        rate = _rate(shots, seconds)
        if base_rate is None:
            base_rate = rate
        records.append(
            {
                "benchmark": "scaling",
                "distance": distance,
                "method": f"blossom[w{w}]" if w > 1 else "blossom",
                "shots_per_sec": rate,
                "shots": shots,
                "rounds": ROUNDS,
                "reps": DECODE_REPS,
                "workers": w,
                "parallel_efficiency": (
                    rate / (w * base_rate) if base_rate else None
                ),
            }
        )
        print(
            f"  scaling/w{w:<2} {rate:>10.1f} shots/s  "
            f"(efficiency {records[-1]['parallel_efficiency']:.2f})"
        )
    return records


def service_benchmark(distance: int) -> tuple[list[dict], bool]:
    """Streamed decoding through the asyncio service, latency-profiled.

    ``SERVICE_STREAMS`` concurrent sessions each push a
    ``SERVICE_ROUNDS``-round d = ``distance`` syndrome stream through
    one :class:`repro.serve.DecodeService` in
    ``SERVICE_CHUNK_LAYERS``-layer chunks (``SERVICE_WORKERS`` pool
    threads, ``SERVICE_MAX_PENDING`` backpressure depth).  The window
    graphs and outcome memos are warmed outside the timed region — the
    record measures steady-state service latency, not one-time setup —
    and the returned flag is False when p99 is non-finite, i.e. the
    service never decoded a chunk.
    """
    import asyncio

    from repro.serve import DecodeService, SlidingWindowDecoder, WindowConfig

    shots = SERVICE_SHOT_PLAN.get(distance, 64)
    patch = rotated_surface_code(distance)
    noise = NoiseModel.uniform(NOISE_P)
    circuit = memory_circuit(patch.code, "Z", SERVICE_ROUNDS, noise)
    config = WindowConfig()
    window = SlidingWindowDecoder(patch.code, "Z", noise, config=config)
    sample_detectors(circuit, 16, seed=1)  # warm the compile cache
    detectors, _ = sample_detectors(
        circuit, shots, seed=11, output="packed"
    )
    rows = detectors.transposed().unpack()
    window.decode_batch(rows[:4])  # build the window graphs up front
    chunk_cols = SERVICE_CHUNK_LAYERS * window.layer_width

    async def run_streams():
        service = DecodeService(
            window,
            workers=SERVICE_WORKERS,
            max_pending=SERVICE_MAX_PENDING,
        )

        async def one_stream():
            session = service.open_stream(shots)
            for lo in range(0, rows.shape[1], chunk_cols):
                await session.submit(rows[:, lo : lo + chunk_cols])
            return await session.finish()

        async with service:
            await asyncio.gather(
                *(one_stream() for _ in range(SERVICE_STREAMS))
            )
        return service.stats()

    stats = asyncio.run(run_streams())
    record = {
        "benchmark": "service",
        "distance": distance,
        "method": f"window{config.window}/{config.commit}",
        "shots_per_sec": stats.shots_per_sec,
        "shots": stats.shots,
        "streams": stats.streams,
        "chunks": stats.chunks,
        "chunk_layers": SERVICE_CHUNK_LAYERS,
        "rounds": SERVICE_ROUNDS,
        "workers": SERVICE_WORKERS,
        "max_pending": SERVICE_MAX_PENDING,
        "p50_ms": _finite(stats.p50_ms),
        "p95_ms": _finite(stats.p95_ms),
        "p99_ms": _finite(stats.p99_ms),
    }
    ok = bool(np.isfinite(stats.p99_ms))
    print(
        f"  service/{record['method']:<12} {stats.shots_per_sec:>10.1f} "
        f"shots/s  p50={stats.p50_ms:.2f}ms p95={stats.p95_ms:.2f}ms "
        f"p99={stats.p99_ms:.2f}ms ({'PASS' if ok else 'FAIL'})"
    )
    return [record], ok


def _decode_label(record: dict) -> str:
    """Display/lookup label for a decode record (sharded runs tagged)."""
    if record.get("workers", 1) > 1:
        return f"{record['method']}[w{record['workers']}]"
    return record["method"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--distances", default="3,5,7,9")
    parser.add_argument(
        "--benchmarks",
        default="build,sample,decode,glue",
        help="comma-separated subset of build,sample,decode,scaling,glue,"
        "service (scaling and service run once at the largest selected "
        "distance; glue writes a per-distance decode stage-timing "
        "breakdown; service streams chunked syndromes through the "
        "asyncio decode service and records latency percentiles)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="also time the sharded blossom path with this pool width",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast d=3 decode tripwire for CI: small shot plan, separate "
        "output file, nonzero exit below the speedup floor",
    )
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    repo_root = Path(__file__).resolve().parent.parent
    # Validate the selections up front, in every mode: an unknown or
    # empty --benchmarks/--distances used to slip through (--smoke
    # ignored the names entirely) and silently write a report with
    # nothing in it.
    requested = {b.strip() for b in args.benchmarks.split(",") if b.strip()}
    unknown = requested - set(BENCHMARKS)
    if unknown:
        parser.error(
            f"unknown benchmarks: {sorted(unknown)} "
            f"(choose from {', '.join(BENCHMARKS)})"
        )
    if not requested:
        parser.error(
            "--benchmarks selected nothing; choose from "
            f"{', '.join(BENCHMARKS)}"
        )
    try:
        requested_distances = [
            int(d) for d in args.distances.split(",") if d.strip()
        ]
    except ValueError:
        parser.error(
            "--distances must be comma-separated integers, got "
            f"{args.distances!r}"
        )
    if not requested_distances:
        parser.error("--distances selected nothing")
    if args.smoke:
        # Smoke is a fixed gate (d=3 decode tripwire + d=7 matching
        # engines); reject flag combinations it would silently ignore
        # rather than let a user think another grid was gated.
        if args.distances != "3,5,7,9":
            parser.error("--smoke always profiles d=3; drop --distances")
        if "decode" not in requested:
            parser.error("--smoke gates the decode benchmark; drop --benchmarks")
        distances = [3]
        benchmarks = {"decode"}
        shot_plan = SMOKE_SHOT_PLAN
        default_out = repo_root / "BENCH_decode.smoke.json"
    else:
        distances = requested_distances
        benchmarks = requested
        shot_plan = None
        default_out = repo_root / "BENCH_decode.json"
    out_path = Path(args.out if args.out is not None else default_out)

    machine = _machine_metadata()
    stage_benchmarks = benchmarks - {"scaling", "glue", "service"}
    all_records: list[dict] = []
    for d in distances if stage_benchmarks else []:
        print(f"profiling d={d} ({ROUNDS} rounds, p={NOISE_P}) ...", flush=True)
        records = profile_distance(
            d, stage_benchmarks, workers=args.workers, shot_plan=shot_plan
        )
        all_records.extend(records)
        for r in records:
            if r["benchmark"] in ("build", "dem_build"):
                print(f"  {r['benchmark']:<9} {r['seconds']:.2f}s")
            elif r["benchmark"] == "sample":
                print(f"  sample    {r['shots_per_sec']:>10.1f} shots/s")
        by_method = {
            _decode_label(r): r["shots_per_sec"]
            for r in records
            if r["benchmark"] == "decode"
        }
        legacy = by_method.get("blossom_legacy", float("nan"))
        for method, rate in by_method.items():
            rel = rate / legacy if legacy else float("nan")
            print(f"  decode/{method:<15} {rate:>10.1f} shots/s  ({rel:5.1f}x legacy)")
    if "glue" in benchmarks:
        for d in distances:
            print(
                f"glue d={d} ({ROUNDS} rounds, p={NOISE_P}) ...", flush=True
            )
            all_records.extend(glue_benchmark(d))
    if "scaling" in benchmarks:
        d = max(distances)
        print(
            f"scaling d={d} ({ROUNDS} rounds, p={NOISE_P}, "
            f"nproc={os.cpu_count()}) ...",
            flush=True,
        )
        all_records.extend(scaling_benchmark(d))
    status = 0
    if "service" in benchmarks:
        d = max(distances)
        print(
            f"service d={d} ({SERVICE_ROUNDS} rounds, p={NOISE_P}, "
            f"{SERVICE_STREAMS} streams) ...",
            flush=True,
        )
        service_records, service_ok = service_benchmark(d)
        all_records.extend(service_records)
        if not service_ok:
            status = 1
    if args.smoke:
        match_records, match_ok = match_engine_smoke()
        all_records.extend(match_records)
        if not match_ok:
            status = 1
    for record in all_records:
        record["machine"] = machine
    # Write-temp-then-replace: a run interrupted mid-write can never
    # truncate the committed baseline (or a smoke report CI archives).
    atomic_write_text(
        out_path, json.dumps(all_records, indent=2, allow_nan=False) + "\n"
    )
    print(f"wrote {out_path} ({len(all_records)} records)")

    if args.smoke:
        rates = {
            _decode_label(r): r["shots_per_sec"]
            for r in all_records
            if r["benchmark"] == "decode" and r["distance"] == 3
        }
        speedup = rates["blossom"] / rates["blossom_legacy"]
        ok = speedup >= SMOKE_MIN_SPEEDUP
        print(
            f"smoke: d=3 blossom {speedup:.1f}x legacy "
            f"({'PASS' if ok else 'FAIL'}, floor {SMOKE_MIN_SPEEDUP}x)"
        )
        if not ok:
            status = 1
    d7 = [
        r
        for r in all_records
        if r["benchmark"] == "decode" and r["distance"] == 7
    ]
    if d7:
        rates = {_decode_label(r): r["shots_per_sec"] for r in d7}
        speedup = rates["blossom"] / rates["blossom_legacy"]
        print(
            f"d=7 blossom speedup over seed implementation: {speedup:.1f}x "
            f"({'PASS' if speedup >= 10 else 'BELOW'} the >=10x target)"
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
