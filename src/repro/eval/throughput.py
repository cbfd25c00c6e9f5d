"""Throughput experiments: routing (fig. 11c) and the decode pipeline.

:func:`throughput_experiment` replicates the paper's layout experiment:
100 logical qubits, task sets of 5 tasks × 25 CNOTs over 50 distinct
logical qubits, sampled defect events.  For each sampled defect
configuration:

* the **Q3DE layout** (d inter-space) doubles every struck patch, whose
  enlargement blocks the surrounding channel segments;
* the **Surf-Deformer layout** (d + Δd inter-space) only blocks a patch
  with the tiny equation-1 overflow probability;
* the defect-free lattice-surgery schedule provides the optimal-runtime
  reference.

Throughput is gates completed per surgery timestep, averaged over defect
samples.

:func:`decoding_throughput` measures the other throughput the paper's
argument leans on — that classical decoding keeps up with the syndrome
stream.  It drives the unified batch pipeline end to end
(packed sampling → ``decode_batch`` → packed observable parities) in
bounded-memory chunks and reports sample and decode shots/sec for one
memory-experiment configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.eval.montecarlo import (
    _cached_decoder,
    _compiled_circuit,
    chunk_plan,
    resolved_rounds,
)
from repro.layout.generator import LayoutSpec
from repro.layout.grid import LogicalLayout
from repro.layout.routing import Router
from repro.sim import sample_detectors

if TYPE_CHECKING:
    from repro.codes.subsystem import SubsystemCode
    from repro.sim import NoiseModel

__all__ = [
    "ThroughputResult",
    "throughput_experiment",
    "make_task_set",
    "DecodeThroughputResult",
    "decoding_throughput",
]


@dataclass(frozen=True)
class ThroughputResult:
    """Average throughput of one (layout policy, defect rate) point."""

    policy: str
    defect_rate: float
    throughput: float
    baseline_throughput: float
    stall_fraction: float

    @property
    def relative(self) -> float:
        if self.baseline_throughput == 0:
            return 0.0
        return self.throughput / self.baseline_throughput


def make_task_set(
    num_qubits: int,
    num_tasks: int,
    gates_per_task: int,
    *,
    qubits_used: int | None = None,
    seed: int | None = None,
) -> list[tuple[int, int]]:
    """Random CNOT workload à la fig. 11(c) (tasks on distinct qubits).

    ``qubits_used`` defaults to ``num_qubits``; an explicit value must
    be positive (and at most ``num_qubits``) — the old ``or`` default
    silently turned ``qubits_used=0`` into "use all qubits".
    """
    rng = np.random.default_rng(seed)
    if qubits_used is None:
        qubits_used = num_qubits
    if qubits_used <= 0:
        raise ValueError(f"qubits_used must be positive, got {qubits_used}")
    if qubits_used > num_qubits:
        raise ValueError(
            f"qubits_used ({qubits_used}) exceeds num_qubits ({num_qubits})"
        )
    pool = rng.permutation(num_qubits)[:qubits_used]
    gates = []
    for _ in range(num_tasks):
        for _ in range(gates_per_task):
            a, b = rng.choice(pool, size=2, replace=False)
            gates.append((int(a), int(b)))
    return gates


def throughput_experiment(
    policy: str,
    defect_rate: float,
    gates: list[tuple[int, int]],
    *,
    spec: LayoutSpec,
    samples: int = 20,
    seed: int | None = None,
    defect_size: int = 4,
    event_duration_s: float = 25e-3,
) -> ThroughputResult:
    """Average throughput under sampled defect strikes.

    ``defect_rate`` is the instantaneous per-physical-qubit defect
    probability (the x-axis of fig. 11c); defect counts per patch are
    Poisson with λ = 2 d² × rate.  Policy semantics:

    * ``"q3de"`` — any struck patch doubles and blocks its channels;
    * ``"surf_deformer"`` — a patch blocks only on equation-1 overflow
      (more simultaneous defects than the Δd inter-space absorbs);
    * ``"lattice_surgery"`` — no defects considered (optimal reference).
    """
    rng = np.random.default_rng(seed)
    lam = 2.0 * spec.d * spec.d * defect_rate
    p_struck = 1.0 - math.exp(-lam)
    if policy == "surf_deformer":
        # Poisson tail beyond the Δd budget (equation 1).
        absorbed = spec.delta_d // defect_size
        tail = 1.0
        term = math.exp(-lam)
        for k in range(absorbed + 1):
            tail -= term
            term *= lam / (k + 1)
        p_blocked = max(0.0, tail)
    elif policy == "q3de":
        p_blocked = p_struck
    elif policy == "lattice_surgery":
        p_blocked = 0.0
    else:
        raise ValueError(f"unknown policy {policy!r}")

    baseline = Router(LogicalLayout(spec=spec)).schedule(list(gates))
    throughputs = []
    stalls = []
    for _ in range(samples):
        blocked = {
            (r, c)
            for r in range(spec.rows)
            for c in range(spec.cols)
            if rng.random() < p_blocked
        }
        layout = LogicalLayout(spec=spec, blocked_cells=blocked)
        result = Router(layout).schedule(list(gates))
        throughputs.append(result.throughput)
        stalls.append(result.stalled / max(1, len(gates)))
    return ThroughputResult(
        policy=policy,
        defect_rate=defect_rate,
        throughput=float(np.mean(throughputs)),
        baseline_throughput=baseline.throughput,
        stall_fraction=float(np.mean(stalls)),
    )


@dataclass(frozen=True)
class DecodeThroughputResult:
    """Sampler/decoder rates of one streamed memory experiment."""

    method: str
    rounds: int
    shots: int
    errors: int
    sample_seconds: float
    decode_seconds: float

    @property
    def sample_shots_per_sec(self) -> float:
        if self.sample_seconds <= 0:
            return float("inf")
        return self.shots / self.sample_seconds

    @property
    def decode_shots_per_sec(self) -> float:
        if self.decode_seconds <= 0:
            return float("inf")
        return self.shots / self.decode_seconds

    @property
    def logical_error_rate(self) -> float:
        return self.errors / self.shots if self.shots else 0.0


def decoding_throughput(
    code: SubsystemCode,
    noise: NoiseModel,
    *,
    basis: str = "Z",
    rounds: int | None = None,
    shots: int = 10_000,
    chunk_shots: int | None = 65_536,
    seed: int | None = None,
    decoder_method: str = "blossom",
    workers: int | None = None,
) -> DecodeThroughputResult:
    """Time the packed sample→decode pipeline on one memory experiment.

    Streams ``shots`` through the unified batch API in ``chunk_shots``
    chunks (bounded memory at any shot count), accumulating wall-clock
    time per stage.  Decoder construction (DEM + all-pairs matrices)
    happens before timing starts and is memoised across calls via the
    Monte-Carlo decoder cache, so the figures reflect steady-state
    throughput, not setup.
    """
    rounds = resolved_rounds(code, rounds)
    circuit = _compiled_circuit(code, basis, rounds, noise)
    decoder = _cached_decoder(
        code, basis, rounds, noise, None, None, decoder_method,
        circuit=circuit,
    )
    if decoder.graph.uses_whole_tables:
        decoder.graph.ensure_route_tables()
    errors = 0
    sample_seconds = 0.0
    decode_seconds = 0.0
    for chunk_seed, chunk in chunk_plan(shots, chunk_shots, seed):
        t0 = time.perf_counter()
        detectors, observables = sample_detectors(
            circuit, chunk, seed=chunk_seed, output="packed"
        )
        t1 = time.perf_counter()
        predictions = decoder.decode_batch(detectors, workers=workers)
        decode_seconds += time.perf_counter() - t1
        sample_seconds += t1 - t0
        errors += int((predictions != observables.column_parity()).sum())
    return DecodeThroughputResult(
        method=decoder_method,
        rounds=rounds,
        shots=shots,
        errors=errors,
        sample_seconds=sample_seconds,
        decode_seconds=decode_seconds,
    )
