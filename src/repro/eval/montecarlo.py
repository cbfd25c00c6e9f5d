"""Monte-Carlo logical-error-rate measurement (fig. 11a, 14a, 14b).

Couples the syndrome-circuit generator, the Pauli-frame sampler and the
matching decoder into the standard memory-experiment harness:

1. build a ``basis``-memory circuit for the (possibly deformed) code,
2. extract its detector error model and decoding graph,
3. sample shots, decode, count logical flips,
4. report the per-shot and per-round logical error rate.

Untreated defective qubits are passed through to the circuit generator,
which injects the paper's ≈ 50 % defect noise on them.

Decoder construction is the expensive part of an experiment — DEM
extraction walks the compiled program backwards once and the decoding
graph precomputes all-pairs path matrices — so ``(code, basis, rounds,
noise, defects)``-keyed decoders are memoised in a bounded cache.
Sweeps that revisit the same configuration (the Z/X bases of
:func:`logical_error_rate`, repeated calls while scanning shots or
defect samples) pay for DEM + graph construction once.  The built and
compiled circuit is memoised under the same key, one entry deep: the
chunks of a sweep cell arrive as consecutive same-configuration calls,
and each pays only for sampling and decoding.

Samples flow packed end to end: the sampler hands
:class:`~repro.utils.gf2.PackedBits` detector bitplanes straight to
``decode_batch`` (never materialising a ``(shots, detectors)`` uint8
array), and ``chunk_shots`` streams a large experiment through the
pipeline in bounded-memory chunks — each chunk sampled from an
independent child seed — so 10^6-shot sweeps run in a few tens of MB.

When an artifact store is active (:func:`repro.store.get_store` — via
``set_store``/``using_store`` or the ``REPRO_STORE`` env var) the
decoder's build products persist *on disk* under the configuration
key: extracted DEMs and the decoding graph's all-pairs matrices are
loaded from the store when present and written back after a build, so
fresh processes skip the expensive d ≥ 7 builds.  Compiled circuits
are not stored: digesting one's instruction stream and loading it back
cost more than building and compiling it again.  A corrupt entry is
quarantined and rebuilt — persistence can slow a run, never break it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.codes import SubsystemCode
from repro.decode import MatchingDecoder
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.sim.circuit import Circuit, compile_circuit
from repro.store import get_store

__all__ = [
    "MemoryResult",
    "memory_experiment",
    "logical_error_rate",
    "clear_decoder_cache",
    "chunk_plan",
]

#: Bounded decoder memo: content-derived cache key -> MatchingDecoder.
_DECODER_CACHE: OrderedDict[tuple, MatchingDecoder] = OrderedDict()
_DECODER_CACHE_SIZE = 32
#: The last circuit :func:`_compiled_circuit` built, as one ``(config key,
#: circuit)`` tuple: a reader never pairs a key with another's circuit.
_LAST_CIRCUIT: tuple[tuple, Circuit] | None = None


def clear_decoder_cache() -> None:
    """Drop the memoised decoders and circuit (for tests and benchmarks)."""
    global _LAST_CIRCUIT
    _DECODER_CACHE.clear()
    _LAST_CIRCUIT = None


def resolved_rounds(code: SubsystemCode, rounds: int | None) -> int:
    """``rounds``, or the default of one round per qubit within 3..25."""
    return max(3, min(code.n, 25)) if rounds is None else rounds


def _code_fingerprint(code: SubsystemCode) -> tuple:
    """Content fingerprint of a code's measured structure.

    The deformation layer mutates codes in place (check substitution,
    stabilizer rewrites), so identity cannot key the cache; and sweeps
    rebuild content-identical code objects (a fresh ``SubsystemCode``
    per defect sample), so identity must not *miss* either.  The tuple
    itself is the key component — collision-safe, unlike ``hash()``.
    """
    return (
        tuple(code.qubit_order()),  # circuit qubit indexing follows this
        frozenset(
            (name, c.pauli, c.basis, c.ancilla) for name, c in code.checks.items()
        ),
        frozenset(
            (name, s.pauli, s.measured_via)
            for name, s in code.stabilizers.items()
        ),
        code.logical_x,
        code.logical_z,
    )


def _config_key(
    code: SubsystemCode, basis: str, rounds: int, noise: NoiseModel,
    defective_data: set | None, defective_ancillas: set | None,
) -> tuple:
    """Content key of one experiment configuration."""
    return (
        _code_fingerprint(code), basis, rounds, noise,
        frozenset(defective_data or ()), frozenset(defective_ancillas or ()),
    )


def prime_compiled(circuit: Circuit) -> Circuit:
    """Compile a freshly built ``circuit`` into its compile cache, so
    sampling and DEM extraction find the program already built."""
    circuit._compiled = (len(circuit.instructions), compile_circuit(circuit))
    return circuit


def _build_circuit(
    code: SubsystemCode, basis: str, rounds: int, noise: NoiseModel,
    defective_data: set | None, defective_ancillas: set | None,
) -> Circuit:
    """Build and compile one configuration's memory circuit."""
    circuit = memory_circuit(
        code, basis, rounds, noise,
        defective_data=defective_data, defective_ancillas=defective_ancillas,
    )
    return prime_compiled(circuit)


def _compiled_circuit(
    code: SubsystemCode, basis: str, rounds: int, noise: NoiseModel,
    defective_data: set | None = None, defective_ancillas: set | None = None,
) -> Circuit:
    """:func:`_build_circuit`, memoised one entry deep: a run of
    same-configuration calls (the chunks of a sweep cell) builds once.
    No caller interleaves configurations, and one entry keeps only one
    circuit alive (about 6 MB at d = 9 × 9)."""
    global _LAST_CIRCUIT
    args = (code, basis, rounds, noise, defective_data, defective_ancillas)
    key = _config_key(*args)
    last = _LAST_CIRCUIT
    if last is not None and last[0] == key:
        return last[1]
    last = _LAST_CIRCUIT = None  # free the old circuit before building anew
    circuit = _build_circuit(*args)
    _LAST_CIRCUIT = (key, circuit)
    return circuit


def _cached_decoder(
    code: SubsystemCode,
    basis: str,
    rounds: int,
    noise: NoiseModel,
    defective_data: set | None,
    defective_ancillas: set | None,
    method: str,
    circuit=None,
) -> MatchingDecoder:
    """Decoder for one experiment configuration, memoised.

    ``circuit`` may supply an already-built memory circuit matching the
    defect arguments, saving a rebuild on cache misses; a circuit built
    here does not replace the memoised one.  With an active artifact
    store, the DEM and (for matrix-backed methods) the all-pairs
    matrices are additionally persisted across processes, keyed on the
    same content tuple.
    """
    args = (code, basis, rounds, noise, defective_data, defective_ancillas)
    config_key = _config_key(*args)
    key = (*config_key, method)
    decoder = _DECODER_CACHE.get(key)
    if decoder is not None:
        _DECODER_CACHE.move_to_end(key)
        return decoder

    def build_circuit() -> Circuit:
        return _build_circuit(*args) if circuit is None else circuit

    store = get_store()
    if store is None:
        dem = build_dem(build_circuit())
    else:
        # The DEM is method-independent, so its artifact is shared by
        # every decoder method of the same experiment configuration.
        dem = store.get_or_build(
            "dem", config_key, lambda: build_dem(build_circuit())
        )
    decoder = MatchingDecoder(dem, method=method)
    graph = decoder.graph
    if store is not None and graph.uses_whole_tables and method != "uf":
        dist, parity = store.get_or_build(
            "path_matrices", config_key, graph.ensure_matrices
        )
        graph.adopt_matrices(dist, parity)
    _DECODER_CACHE[key] = decoder
    if len(_DECODER_CACHE) > _DECODER_CACHE_SIZE:
        _DECODER_CACHE.popitem(last=False)
    return decoder


@dataclass(frozen=True)
class MemoryResult:
    """Outcome of one memory experiment."""

    basis: str
    rounds: int
    shots: int
    errors: int
    dropped_hyperedges: int

    @property
    def per_shot(self) -> float:
        return self.errors / self.shots

    @property
    def per_round(self) -> float:
        """Per-round (per-cycle) logical error rate."""
        p = min(self.per_shot, 0.5)
        if p <= 0:
            return 0.0
        # p_shot = (1 - (1 - 2 p_round)^rounds) / 2
        return (1 - (1 - 2 * p) ** (1.0 / self.rounds)) / 2


def chunk_plan(
    shots: int, chunk_shots: int | None, seed: int | None
) -> list[tuple[int | None, int]]:
    """``(seed, shots)`` per streaming chunk.

    A single chunk passes ``seed`` through untouched (so unchunked
    results are unchanged by the streaming refactor); multiple chunks
    sample independent child streams spawned from ``seed``.

    This plan is the *unit of resumability*: the checkpointed sweep
    runner (:mod:`repro.sweep`) journals completed chunks by their
    position in this list and replays only the missing ones — each
    chunk re-run standalone as ``memory_experiment(shots=n,
    seed=chunk_seed)`` draws exactly the bits the uninterrupted chunked
    run would have, so merged counts are bit-identical.
    """
    if chunk_shots is None or chunk_shots >= shots or chunk_shots < 1:
        return [(seed, shots)]
    sizes = [chunk_shots] * (shots // chunk_shots)
    if shots % chunk_shots:
        sizes.append(shots % chunk_shots)
    if seed is None:
        return [(None, n) for n in sizes]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return [
        (int(child.generate_state(1)[0]), n)
        for child, n in zip(children, sizes, strict=True)
    ]


def memory_experiment(
    code: SubsystemCode,
    basis: str,
    noise: NoiseModel,
    *,
    rounds: int | None = None,
    shots: int = 2000,
    seed: int | None = None,
    chunk_shots: int | None = None,
    defective_data: set | None = None,
    defective_ancillas: set | None = None,
    decoder_method: str = "blossom",
    decoder_aware_of_defects: bool = False,
    workers: int | None = None,
) -> MemoryResult:
    """Run one ``basis``-memory experiment and decode it.

    By default the decoder's error model is built from the *clean*
    circuit even when defects are injected — dynamic defects strike
    unannounced, so the "no treatment" baseline of fig. 11(a) decodes
    with stale error rates.  ``decoder_aware_of_defects=True`` gives the
    decoder the defect-aware model instead (an erasure-like best case).

    ``workers=N`` shards the batch's unique syndromes across ``N``
    forked processes (``MatchingDecoder.decode_batch``); dense d ≥ 7
    sweeps then scale with cores.  It only affects scheduling, never
    predictions, so it is deliberately *not* part of the decoder cache
    key — memoised decoders are reused across worker settings.

    ``chunk_shots=N`` streams the experiment in bounded-memory chunks
    of at most ``N`` shots, each sampled from an independent child
    stream of ``seed``; the syndrome LRU carries across chunks, so the
    total decode work matches the one-batch run.  Chunked and unchunked
    runs of the same seed draw different (equally valid) samples.
    """
    rounds = resolved_rounds(code, rounds)
    circuit = _compiled_circuit(
        code, basis, rounds, noise, defective_data, defective_ancillas
    )
    if decoder_aware_of_defects:
        decoder_defects = (defective_data, defective_ancillas)
        decoder_circuit = circuit
    elif not (defective_data or defective_ancillas):
        decoder_defects = (None, None)
        decoder_circuit = circuit  # clean run: the sampled circuit is clean
    else:
        decoder_defects = (None, None)
        decoder_circuit = None  # decoder sees the clean model, not the strike
    decoder = _cached_decoder(
        code, basis, rounds, noise, *decoder_defects, decoder_method,
        circuit=decoder_circuit,
    )
    errors = 0
    for chunk_seed, chunk in chunk_plan(shots, chunk_shots, seed):
        detectors, observables = sample_detectors(
            circuit, chunk, seed=chunk_seed, output="packed"
        )
        predictions = decoder.decode_batch(detectors, workers=workers)
        actual = observables.column_parity()
        errors += int((predictions != actual).sum())
    return MemoryResult(
        basis=basis,
        rounds=rounds,
        shots=shots,
        errors=errors,
        dropped_hyperedges=decoder.graph.dem.dropped_hyperedges,
    )


def logical_error_rate(
    code: SubsystemCode,
    noise: NoiseModel,
    *,
    rounds: int | None = None,
    shots: int = 2000,
    seed: int | None = None,
    chunk_shots: int | None = None,
    defective_data: set | None = None,
    defective_ancillas: set | None = None,
    decoder_method: str = "blossom",
    decoder_aware_of_defects: bool = False,
    workers: int | None = None,
) -> float:
    """Combined per-round logical error rate over both bases.

    The total logical error rate is approximately the sum of the X- and
    Z-memory rates (independent failure mechanisms to first order).
    Each basis samples an independent random stream derived from
    ``seed`` (child seeds via ``np.random.SeedSequence.spawn``), so the
    two memory experiments are decorrelated even at a fixed seed.
    """
    if seed is None:
        basis_seeds = {"Z": None, "X": None}
    else:
        z_child, x_child = np.random.SeedSequence(seed).spawn(2)
        basis_seeds = {
            "Z": int(z_child.generate_state(1)[0]),
            "X": int(x_child.generate_state(1)[0]),
        }
    total = 0.0
    for basis in ("Z", "X"):
        result = memory_experiment(
            code,
            basis,
            noise,
            rounds=rounds,
            shots=shots,
            seed=basis_seeds[basis],
            chunk_shots=chunk_shots,
            defective_data=defective_data,
            defective_ancillas=defective_ancillas,
            decoder_method=decoder_method,
            decoder_aware_of_defects=decoder_aware_of_defects,
            workers=workers,
        )
        total += result.per_round
    return total
