"""Property tests for the packed sampler→decoder flow.

The packed output format (:class:`~repro.utils.gf2.PackedBits` uint64
bitplanes) and the unpacked ``(shots, n)`` uint8 arrays must be two
views of the *same* sample — equal bits for equal sampler state — and
feeding either through ``decode_batch`` must give bit-identical
predictions and logical-error counts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decode_oracles import SerialMatrixDecoder
from repro.decode import MatchingDecoder
from repro.sim import (
    NoiseModel,
    build_dem,
    memory_circuit,
    sample_detectors,
)
from repro.surface import rotated_surface_code
from repro.utils.gf2 import PackedBits, gf2_pack_rows
from sim_oracle import OracleSampler, PackedEngine

_PATCH = rotated_surface_code(3)
_CIRCUIT = memory_circuit(_PATCH.code, "Z", 3, NoiseModel.uniform(4e-3))
_DEM = build_dem(_CIRCUIT)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shots=st.integers(1, 150))
def test_packed_and_unpacked_sampling_decode_identically(seed, shots):
    det_u, obs_u = sample_detectors(_CIRCUIT, shots, seed=seed)
    det_p, obs_p = sample_detectors(
        _CIRCUIT, shots, seed=seed, output="packed"
    )
    # Same sampler state → the packed output is the same bits.
    assert (det_p.unpack().T == det_u).all()
    assert (obs_p.unpack().T == obs_u).all()

    decoder = MatchingDecoder(_DEM)
    pred_u = decoder.decode_batch(det_u)
    pred_p = MatchingDecoder(_DEM).decode_batch(det_p)
    assert (pred_p == pred_u).all()

    actual_u = (obs_u.sum(axis=1) % 2).astype(np.uint8)
    errors_u = int((pred_u != actual_u).sum())
    errors_p = int((pred_p != obs_p.column_parity()).sum())
    assert errors_p == errors_u
    assert decoder.logical_error_rate(det_u, obs_u) == MatchingDecoder(
        _DEM
    ).logical_error_rate(det_p, obs_p)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shots=st.integers(1, 100))
def test_unpacked_engine_sample_packed_round_trips(seed, shots):
    """The reference (uint8) engine's rows, packed, are the packed
    engine's bitplanes under one shared noise mask."""
    oracle = OracleSampler(_CIRCUIT, seed=seed)
    masks = oracle.draw_masks(shots)
    det_u, obs_u = oracle.sample_masked(masks, shots, packed=False)
    det_p, obs_p = PackedEngine(oracle.program, shots).run(masks=masks)
    assert (PackedBits(det_p, shots).unpack().T == det_u).all()
    assert (PackedBits(obs_p, shots).unpack().T == obs_u).all()


def test_packed_bits_transpose_blocks():
    """Block-wise packed transpose equals the dense transpose."""
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=(37, 517), dtype=np.uint8)
    packed = PackedBits.pack(bits)
    for block in (64, 128, 4096):
        assert (packed.transpose(block=block).unpack() == bits.T).all()
    assert (packed.column_parity() == bits.sum(axis=0) % 2).all()


def test_packed_bits_transposed_is_memoised():
    """``transposed()`` computes once and returns the same object."""
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2, size=(23, 301), dtype=np.uint8)
    packed = PackedBits.pack(bits)
    first = packed.transposed()
    assert first is packed.transposed()
    assert (first.unpack() == bits.T).all()
    assert (first.unpack() == packed.transpose().unpack()).all()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shots=st.integers(1, 60),
    density=st.floats(0.0, 0.3),
)
def test_word_dedup_equals_row_dedup_and_packed_input(seed, shots, density):
    """Word-packed dedup ≡ byte-row dedup ≡ packed-input predictions.

    Random uint8 batches — always containing an all-zero row and a
    duplicate — must give the same unique count whether rows are
    deduplicated as bytes or as packed uint64 words, and decode to the
    same predictions through every input flavour: the word-dedup batch
    path, a reference byte-row dedup + per-unique serial oracle decode,
    and a ``PackedBits`` bitplane.
    """
    decoder = MatchingDecoder(_DEM)
    width = decoder.num_detectors
    rng = np.random.default_rng(seed)
    rows = (rng.random((shots, width)) < density).astype(np.uint8)
    # Seeded degenerate rows: one all-zero shot, one duplicate pair.
    rows[rng.integers(shots)] = 0
    rows[rng.integers(shots)] = rows[rng.integers(shots)]

    nonzero = np.nonzero(rows.any(axis=1))[0]
    unique_rows = np.unique(rows[nonzero], axis=0)
    unique_words = np.unique(gf2_pack_rows(rows)[nonzero], axis=0)
    assert len(unique_words) == len(unique_rows)

    pred_batch = decoder.decode_batch(rows)
    # Reference: byte-row dedup + the serial per-shot oracle.
    reference = SerialMatrixDecoder(_DEM)
    uniq, inverse = np.unique(rows[nonzero], axis=0, return_inverse=True)
    per_unique = np.array(
        [reference.decode(u) for u in uniq], dtype=np.uint8
    )
    pred_rows = np.zeros(shots, dtype=np.uint8)
    pred_rows[nonzero] = per_unique[inverse.reshape(-1)]
    assert (pred_batch == pred_rows).all()

    bitplane = PackedBits.pack(rows.T)  # rows = detectors, bits = shots
    pred_packed = MatchingDecoder(_DEM).decode_batch(bitplane)
    assert (pred_packed == pred_batch).all()
