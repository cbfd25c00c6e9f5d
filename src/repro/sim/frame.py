"""Vectorised Pauli-frame sampling on bit-packed uint64 bitplanes.

A Pauli frame tracks, per shot, the Pauli difference between the noisy
run and a noiseless reference run.  For Clifford circuits with Pauli
noise, propagating the frame through each gate and XORing the frame's
anticommuting component into every measurement reproduces the exact
detector/observable statistics of full stabilizer simulation — this is
the same trick Stim's sampler uses.

Frames live in transposed ``(num_qubits, ceil(shots/64))`` ``uint64``
bitplanes (one bit per shot, packed with the :mod:`repro.utils.gf2`
little-endian layout), so every gate on every shot is a handful of
word-wide XORs.  The engine walks the circuit's layered program
(:meth:`~repro.sim.circuit.Circuit.compiled`): one step per layer and
op kind, each updating all of its targets in one fancy-indexed
assignment, then the sparse CSR detector/observable wiring in one pass.

Noise channels with small ``p`` draw a Binomial number of flips and
place them as individual bits (exact: the flipped positions form a
uniform without-replacement subset, equivalent to i.i.d. Bernoulli
trials), instead of one float per (shot, qubit) trial; channels with
``p ≥ 0.05`` draw a dense mask.  A run draws every channel's flip count
and the uniforms that place them and pick their Pauli letters up front;
the dense masks and the rare redraw of colliding positions then follow
in instruction order.  Flips are resolved in that order ahead of the
layer walk, in blocks of about ``_FLIP_BLOCK`` uniforms, and each
layer's noise op applies its channels' flips in one
``np.bitwise_xor.at``.  The random stream is therefore the
per-instruction engine's, which ``tests/sim_oracle.py`` keeps as the
oracle this sampler is pinned to bit for bit.

Every op updates its targets in one vectorised step, so
:meth:`~repro.sim.circuit.Circuit.append` rejects an ``H``, ``CX`` or
noise instruction that names a qubit twice, and the ops of one layer
act on disjoint qubits.
"""

from __future__ import annotations

import numpy as np

from repro.sim.circuit import (
    CHANNEL_KINDS,
    LETTER_COUNT,
    LETTER_ROWS,
    LETTER_START,
    Circuit,
    CompiledCircuit,
    CompiledOp,
)
from repro.utils.gf2 import PackedBits, gf2_pack, gf2_unpack, gf2_xor_csr

__all__ = ["FrameSampler", "sample_detectors"]

#: Channels at or above this probability generate dense masks; below it
#: flips are Binomial-sampled and placed bit by bit (both exact).
_SPARSE_NOISE_MAX_P = 0.05
#: A channel with at least this many flips pairs its Pauli letters with
#: its positions in sorted order, a smaller one with them as drawn.
_SORTED_PAIRING_MIN = 25
#: Uniforms per resolution block (a block extends past this to reach
#: the layer that needs it).
_FLIP_BLOCK = 1 << 16

#: The channel whose unit is a qubit pair (two noise slots).
_PAIR = CHANNEL_KINDS["DEPOLARIZE2"]

_ONE = np.uint64(1)
#: Lookup table bit index → uint64 single-bit mask (avoids shift casts).
_BIT = _ONE << np.arange(64, dtype=np.uint64)


def _distinct_positions(rng: np.random.Generator, n_total: int, k: int) -> np.ndarray:
    """``k`` distinct uniform draws from ``range(n_total)`` (exact), sorted.

    Repeated batch draws keeping first-seen distinct values reproduce
    sequential rejection sampling, whose output is a uniform k-subset.
    """
    if k >= n_total:
        return np.arange(n_total)
    chosen = np.unique(rng.integers(0, n_total, size=k))
    while chosen.size < k:
        extra = rng.integers(0, n_total, size=k - chosen.size)
        chosen = np.unique(np.concatenate([chosen, extra]))
    return chosen


class _NoiseStream:
    """One run's noise flips, resolved in instruction order, block by block.

    A resolved flip is a ``uint64`` word XORed into the flat
    ``(2, qubits, words)`` frame (X plane, then Z), tagged with its
    layer.  Blocks are kept sorted by layer until the layer walk has
    applied them.
    """

    def __init__(
        self, program: CompiledCircuit, shots: int, rng: np.random.Generator
    ) -> None:
        self.program, self.shots, self.rng = program, shots, rng
        self.words = (shots + 63) // 64
        self.counts = rng.binomial(program.noise_units * shots, program.noise_probs)
        letters = LETTER_COUNT[program.noise_kinds] > 1
        self.offsets = np.zeros(len(self.counts) + 1, dtype=np.intp)
        np.cumsum(self.counts * (1 + letters), out=self.offsets[1:])
        self.uniform = rng.random(int(self.offsets[-1]))
        self.resolved = 0  # channels resolved so far
        self.resolved_slots = 0  # their noise slots
        #: ``[layers, index, value, applied]`` per resolved block.
        self.blocks: list[list] = []

    def apply(self, frame: np.ndarray, op: CompiledOp) -> None:
        """XOR the flips of ``op``'s channels into the flat ``frame``."""
        last = int(op.slots[-1])
        if last >= self.resolved_slots:
            starts = self.program.noise_starts
            self._resolve(int(np.searchsorted(starts, last, side="right")) - 1)
        index, value = [], []
        for block in self.blocks:
            layers, idx, val, lo = block
            hi = int(np.searchsorted(layers, op.layer, side="right"))
            if hi > lo:
                index.append(idx[lo:hi])
                value.append(val[lo:hi])
                block[3] = hi
        self.blocks = [b for b in self.blocks if b[3] < len(b[0])]
        if index:
            np.bitwise_xor.at(frame, np.concatenate(index), np.concatenate(value))

    def _resolve(self, through: int) -> None:
        """Resolve the next block of channels, up to at least ``through``."""
        program, shots = self.program, self.shots
        a, offsets = self.resolved, self.offsets
        e = int(np.searchsorted(offsets, offsets[a] + _FLIP_BLOCK, side="right")) - 1
        e = min(max(e, through + 1), len(self.counts))
        dense = program.noise_probs[a:e] >= _SPARSE_NOISE_MAX_P
        chans = a + np.flatnonzero(~dense & (self.counts[a:e] > 0))
        k = self.counts[chans]
        total = program.noise_units[chans] * shots
        kinds = program.noise_kinds[chans]
        seg = np.repeat(np.arange(len(chans)), k)  # channel of each flip
        first = np.cumsum(k) - k
        at = offsets[chans][seg] + np.arange(len(seg)) - first[seg]
        pos = (self.uniform[at] * total[seg]).astype(np.intp)
        # min() guards the 2^-53 float-rounding edge u*total == total.
        np.minimum(pos, (total - 1)[seg], out=pos)
        letter = np.zeros(len(seg), dtype=np.intp)
        lettered = LETTER_COUNT[kinds][seg] > 1
        letter[lettered] = (
            self.uniform[(at + k[seg])[lettered]] * LETTER_COUNT[kinds][seg][lettered]
        ).astype(np.intp)
        # Sort positions within each channel: ``seg`` is non-decreasing,
        # so one sort of seg-major keys keeps the channels in place.
        major = seg * int(total.max(initial=0))
        ordered = np.sort(major + pos) - major
        pos = np.where((k >= _SORTED_PAIRING_MIN)[seg], ordered, pos)
        clash = seg[1:][(ordered[1:] == ordered[:-1]) & (seg[1:] == seg[:-1])]

        parts = []
        # Dense masks and redraws take fresh draws, in instruction order.
        draws = np.union1d(a + np.flatnonzero(dense), chans[clash])
        for c, s, is_dense in zip(
            draws.tolist(),
            np.searchsorted(chans, draws).tolist(),  # a redraw's index in chans
            (program.noise_probs[draws] >= _SPARSE_NOISE_MAX_P).tolist(),
            strict=True,
        ):
            if is_dense:
                parts.append(self._dense(c))
            else:
                lo, n = int(first[s]), int(k[s])
                pos[lo : lo + n] = _distinct_positions(self.rng, int(total[s]), n)
        unit, shot = np.divmod(pos, shots)
        slot = program.noise_starts[chans][seg] + unit * (1 + (kinds[seg] == _PAIR))
        flip, col = np.nonzero(LETTER_ROWS[LETTER_START[kinds][seg] + letter])
        qubit = program.slot_qubits[slot[flip] + (col >= 2)]
        shot = shot[flip]
        parts.append(
            (
                program.noise_layers[chans][seg][flip],
                ((col & 1) * program.num_qubits + qubit) * self.words + (shot >> 6),
                _BIT[shot & 63],
            )
        )
        layers, index, value = (np.concatenate(p) for p in zip(*parts, strict=True))
        order = np.argsort(layers, kind="stable")
        self.blocks.append([layers[order], index[order], value[order], 0])
        self.resolved = e
        self.resolved_slots = (
            int(program.noise_starts[e]) if e < len(self.counts) else len(program.slot_qubits)
        )

    def _dense(self, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Channel ``c``'s flips from a dense ``(units, shots)`` mask."""
        program, shots, words = self.program, self.shots, self.words
        kind, n = int(program.noise_kinds[c]), int(program.noise_units[c])
        p, count = float(program.noise_probs[c]), int(LETTER_COUNT[kind])
        r = self.rng.random((n, shots))
        if count == 1:
            code = (r >= p).astype(np.intp)
        else:  # letter rank, or ``count`` for no flip
            code = np.where(r < p, np.minimum((r / p * count).astype(np.intp), count), count)
        start = LETTER_START[kind]
        rows = np.vstack([LETTER_ROWS[start : start + count], np.zeros((1, 4), dtype=bool)])
        width = 2 if kind == _PAIR else 1
        slots = program.noise_starts[c] + width * np.arange(n)
        index, value = [], []
        for col in np.flatnonzero(rows.any(axis=0)).tolist():
            qubit = program.slot_qubits[slots + (col >= 2)]
            base = ((col & 1) * program.num_qubits + qubit) * words
            index.append((base[:, None] + np.arange(words)).ravel())
            value.append(gf2_pack(rows[code, col]).ravel())
        index_all = np.concatenate(index)
        return (
            np.full(len(index_all), program.noise_layers[c]),
            index_all,
            np.concatenate(value),
        )


def _propagate(
    program: CompiledCircuit, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One packed pass over the layered program; packed (detectors, observables)."""
    words = (shots + 63) // 64
    frame = np.zeros((2, program.num_qubits, words), dtype=np.uint64)
    x, z = frame
    records = np.zeros((program.num_measurements + 1, words), dtype=np.uint64)
    noise = _NoiseStream(program, shots, rng)
    for op in program.ops:
        kind, t = op.kind, op.targets
        if kind == "CX":
            x[op.targets2] ^= x[t]
            z[t] ^= z[op.targets2]
        elif kind == "H":
            x[t], z[t] = z[t], x[t]
        elif kind == "M":
            records[op.records] = x[t]
        elif kind == "MX":
            records[op.records] = z[t]
        elif kind == "R":
            frame[:, t] = 0
        else:
            noise.apply(frame.reshape(-1), op)
    det = gf2_xor_csr(records, program.det_indices, program.det_offsets)
    obs = gf2_xor_csr(records, program.obs_indices, program.obs_offsets)
    return det, obs


def _unpack_results(
    det_words: np.ndarray, obs_words: np.ndarray, shots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Packed (rows=bits, cols=shots) words → (shots, rows) uint8 arrays."""

    def unpack(words: np.ndarray) -> np.ndarray:
        if words.shape[0] == 0 or shots == 0:
            return np.zeros((shots, words.shape[0]), dtype=np.uint8)
        return np.ascontiguousarray(gf2_unpack(words, shots).T)

    return unpack(det_words), unpack(obs_words)


class FrameSampler:
    """Samples detector and observable flips of a noisy Clifford circuit."""

    def __init__(self, circuit: Circuit, *, seed: int | None = None) -> None:
        self.circuit = circuit
        self._rng = np.random.default_rng(seed)

    def sample(self, shots: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``shots`` runs.

        Returns ``(detectors, observables)`` with shapes
        ``(shots, num_detectors)`` and ``(shots, num_observables)``; each
        entry is the XOR of the referenced measurement *flips*, i.e. a 1
        marks a detection event / logical flip relative to noiseless.
        """
        det, obs = _propagate(self.circuit.compiled(), shots, self._rng)
        return _unpack_results(det, obs, shots)

    def sample_packed(self, shots: int) -> tuple[PackedBits, PackedBits]:
        """Sample ``shots`` runs without unpacking the result.

        Returns ``(detectors, observables)`` as
        :class:`~repro.utils.gf2.PackedBits` bitplanes — one row per
        detector/observable, one bit per shot — the format
        ``Decoder.decode_batch`` consumes directly, so a
        ``(shots, detectors)`` uint8 array is never materialised.
        The random stream is shared with :meth:`sample`: at equal
        sampler state the two return the same bits, packed vs not.
        """
        det, obs = _propagate(self.circuit.compiled(), shots, self._rng)
        return PackedBits(det, shots), PackedBits(obs, shots)


def sample_detectors(
    circuit: Circuit,
    shots: int,
    *,
    seed: int | None = None,
    output: str = "rows",
) -> tuple[np.ndarray, np.ndarray] | tuple[PackedBits, PackedBits]:
    """One-call convenience wrapper around :class:`FrameSampler`.

    ``output`` selects the sample container: ``"rows"`` (the default)
    returns ``(shots, n)`` uint8 arrays, ``"packed"`` returns
    :class:`~repro.utils.gf2.PackedBits` detector/observable bitplanes
    (see :meth:`FrameSampler.sample_packed`).  The same ``seed`` yields
    the same bits either way.
    """
    if output not in ("packed", "rows"):
        raise ValueError(
            f"output must be 'packed' or 'rows', got {output!r}"
        )
    sampler = FrameSampler(circuit, seed=seed)
    if output == "packed":
        return sampler.sample_packed(shots)
    return sampler.sample(shots)
