"""Vectorised Pauli-frame sampling on bit-packed uint64 bitplanes.

A Pauli frame tracks, per shot, the Pauli difference between the noisy
run and a noiseless reference run.  For Clifford circuits with Pauli
noise, propagating the frame through each gate and XORing the frame's
anticommuting component into every measurement reproduces the exact
detector/observable statistics of full stabilizer simulation — this is
the same trick Stim's sampler uses.

Two engines implement that propagation:

* **Packed** (the default): frames live in transposed
  ``(num_qubits, ceil(shots/64))`` ``uint64`` bitplanes (one bit per
  shot, packed with the :mod:`repro.utils.gf2` little-endian layout), so
  every gate on every shot is a handful of word-wide XORs.  The circuit
  is lowered once to a :class:`~repro.sim.circuit.CompiledCircuit` —
  precomputed gather/scatter index arrays per op plus sparse CSR
  detector/observable wiring — which removes the per-instruction Python
  target parsing from the hot loop.  Noise channels with small ``p``
  draw a Binomial number of flips and scatter them as individual bits
  (exact: the flipped positions form a uniform without-replacement
  subset, equivalent to i.i.d. Bernoulli trials), instead of generating
  one float per (shot, qubit) trial; channels with large ``p`` fall
  back to dense mask generation + ``packbits``.

* **Unpacked** (``packed=False``): the original per-instruction loop
  over ``(shots, qubits)`` ``uint8`` arrays, kept as the reference
  implementation.  Both engines accept a shared pre-drawn noise mask
  (:meth:`FrameSampler.draw_masks` / :meth:`FrameSampler.sample_masked`)
  and then agree bit-for-bit, which is how the equivalence is pinned by
  ``tests/test_sim_packed.py``.

Both engines apply all targets of an instruction in one vectorised
update, so :meth:`~repro.sim.circuit.Circuit.append` rejects an ``H``,
``CX`` or noise instruction that names a qubit twice.
"""

from __future__ import annotations

import numpy as np

from repro.sim.circuit import Circuit, CompiledCircuit
from repro.utils.gf2 import PackedBits, gf2_pack, gf2_unpack, gf2_xor_csr

__all__ = ["FrameSampler", "sample_detectors"]

#: Channels at or above this probability generate dense masks; below it
#: flips are Binomial-sampled and scattered bit by bit (both exact).
_SPARSE_NOISE_MAX_P = 0.05

_ONE = np.uint64(1)
#: Lookup table bit index → uint64 single-bit mask (avoids shift casts).
_BIT = _ONE << np.arange(64, dtype=np.uint64)


def _distinct_positions(rng: np.random.Generator, n_total: int, k: int) -> np.ndarray:
    """``k`` distinct uniform draws from ``range(n_total)`` (exact).

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


#: Flip sets at or below this size use the scalar (pure-Python) scatter.
_SCALAR_FLIP_LIMIT = 24


def _scatter_bits(plane: np.ndarray, rows: np.ndarray, shots_idx: np.ndarray) -> None:
    """XOR single bits (``rows[i]``, bit ``shots_idx[i]``) into a bitplane."""
    if rows.size:
        np.bitwise_xor.at(plane, (rows, shots_idx >> 6), _BIT[shots_idx & 63])


def _xor_mask(plane: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> None:
    """XOR a dense ``(len(targets), shots)`` 0/1 mask into a bitplane."""
    plane[targets] ^= gf2_pack(mask)


class _PackedEngine:
    """One packed propagation pass over a compiled program."""

    def __init__(self, program: CompiledCircuit, num_bits: int) -> None:
        self.program = program
        self.num_bits = num_bits
        words = (num_bits + 63) // 64
        self.x = np.zeros((program.num_qubits, words), dtype=np.uint64)
        self.z = np.zeros((program.num_qubits, words), dtype=np.uint64)
        # One trailing all-zero row backs empty detector/observable groups.
        self.records = np.zeros((program.num_measurements + 1, words), dtype=np.uint64)

    def run(
        self,
        *,
        rng: np.random.Generator | None = None,
        masks: dict[int, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Execute the program; returns packed (detectors, observables).

        Noise is drawn from ``rng``, read from pre-drawn ``masks``
        (instruction position → choice array, see
        :meth:`FrameSampler.draw_masks`), or skipped entirely when both
        are ``None`` (deterministic propagation).
        """
        x, z = self.x, self.z
        records = self.records
        xor = np.bitwise_xor
        if rng is not None and len(self.program.noise_probs):
            # All Binomial flip counts and the uniforms that turn them
            # into (position, Pauli letter) draws, in three vectorised
            # calls for the whole run; per-op noise handling then only
            # slices this stream.
            counts = rng.binomial(
                self.program.noise_slots * self.num_bits, self.program.noise_probs
            )
            offsets = np.zeros(len(counts) + 1, dtype=np.intp)
            np.cumsum(counts * self.program.noise_umult, out=offsets[1:])
            self._flip_counts = counts
            self._uniform = rng.random(int(offsets[-1]))
            self._uniform_offsets = offsets
        for op in self.program.ops:
            kind = op.kind
            if kind == "CX1":
                xor(x[op.t2], x[op.t1], out=x[op.t2])
                xor(z[op.t1], z[op.t2], out=z[op.t1])
            elif kind == "M1":
                records[op.m_start] = x[op.t1]
            elif kind == "MX1":
                records[op.m_start] = z[op.t1]
            elif kind == "R1":
                x[op.t1] = 0
                z[op.t1] = 0
            elif kind == "H1":
                t = op.t1
                tmp = x[t].copy()
                x[t] = z[t]
                z[t] = tmp
            elif kind == "CX":
                t = op.targets
                x[op.targets2] ^= x[t]
                z[t] ^= z[op.targets2]
            elif kind == "H":
                t = op.targets
                tmp = x[t].copy()
                x[t] = z[t]
                z[t] = tmp
            elif kind == "M":
                t = op.targets
                records[op.m_start : op.m_start + len(t)] = x[t]
            elif kind == "MX":
                t = op.targets
                records[op.m_start : op.m_start + len(t)] = z[t]
            elif kind == "R":
                t = op.targets
                x[t] = 0
                z[t] = 0
            elif masks is not None:
                self._apply_mask(op, masks[op.position])
            elif rng is not None:
                self._apply_noise(op, rng)
        det = gf2_xor_csr(records, self.program.det_indices, self.program.det_offsets)
        obs = gf2_xor_csr(records, self.program.obs_indices, self.program.obs_offsets)
        return det, obs

    # --- noise ----------------------------------------------------------
    def _apply_mask(self, op, mask: np.ndarray) -> None:
        """Apply a pre-drawn choice mask (see ``draw_masks`` for codes)."""
        kind = op.kind
        if kind == "X_ERROR":
            _xor_mask(self.x, op.targets, mask)
        elif kind == "Z_ERROR":
            _xor_mask(self.z, op.targets, mask)
        elif kind == "DEPOLARIZE1":
            _xor_mask(self.x, op.targets, (mask == 1) | (mask == 2))
            _xor_mask(self.z, op.targets, (mask == 2) | (mask == 3))
        elif kind == "DEPOLARIZE2":
            pa, pb = mask // 4, mask % 4
            _xor_mask(self.x, op.targets, (pa == 1) | (pa == 2))
            _xor_mask(self.z, op.targets, (pa == 2) | (pa == 3))
            _xor_mask(self.x, op.targets2, (pb == 1) | (pb == 2))
            _xor_mask(self.z, op.targets2, (pb == 2) | (pb == 3))

    def _apply_noise(self, op, rng: np.random.Generator) -> None:
        kind = op.kind
        shots = self.num_bits
        n = len(op.targets)
        if op.arg >= _SPARSE_NOISE_MAX_P:
            self._apply_mask(op, _draw_mask(rng, op, shots))
            return
        k = int(self._flip_counts[op.noise_slot])
        if not k:
            return
        total = n * shots
        off = int(self._uniform_offsets[op.noise_slot])
        letters = kind.startswith("DEPOLARIZE")
        if k <= _SCALAR_FLIP_LIMIT:
            # Tiny flip sets: scalar bit twiddling beats numpy call
            # overhead by an order of magnitude.
            chunk = self._uniform[off : off + (2 * k if letters else k)].tolist()
            # min() guards the 2^-53 float-rounding edge u*total == total.
            positions = [min(int(u * total), total - 1) for u in chunk[:k]]
            if len(set(positions)) < k:  # rare: reject batch, redraw exact
                positions = _distinct_positions(rng, total, k).tolist()
            self._scatter_scalar(op, positions, chunk[k:])
            return
        pos = (self._uniform[off : off + k] * total).astype(np.intp)
        np.minimum(pos, total - 1, out=pos)
        pos.sort()
        if (pos[1:] == pos[:-1]).any():
            pos = _distinct_positions(rng, total, k)
        which, shot = pos // shots, pos % shots
        if kind == "X_ERROR":
            _scatter_bits(self.x, op.targets[which], shot)
        elif kind == "Z_ERROR":
            _scatter_bits(self.z, op.targets[which], shot)
        elif kind == "DEPOLARIZE1":
            letter = (self._uniform[off + k : off + 2 * k] * 3).astype(np.int64)
            is_x, is_z = letter < 2, letter > 0  # 0=X, 1=Y, 2=Z
            _scatter_bits(self.x, op.targets[which[is_x]], shot[is_x])
            _scatter_bits(self.z, op.targets[which[is_z]], shot[is_z])
        elif kind == "DEPOLARIZE2":
            c = (self._uniform[off + k : off + 2 * k] * 15).astype(np.int64) + 1
            pa, pb = c // 4, c % 4
            for plane, rows, sel in (
                (self.x, op.targets, (pa == 1) | (pa == 2)),
                (self.z, op.targets, (pa == 2) | (pa == 3)),
                (self.x, op.targets2, (pb == 1) | (pb == 2)),
                (self.z, op.targets2, (pb == 2) | (pb == 3)),
            ):
                _scatter_bits(plane, rows[which[sel]], shot[sel])

    def _scatter_scalar(self, op, positions: list[int], letters: list[float]) -> None:
        """Apply a handful of flips one bit at a time (see _apply_noise)."""
        kind = op.kind
        shots = self.num_bits
        x, z = self.x, self.z
        single = op.t1 >= 0
        targets = None if single else op.targets
        for i, pos in enumerate(positions):
            w, s = divmod(pos, shots)
            word, mask = s >> 6, _BIT[s & 63]
            if kind == "X_ERROR":
                x[op.t1 if single else targets[w], word] ^= mask
            elif kind == "Z_ERROR":
                z[op.t1 if single else targets[w], word] ^= mask
            elif kind == "DEPOLARIZE1":
                row = op.t1 if single else targets[w]
                c = int(letters[i] * 3)  # 0=X, 1=Y, 2=Z
                if c < 2:
                    x[row, word] ^= mask
                if c > 0:
                    z[row, word] ^= mask
            else:  # DEPOLARIZE2
                a = op.t1 if single else op.targets[w]
                b = op.t2 if single else op.targets2[w]
                c = int(letters[i] * 15) + 1  # 1..15 two-qubit Pauli
                pa, pb = c >> 2, c & 3
                if pa == 1 or pa == 2:
                    x[a, word] ^= mask
                if pa == 2 or pa == 3:
                    z[a, word] ^= mask
                if pb == 1 or pb == 2:
                    x[b, word] ^= mask
                if pb == 2 or pb == 3:
                    z[b, word] ^= mask


def _draw_mask(rng: np.random.Generator, op, shots: int) -> np.ndarray:
    """Draw one channel's choice mask, matching the legacy distributions.

    ``X_ERROR``/``Z_ERROR`` masks are 0/1 flips; ``DEPOLARIZE1`` values
    are 0=I, 1=X, 2=Y, 3=Z; ``DEPOLARIZE2`` values are ``4*pa + pb`` in
    the same letter code, one entry per qubit pair.
    """
    n = len(op.targets)
    r = rng.random((n, shots))
    p = op.arg
    if op.kind in ("X_ERROR", "Z_ERROR"):
        return (r < p).astype(np.uint8)
    if op.kind == "DEPOLARIZE1":
        return np.where(r < p, (r / p * 3).astype(np.int64) + 1, 0)
    return np.where(r < p, (r / p * 15).astype(np.int64) + 1, 0)


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
    """Samples detector and observable flips of a noisy Clifford circuit.

    ``packed=True`` (default) runs the compiled uint64-bitplane engine;
    ``packed=False`` runs the original unpacked ``(shots, qubits)``
    reference loop.  The two produce statistically identical samples,
    and bit-identical ones under a shared mask from :meth:`draw_masks`.
    """

    def __init__(
        self, circuit: Circuit, *, seed: int | None = None, packed: bool = True
    ) -> None:
        self.circuit = circuit
        self.packed = packed
        self._rng = np.random.default_rng(seed)

    def sample(self, shots: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``shots`` runs.

        Returns ``(detectors, observables)`` with shapes
        ``(shots, num_detectors)`` and ``(shots, num_observables)``; each
        entry is the XOR of the referenced measurement *flips*, i.e. a 1
        marks a detection event / logical flip relative to noiseless.
        """
        if self.packed:
            engine = _PackedEngine(self.circuit.compiled(), shots)
            det, obs = engine.run(rng=self._rng)
            return _unpack_results(det, obs, shots)
        return self._sample_unpacked(shots, masks=None)

    def sample_packed(self, shots: int) -> tuple[PackedBits, PackedBits]:
        """Sample ``shots`` runs without unpacking the result.

        Returns ``(detectors, observables)`` as
        :class:`~repro.utils.gf2.PackedBits` bitplanes — one row per
        detector/observable, one bit per shot — the format
        ``Decoder.decode_batch`` consumes directly, so a
        ``(shots, detectors)`` uint8 array is never materialised.
        The random stream is shared with :meth:`sample`: at equal
        sampler state the two return the same bits, packed vs not.

        A ``packed=False`` sampler runs the unpacked reference engine
        and packs its output, so both engines expose the same streaming
        interface (the property tests rely on this).
        """
        c = self.circuit
        if self.packed:
            engine = _PackedEngine(c.compiled(), shots)
            det, obs = engine.run(rng=self._rng)
        else:
            det_rows, obs_rows = self._sample_unpacked(shots, masks=None)
            det = gf2_pack(det_rows.T) if shots else np.zeros(
                (c.num_detectors, 0), dtype=np.uint64
            )
            obs = gf2_pack(obs_rows.T) if shots else np.zeros(
                (c.num_observables, 0), dtype=np.uint64
            )
        return (
            PackedBits(det, shots),
            PackedBits(obs, shots),
        )

    def draw_masks(self, shots: int) -> dict[int, np.ndarray]:
        """Pre-draw every noise channel's outcome for ``shots`` runs.

        Returns instruction position → ``(n_targets_or_pairs, shots)``
        choice array (codes as in the packed engine: 0/1 flips for
        X/Z_ERROR, 0..3 letters for DEPOLARIZE1, ``4*pa+pb`` for
        DEPOLARIZE2).  Feeding the same dict to a packed and an
        unpacked sampler yields bit-identical results.
        """
        program = self.circuit.compiled()
        return {
            op.position: _draw_mask(self._rng, op, shots)
            for op in program.ops
            if op.kind in ("X_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2")
        }

    def sample_masked(
        self, masks: dict[int, np.ndarray], shots: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Propagate pre-drawn noise (from :meth:`draw_masks`) exactly."""
        if self.packed:
            engine = _PackedEngine(self.circuit.compiled(), shots)
            det, obs = engine.run(masks=masks)
            return _unpack_results(det, obs, shots)
        return self._sample_unpacked(shots, masks=masks)

    # --- unpacked reference engine ---------------------------------------
    def _sample_unpacked(
        self, shots: int, masks: dict[int, np.ndarray] | None
    ) -> tuple[np.ndarray, np.ndarray]:
        c = self.circuit
        x = np.zeros((shots, c.num_qubits), dtype=np.uint8)  # X component
        z = np.zeros((shots, c.num_qubits), dtype=np.uint8)  # Z component
        records = np.zeros((shots, c.num_measurements), dtype=np.uint8)
        detectors = np.zeros((shots, c.num_detectors), dtype=np.uint8)
        observables = np.zeros((shots, c.num_observables), dtype=np.uint8)
        m_idx = 0
        d_idx = 0
        o_idx = 0
        rng = self._rng

        for pos, inst in enumerate(c.instructions):
            name = inst.name
            t = list(inst.targets)
            if name == "H":
                x[:, t], z[:, t] = z[:, t].copy(), x[:, t].copy()
            elif name == "CX":
                ctrl, targ = t[0::2], t[1::2]
                x[:, targ] ^= x[:, ctrl]
                z[:, ctrl] ^= z[:, targ]
            elif name == "R" or name == "RX":
                x[:, t] = 0
                z[:, t] = 0
            elif name == "M":
                n = len(t)
                records[:, m_idx : m_idx + n] = x[:, t]
                m_idx += n
            elif name == "MX":
                n = len(t)
                records[:, m_idx : m_idx + n] = z[:, t]
                m_idx += n
            elif name == "X_ERROR":
                if masks is not None:
                    flips = masks[pos].T.astype(bool)
                else:
                    flips = rng.random((shots, len(t))) < inst.arg
                x[:, t] ^= flips.astype(np.uint8)
            elif name == "Z_ERROR":
                if masks is not None:
                    flips = masks[pos].T.astype(bool)
                else:
                    flips = rng.random((shots, len(t))) < inst.arg
                z[:, t] ^= flips.astype(np.uint8)
            elif name == "DEPOLARIZE1":
                if masks is not None:
                    v = masks[pos].T
                    is_x = (v == 1) | (v == 2)
                    is_z = (v == 2) | (v == 3)
                else:
                    r = rng.random((shots, len(t)))
                    p = inst.arg
                    is_x = (r < p / 3) | ((r >= p / 3) & (r < 2 * p / 3))
                    is_z = (r >= p / 3) & (r < p)
                x[:, t] ^= is_x.astype(np.uint8)
                z[:, t] ^= is_z.astype(np.uint8)
            elif name == "DEPOLARIZE2":
                a, b = t[0::2], t[1::2]
                if masks is not None:
                    choice = masks[pos].T
                else:
                    r = rng.random((shots, len(a)))
                    p = inst.arg
                    # Draw one of 15 non-identity two-qubit Paulis uniformly.
                    choice = np.where(r < p, (r / p * 15).astype(np.int64) + 1, 0)
                pa, pb = choice // 4, choice % 4  # 0=I,1=X,2=Y,3=Z per qubit
                x[:, a] ^= ((pa == 1) | (pa == 2)).astype(np.uint8)
                z[:, a] ^= ((pa == 2) | (pa == 3)).astype(np.uint8)
                x[:, b] ^= ((pb == 1) | (pb == 2)).astype(np.uint8)
                z[:, b] ^= ((pb == 2) | (pb == 3)).astype(np.uint8)
            elif name == "DETECTOR":
                if t:
                    detectors[:, d_idx] = records[:, t].sum(axis=1) % 2
                d_idx += 1
            elif name == "OBSERVABLE":
                if t:
                    observables[:, o_idx] = records[:, t].sum(axis=1) % 2
                o_idx += 1
            else:  # pragma: no cover - guarded by Circuit.append
                raise ValueError(f"unknown instruction {name}")
        return detectors, observables


def sample_detectors(
    circuit: Circuit,
    shots: int,
    *,
    seed: int | None = None,
    packed: bool = True,
    output: str = "rows",
) -> tuple[np.ndarray, np.ndarray] | tuple[PackedBits, PackedBits]:
    """One-call convenience wrapper around :class:`FrameSampler`.

    ``packed`` selects the propagation engine; ``output`` selects the
    sample container: ``"rows"`` (the default) returns ``(shots, n)``
    uint8 arrays, ``"packed"`` returns
    :class:`~repro.utils.gf2.PackedBits` detector/observable bitplanes
    (see :meth:`FrameSampler.sample_packed`).  The same ``seed`` yields
    the same bits either way.
    """
    if output not in ("packed", "rows"):
        raise ValueError(
            f"output must be 'packed' or 'rows', got {output!r}"
        )
    sampler = FrameSampler(circuit, seed=seed, packed=packed)
    if output == "packed":
        return sampler.sample_packed(shots)
    return sampler.sample(shots)
