"""Per-instruction Pauli-frame engines :mod:`repro.sim.frame` is pinned to.

The layered sampler compiles one op per (layer, kind) and resolves a
run's noise flips block by block; these are the formulations it
replaced, kept as test oracles:

* :func:`compile_per_instruction` — one :class:`CompiledOp` per
  instruction, with adjacent ``R`` runs, contiguous same-kind
  measurements and disjoint ``H`` runs fused and single-target ops
  specialised to scalar-indexed kinds.
* :class:`OracleSampler` — the packed engine walking that program op by
  op and drawing each noise op's flips when it reaches it
  (:meth:`~OracleSampler.sample_packed`), plus the shared pre-drawn
  noise masks (:meth:`~OracleSampler.draw_masks`) that the packed and
  the unpacked ``(shots, qubits)`` uint8 engine
  (:meth:`~OracleSampler.sample_masked`) both consume.

At equal seeds :meth:`OracleSampler.sample_packed` returns the bits
:func:`repro.sim.sample_detectors` returns; under one shared mask the
packed and unpacked engines agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import Circuit
from repro.sim.circuit import _csr_wiring
from repro.utils.gf2 import gf2_pack, gf2_unpack, gf2_xor_csr

_NOISE = ("X_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2")

#: Channels at or above this probability generate dense masks; below it
#: flips are Binomial-sampled and scattered bit by bit (both exact).
SPARSE_NOISE_MAX_P = 0.05
#: Flip sets at or below this size use the scalar (pure-Python) scatter.
SCALAR_FLIP_LIMIT = 24

_ONE = np.uint64(1)
_BIT = _ONE << np.arange(64, dtype=np.uint64)


@dataclass(frozen=True)
class CompiledOp:
    """One step of a per-instruction program: an op kind plus gather indices.

    ``targets`` / ``targets2`` are the (controls, targets) of ``CX`` and
    the (first, second) qubits of ``DEPOLARIZE2``.  ``position`` is the
    instruction index of the first fused instruction (noise ops never
    fuse, so it keys a noise op's pre-drawn mask); ``m_start`` is the
    first record a measurement op writes; ``t1``/``t2`` are the scalar
    qubits of the single-target kinds (``H1``, ``R1``, ``M1``, ``MX1``,
    ``CX1`` and one-unit noise ops).
    """

    kind: str
    targets: np.ndarray
    targets2: np.ndarray | None = None
    arg: float = 0.0
    position: int = 0
    m_start: int = 0
    noise_slot: int = -1
    t1: int = -1
    t2: int = -1


@dataclass(frozen=True)
class PerInstructionProgram:
    """A circuit lowered to one op per instruction (fused, specialised)."""

    num_qubits: int
    num_measurements: int
    ops: tuple[CompiledOp, ...]
    det_indices: np.ndarray
    det_offsets: np.ndarray
    obs_indices: np.ndarray
    obs_offsets: np.ndarray
    #: Per noise op: Bernoulli trials per shot, probability, and the
    #: uniforms each flip consumes (2 for depolarizing channels).
    noise_slots: np.ndarray
    noise_probs: np.ndarray
    noise_umult: np.ndarray


def _fuse(ops: list[CompiledOp]) -> list[CompiledOp]:
    """Merge adjacent ops where the combined gather is equivalent."""
    fused: list[CompiledOp] = []
    for op in ops:
        prev = fused[-1] if fused else None
        if prev is not None and prev.kind == op.kind:
            if op.kind == "R":
                fused[-1] = CompiledOp(
                    "R",
                    np.unique(np.concatenate([prev.targets, op.targets])),
                    position=prev.position,
                )
                continue
            if op.kind in ("M", "MX") and (
                op.m_start == prev.m_start + len(prev.targets)
            ):
                fused[-1] = CompiledOp(
                    op.kind,
                    np.concatenate([prev.targets, op.targets]),
                    position=prev.position,
                    m_start=prev.m_start,
                )
                continue
            if op.kind == "H":
                merged = np.concatenate([prev.targets, op.targets])
                if len(np.unique(merged)) == len(merged):
                    fused[-1] = CompiledOp("H", merged, position=prev.position)
                    continue
        fused.append(op)
    return fused


def _specialize(op: CompiledOp) -> CompiledOp:
    """Single-target gate/measure ops get scalar-indexed fast kinds."""
    if op.kind in ("H", "R", "M", "MX") and len(op.targets) == 1:
        return CompiledOp(
            op.kind + "1",
            op.targets,
            position=op.position,
            m_start=op.m_start,
            t1=int(op.targets[0]),
        )
    if op.kind == "CX" and len(op.targets) == 1:
        return CompiledOp(
            "CX1",
            op.targets,
            op.targets2,
            position=op.position,
            t1=int(op.targets[0]),
            t2=int(op.targets2[0]),
        )
    return op


def compile_per_instruction(circuit: Circuit) -> PerInstructionProgram:
    """Lower ``circuit`` to one (fused, specialised) op per instruction."""
    ops: list[CompiledOp] = []
    detectors: list[tuple[int, ...]] = []
    observables: list[tuple[int, ...]] = []
    m_idx = 0
    for pos, inst in enumerate(circuit.instructions):
        name = inst.name
        if name == "DETECTOR":
            detectors.append(inst.targets)
            continue
        if name == "OBSERVABLE":
            observables.append(inst.targets)
            continue
        t = np.asarray(inst.targets, dtype=np.intp)
        if name in ("CX", "DEPOLARIZE2"):
            ops.append(CompiledOp(name, t[0::2], t[1::2], inst.arg, pos))
        elif name in ("M", "MX"):
            ops.append(CompiledOp(name, t, position=pos, m_start=m_idx))
            m_idx += len(t)
        elif name in ("R", "RX"):
            ops.append(CompiledOp("R", t, position=pos))
        else:
            ops.append(CompiledOp(name, t, arg=inst.arg, position=pos))
    ops = [_specialize(op) for op in _fuse(ops)]
    noise_slots: list[int] = []
    noise_probs: list[float] = []
    noise_umult: list[int] = []
    for i, op in enumerate(ops):
        if op.kind in _NOISE:
            single = len(op.targets) == 1
            ops[i] = CompiledOp(
                op.kind,
                op.targets,
                op.targets2,
                op.arg,
                op.position,
                noise_slot=len(noise_slots),
                t1=int(op.targets[0]) if single else -1,
                t2=int(op.targets2[0]) if single and op.targets2 is not None else -1,
            )
            noise_slots.append(len(op.targets))
            noise_probs.append(op.arg)
            noise_umult.append(2 if op.kind.startswith("DEPOLARIZE") else 1)
    det_indices, det_offsets = _csr_wiring(detectors, circuit.num_measurements)
    obs_indices, obs_offsets = _csr_wiring(observables, circuit.num_measurements)
    return PerInstructionProgram(
        num_qubits=circuit.num_qubits,
        num_measurements=circuit.num_measurements,
        ops=tuple(ops),
        det_indices=det_indices,
        det_offsets=det_offsets,
        obs_indices=obs_indices,
        obs_offsets=obs_offsets,
        noise_slots=np.asarray(noise_slots, dtype=np.intp),
        noise_probs=np.asarray(noise_probs, dtype=np.float64),
        noise_umult=np.asarray(noise_umult, dtype=np.intp),
    )


def distinct_positions(rng: np.random.Generator, n_total: int, k: int) -> np.ndarray:
    """``k`` distinct uniform draws from ``range(n_total)``, sorted."""
    if k >= n_total:
        return np.arange(n_total)
    chosen = np.unique(rng.integers(0, n_total, size=k))
    while chosen.size < k:
        extra = rng.integers(0, n_total, size=k - chosen.size)
        chosen = np.unique(np.concatenate([chosen, extra]))
    return chosen


def _scatter_bits(plane, rows, shots_idx) -> None:
    if rows.size:
        np.bitwise_xor.at(plane, (rows, shots_idx >> 6), _BIT[shots_idx & 63])


def _xor_mask(plane, targets, mask) -> None:
    plane[targets] ^= gf2_pack(mask)


def draw_mask(rng: np.random.Generator, op: CompiledOp, shots: int) -> np.ndarray:
    """One channel's choice mask: 0/1 flips for ``X_ERROR``/``Z_ERROR``,
    0=I 1=X 2=Y 3=Z for ``DEPOLARIZE1``, ``4*pa + pb`` per pair for
    ``DEPOLARIZE2``."""
    n = len(op.targets)
    r = rng.random((n, shots))
    p = op.arg
    if op.kind in ("X_ERROR", "Z_ERROR"):
        return (r < p).astype(np.uint8)
    if op.kind == "DEPOLARIZE1":
        return np.where(r < p, (r / p * 3).astype(np.int64) + 1, 0)
    return np.where(r < p, (r / p * 15).astype(np.int64) + 1, 0)


class PackedEngine:
    """One packed propagation pass over a per-instruction program."""

    def __init__(self, program: PerInstructionProgram, num_bits: int) -> None:
        self.program = program
        self.num_bits = num_bits
        words = (num_bits + 63) // 64
        self.x = np.zeros((program.num_qubits, words), dtype=np.uint64)
        self.z = np.zeros((program.num_qubits, words), dtype=np.uint64)
        self.records = np.zeros((program.num_measurements + 1, words), dtype=np.uint64)

    def run(self, *, rng=None, masks=None) -> tuple[np.ndarray, np.ndarray]:
        """Packed (detectors, observables); noise from ``rng``, from
        pre-drawn ``masks`` (instruction position → choice array), or
        none when both are ``None``."""
        x, z = self.x, self.z
        records = self.records
        xor = np.bitwise_xor
        if rng is not None and len(self.program.noise_probs):
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
                self.apply_mask(op, masks[op.position])
            elif rng is not None:
                self._apply_noise(op, rng)
        det = gf2_xor_csr(records, self.program.det_indices, self.program.det_offsets)
        obs = gf2_xor_csr(records, self.program.obs_indices, self.program.obs_offsets)
        return det, obs

    def apply_mask(self, op: CompiledOp, mask: np.ndarray) -> None:
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

    def _apply_noise(self, op: CompiledOp, rng: np.random.Generator) -> None:
        kind = op.kind
        shots = self.num_bits
        n = len(op.targets)
        if op.arg >= SPARSE_NOISE_MAX_P:
            self.apply_mask(op, draw_mask(rng, op, shots))
            return
        k = int(self._flip_counts[op.noise_slot])
        if not k:
            return
        total = n * shots
        off = int(self._uniform_offsets[op.noise_slot])
        letters = kind.startswith("DEPOLARIZE")
        if k <= SCALAR_FLIP_LIMIT:
            chunk = self._uniform[off : off + (2 * k if letters else k)].tolist()
            positions = [min(int(u * total), total - 1) for u in chunk[:k]]
            if len(set(positions)) < k:
                positions = distinct_positions(rng, total, k).tolist()
            self._scatter_scalar(op, positions, chunk[k:])
            return
        pos = (self._uniform[off : off + k] * total).astype(np.intp)
        np.minimum(pos, total - 1, out=pos)
        pos.sort()
        if (pos[1:] == pos[:-1]).any():
            pos = distinct_positions(rng, total, k)
        which, shot = pos // shots, pos % shots
        if kind == "X_ERROR":
            _scatter_bits(self.x, op.targets[which], shot)
        elif kind == "Z_ERROR":
            _scatter_bits(self.z, op.targets[which], shot)
        elif kind == "DEPOLARIZE1":
            letter = (self._uniform[off + k : off + 2 * k] * 3).astype(np.int64)
            is_x, is_z = letter < 2, letter > 0
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

    def _scatter_scalar(self, op: CompiledOp, positions, letters) -> None:
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
                c = int(letters[i] * 3)
                if c < 2:
                    x[row, word] ^= mask
                if c > 0:
                    z[row, word] ^= mask
            else:
                a = op.t1 if single else op.targets[w]
                b = op.t2 if single else op.targets2[w]
                c = int(letters[i] * 15) + 1
                pa, pb = c >> 2, c & 3
                if pa == 1 or pa == 2:
                    x[a, word] ^= mask
                if pa == 2 or pa == 3:
                    z[a, word] ^= mask
                if pb == 1 or pb == 2:
                    x[b, word] ^= mask
                if pb == 2 or pb == 3:
                    z[b, word] ^= mask


def _rows(words: np.ndarray, shots: int) -> np.ndarray:
    if words.shape[0] == 0 or shots == 0:
        return np.zeros((shots, words.shape[0]), dtype=np.uint8)
    return np.ascontiguousarray(gf2_unpack(words, shots).T)


class OracleSampler:
    """The per-instruction samplers, seeded like :class:`repro.sim.FrameSampler`."""

    def __init__(self, circuit: Circuit, *, seed: int | None = None) -> None:
        self.circuit = circuit
        self.program = compile_per_instruction(circuit)
        self._rng = np.random.default_rng(seed)

    def sample_packed(self, shots: int) -> tuple[np.ndarray, np.ndarray]:
        """Packed (detectors, observables) words, noise drawn per op."""
        return PackedEngine(self.program, shots).run(rng=self._rng)

    def draw_masks(self, shots: int) -> dict[int, np.ndarray]:
        """Instruction position → ``(units, shots)`` choice array of
        every noise channel (codes as in :func:`draw_mask`)."""
        return {
            op.position: draw_mask(self._rng, op, shots)
            for op in self.program.ops
            if op.kind in _NOISE
        }

    def sample_masked(
        self, masks: dict[int, np.ndarray], shots: int, *, packed: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(shots, n)`` detector and observable rows under pre-drawn
        noise, from the packed engine or the unpacked reference loop."""
        if not packed:
            return sample_unpacked(self.circuit, shots, masks=masks)
        det, obs = PackedEngine(self.program, shots).run(masks=masks)
        return _rows(det, shots), _rows(obs, shots)

    def sample_unpacked(self, shots: int) -> tuple[np.ndarray, np.ndarray]:
        """``(shots, n)`` rows from the unpacked loop, noise drawn inline."""
        return sample_unpacked(self.circuit, shots, rng=self._rng)


def sample_unpacked(
    circuit: Circuit,
    shots: int,
    *,
    rng: np.random.Generator | None = None,
    masks: dict[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The original instruction-by-instruction loop over ``(shots, qubits)``
    uint8 frames; noise from ``masks`` when given, else from ``rng``."""
    c = circuit
    x = np.zeros((shots, c.num_qubits), dtype=np.uint8)
    z = np.zeros((shots, c.num_qubits), dtype=np.uint8)
    records = np.zeros((shots, c.num_measurements), dtype=np.uint8)
    detectors = np.zeros((shots, c.num_detectors), dtype=np.uint8)
    observables = np.zeros((shots, c.num_observables), dtype=np.uint8)
    m_idx = d_idx = o_idx = 0
    for pos, inst in enumerate(c.instructions):
        name = inst.name
        t = list(inst.targets)
        if name == "H":
            x[:, t], z[:, t] = z[:, t].copy(), x[:, t].copy()
        elif name == "CX":
            ctrl, targ = t[0::2], t[1::2]
            x[:, targ] ^= x[:, ctrl]
            z[:, ctrl] ^= z[:, targ]
        elif name in ("R", "RX"):
            x[:, t] = 0
            z[:, t] = 0
        elif name in ("M", "MX"):
            n = len(t)
            records[:, m_idx : m_idx + n] = (x if name == "M" else z)[:, t]
            m_idx += n
        elif name in ("X_ERROR", "Z_ERROR"):
            if masks is not None:
                flips = masks[pos].T.astype(bool)
            else:
                flips = rng.random((shots, len(t))) < inst.arg
            plane = x if name == "X_ERROR" else z
            plane[:, t] ^= flips.astype(np.uint8)
        elif name == "DEPOLARIZE1":
            if masks is not None:
                v = masks[pos].T
                is_x = (v == 1) | (v == 2)
                is_z = (v == 2) | (v == 3)
            else:
                r = rng.random((shots, len(t)))
                p = inst.arg
                is_x = r < 2 * p / 3
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
                choice = np.where(r < p, (r / p * 15).astype(np.int64) + 1, 0)
            pa, pb = choice // 4, choice % 4
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
