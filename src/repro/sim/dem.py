"""Detector error model (DEM) extraction in one backward sensitivity pass.

Frame propagation is linear over GF(2), so the effect of any Pauli
fault is fixed by two *sensitivity rows* per qubit and time: bit ``k``
of ``sx[q]`` (``sz[q]``) is set when an ``X`` (``Z``) on ``q`` at that
point flips detector/observable ``k``.  :func:`build_dem` computes them
for every noise position in one reverse walk over the compiled program
(:meth:`repro.sim.circuit.Circuit.compiled`), the backward formulation
of Stim's error analyser (Gidney 2021, https://arxiv.org/abs/2103.02202).
Rows are packed ``uint64`` words, ``ceil(detectors / 64)`` words of
detector bits followed by ``ceil(observables / 64)`` of observable
bits.  After the last op every row is zero; each op applies the
transpose of its forward frame rule:

* ``M`` on ``q`` writing record ``m``: ``sx[q] ^= R[m]`` (``MX``:
  ``sz[q] ^= R[m]``), where ``R[m]`` is the row of detectors and
  observables that read record ``m``.  Consecutive measurements fuse
  into one op that may name a qubit twice, so this update accumulates
  repeated targets;
* ``R``/``RX``: zero both rows; ``H``: swap them;
* ``CX`` (control ``c``, target ``t``): ``sx[c] ^= sx[t]``,
  ``sz[t] ^= sz[c]``;
* a noise op with ``p > 0`` snapshots the rows of its qubits and leaves
  them unchanged.

The gate rules update all of an instruction's targets in one
fancy-indexed assignment, which is why ``Circuit.append`` rejects an
``H``, ``CX`` or noise instruction that names a qubit twice.

Each elementary mechanism — ``X_ERROR``/``Z_ERROR`` letter at ``p``,
``DEPOLARIZE1`` ``X``/``Y``/``Z`` at ``p/3``, ``DEPOLARIZE2``'s 15
non-identity pairs at ``p/15`` — is then the XOR of at most four
snapshot rows (``Y = X ⊕ Z``, a pair is the XOR of its halves), in
instruction → target → letter order.  Mechanisms with the same
detectors and observable flag (set when any observable flips) are
merged in first-appearance order by ``p ← p₁(1−p₂) + p₂(1−p₁)``,
computed as ``(1 − ∏(1−2pᵢ))/2``, yielding the weighted decoding
(hyper)graph the MWPM decoder consumes.
``tests/dem_oracle.py`` keeps the propagate-every-mechanism reference
the builder is pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.circuit import Circuit, CompiledCircuit, CompiledOp
from repro.utils.gf2 import gf2_unpack

__all__ = ["ErrorMechanism", "DetectorErrorModel", "build_dem"]

#: Bit index → uint64 single-bit mask.
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)

#: Elementary Pauli mechanisms of each channel, in reference order; a
#: channel of probability ``p`` gives each one ``p / len(letters)``.
_CHANNEL_LETTERS = {
    "X_ERROR": ("X",),
    "Z_ERROR": ("Z",),
    "DEPOLARIZE1": ("X", "Y", "Z"),
    "DEPOLARIZE2": tuple(a + b for a in "IXYZ" for b in "IXYZ")[1:],
}
_KIND_INDEX = {kind: i for i, kind in enumerate(_CHANNEL_LETTERS)}
_LETTER_COUNT = np.array([len(v) for v in _CHANNEL_LETTERS.values()])
_LETTER_START = np.cumsum(_LETTER_COUNT) - _LETTER_COUNT
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
#: Per (channel, letter): which snapshot rows the mechanism XORs, as
#: (X on first qubit, Z on first, X on second, Z on second).
_LETTER_ROWS = np.array(
    [
        (*_PAULI_BITS[letter[0]], *_PAULI_BITS[letter[1:] or "I"])
        for letters in _CHANNEL_LETTERS.values()
        for letter in letters
    ],
    dtype=bool,
)


@dataclass(frozen=True)
class ErrorMechanism:
    """An independent error source in the decoding graph."""

    probability: float
    detectors: tuple[int, ...]
    observable_flip: bool


@dataclass
class DetectorErrorModel:
    """The merged set of error mechanisms of a circuit."""

    mechanisms: list[ErrorMechanism]
    num_detectors: int
    num_observables: int
    dropped_hyperedges: int = 0

    def graphlike(self) -> list[ErrorMechanism]:
        """Mechanisms touching at most two detectors (matchable edges)."""
        return [m for m in self.mechanisms if 1 <= len(m.detectors) <= 2]

    def undetectable_logical_rate(self) -> float:
        """Total probability mass of mechanisms flipping the observable
        while triggering no detector — irreducible logical errors."""
        total = 0.0
        for m in self.mechanisms:
            if not m.detectors and m.observable_flip:
                total = total + m.probability - 2 * total * m.probability
        return total


def _record_rows(program: CompiledCircuit, det_words: int, width: int) -> np.ndarray:
    """``R[m]``: detector‖observable bits of the annotations reading record ``m``.

    A record listed twice by one annotation cancels, as it does in the
    forward XOR.  The extra last row absorbs empty annotations.
    """
    rows = np.zeros((program.num_measurements + 1, width), dtype=np.uint64)
    for indices, offsets, first_bit in (
        (program.det_indices, program.det_offsets, 0),
        (program.obs_indices, program.obs_offsets, 64 * det_words),
    ):
        bit = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)) + first_bit
        np.bitwise_xor.at(rows, (indices, bit >> 6), _BIT[bit & 63])
    return rows


def _snapshots(
    program: CompiledCircuit, records: np.ndarray, noise: list[CompiledOp]
) -> np.ndarray:
    """Walk the program backwards; returns ``(slots, 2, width)`` snapshots.

    Row ``[s, 0]``/``[s, 1]`` is the X/Z sensitivity of snapshot slot
    ``s``.  The ``noise`` ops (``p > 0``) own consecutive slots in
    program order, one per target (``DEPOLARIZE2``: first and second
    qubit of each pair, interleaved).
    """
    slots = sum(len(op.targets) * (1 if op.targets2 is None else 2) for op in noise)
    sens = np.zeros((program.num_qubits, 2, records.shape[1]), dtype=np.uint64)
    snap = np.empty((slots, 2, records.shape[1]), dtype=np.uint64)
    xor = np.bitwise_xor
    cursor = slots
    for op in reversed(program.ops):
        kind = op.kind
        if op.noise_slot >= 0:
            if op.arg <= 0:
                continue
            pairs = op.targets2 is not None
            cursor -= len(op.targets) * (2 if pairs else 1)
            if op.t1 >= 0:
                snap[cursor] = sens[op.t1]
                if pairs:
                    snap[cursor + 1] = sens[op.t2]
            elif pairs:
                snap[cursor : cursor + 2 * len(op.targets) : 2] = sens[op.targets]
                snap[cursor + 1 : cursor + 2 * len(op.targets) : 2] = sens[op.targets2]
            else:
                snap[cursor : cursor + len(op.targets)] = sens[op.targets]
        elif kind == "CX1":
            xor(sens[op.t1, 0], sens[op.t2, 0], out=sens[op.t1, 0])
            xor(sens[op.t2, 1], sens[op.t1, 1], out=sens[op.t2, 1])
        elif kind == "M1":
            xor(sens[op.t1, 0], records[op.m_start], out=sens[op.t1, 0])
        elif kind == "MX1":
            xor(sens[op.t1, 1], records[op.m_start], out=sens[op.t1, 1])
        elif kind == "R1":
            sens[op.t1] = 0
        elif kind == "H1":
            sens[op.t1] = sens[op.t1, ::-1].copy()
        elif kind == "CX":
            sens[op.targets, 0] ^= sens[op.targets2, 0]
            sens[op.targets2, 1] ^= sens[op.targets, 1]
        elif kind in ("M", "MX"):
            m = slice(op.m_start, op.m_start + len(op.targets))
            xor.at(sens, (op.targets, int(kind == "MX")), records[m])
        elif kind == "R":
            sens[op.targets] = 0
        elif kind == "H":
            sens[op.targets] = sens[op.targets][:, ::-1]
        else:  # pragma: no cover - compile_circuit emits no other kinds
            raise ValueError(f"unknown compiled op {kind!r}")
    return snap


def _mechanisms(
    noise: list[CompiledOp], snap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(signature rows, probabilities) of every elementary mechanism."""
    kind = np.array([_KIND_INDEX[op.kind] for op in noise], dtype=np.intp)
    n = np.array([len(op.targets) for op in noise], dtype=np.intp)
    unit_kind = np.repeat(kind, n)  # one unit per target / pair
    count = _LETTER_COUNT[unit_kind]
    unit_p = np.repeat(np.array([op.arg for op in noise]), n) / count
    span = np.where(unit_kind == _KIND_INDEX["DEPOLARIZE2"], 2, 1)
    slot = np.cumsum(span) - span  # first snapshot slot of each unit
    unit = np.repeat(np.arange(len(unit_kind)), count)
    # Row of _LETTER_ROWS per mechanism: its channel's first letter plus
    # the mechanism's rank within its unit.
    letter = np.arange(len(unit)) + np.repeat(
        _LETTER_START[unit_kind] - (np.cumsum(count) - count), count
    )
    flat = snap.reshape(-1, snap.shape[2])  # X of slot s at 2s, Z at 2s + 1
    base = 2 * slot[unit]
    sig = np.zeros((len(unit), flat.shape[1]), dtype=np.uint64)
    for col, uses in enumerate(_LETTER_ROWS[letter].T):
        rows = np.nonzero(uses)[0]
        sig[rows] ^= flat[base[rows] + col]
    return sig, unit_p[unit]


def build_dem(circuit: Circuit, *, merge: bool = True) -> DetectorErrorModel:
    """Extract the detector error model of ``circuit``.

    With ``merge=True`` mechanisms with identical (detectors, observable)
    signatures are combined via ``p ← p₁(1−p₂) + p₂(1−p₁)``; with
    ``merge=False`` probabilities are summed (clipped at 1).  The
    observable flag is set when a mechanism flips any observable.
    """
    num_det, num_obs = circuit.num_detectors, circuit.num_observables
    empty = DetectorErrorModel([], num_det, num_obs)
    program = circuit.compiled()
    noise = [op for op in program.ops if op.noise_slot >= 0 and op.arg > 0]
    det_words = (num_det + 63) // 64
    width = det_words + (num_obs + 63) // 64
    if not noise or not width:
        return empty

    snap = _snapshots(program, _record_rows(program, det_words, width), noise)
    sig, probs = _mechanisms(noise, snap)

    keep = sig.any(axis=1)
    sig, probs = sig[keep], probs[keep]
    if not len(sig):
        return empty
    if num_obs > 1:
        # The stored key is (detectors, any observable flipped).
        flag = sig[:, det_words:].any(axis=1).astype(np.uint64)
        sig = np.column_stack([sig[:, :det_words], flag])
    key = np.ascontiguousarray(sig).view(np.dtype((np.void, 8 * sig.shape[1])))
    _, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
    if merge:
        # ∏(1−2pᵢ) per group ≡ the sequential p+p'−2pp' combination.
        factors = np.ones(len(first))
        np.multiply.at(factors, inverse, 1.0 - 2.0 * probs)
        merged_p = (1.0 - factors) / 2.0
    else:
        merged_p = np.zeros(len(first))
        np.add.at(merged_p, inverse, probs)
        merged_p = np.minimum(merged_p, 1.0)

    order = np.argsort(first, kind="stable")
    rows = sig[first[order]]
    group, det = np.nonzero(gf2_unpack(rows[:, :det_words], num_det))
    bounds = np.searchsorted(group, np.arange(len(rows) + 1)).tolist()
    det_list = det.tolist()
    flips = rows[:, det_words:].any(axis=1).tolist()
    probabilities = merged_p[order].tolist()
    mechanisms = [
        ErrorMechanism(
            probability=probabilities[g],
            detectors=tuple(det_list[bounds[g] : bounds[g + 1]]),
            observable_flip=flips[g],
        )
        for g in range(len(rows))
    ]
    dropped = sum(1 for m in mechanisms if len(m.detectors) > 2)
    return DetectorErrorModel(
        mechanisms=mechanisms,
        num_detectors=num_det,
        num_observables=num_obs,
        dropped_hyperedges=dropped,
    )
