"""A minimal Clifford circuit IR with Pauli noise and detector annotations.

Supported operations (all the paper's experiments need):

=============== =========================================================
``H``            Hadamard on each target qubit
``CX``           CNOTs on (control, target) pairs
``R`` / ``RX``   reset to ``|0⟩`` / ``|+⟩``
``M`` / ``MX``   destructive-free measurement in the Z / X basis
``X_ERROR``      independent X flip with probability ``arg``
``Z_ERROR``      independent Z flip with probability ``arg``
``DEPOLARIZE1``  single-qubit depolarizing channel, probability ``arg``
``DEPOLARIZE2``  two-qubit depolarizing channel on pairs, prob ``arg``
``DETECTOR``     XOR of absolute measurement indices (deterministic
                 without noise)
``OBSERVABLE``   XOR of absolute measurement indices defining a logical
                 observable
=============== =========================================================

Qubits are dense integer indices; the syndrome-circuit generator keeps a
coordinate↔index map.  Measurement indices are absolute (0-based in
program order), which keeps detector bookkeeping simple.  ``H``, ``CX``
and the noise channels must name each qubit at most once per
instruction (their targets act in parallel); ``R``/``RX``/``M``/``MX``
may repeat one.  A noise probability must lie in [0, 1].

:func:`compile_circuit` lowers a circuit to *layers*, as Stim applies
each instruction to all its targets in one step (Gidney 2021,
https://arxiv.org/abs/2103.02202): every instruction goes into the
earliest layer after every earlier instruction that shares a qubit, so
the instructions of a layer act on disjoint qubits and each qubit keeps
its order of operations.  Within a layer, all instructions of one kind
become one :class:`CompiledOp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

GateTarget = int

_GATES_1Q = {"H", "R", "RX", "M", "MX", "X_ERROR", "Z_ERROR", "DEPOLARIZE1"}
_GATES_2Q = {"CX", "DEPOLARIZE2"}
_ANNOTATIONS = {"DETECTOR", "OBSERVABLE"}
_NOISE = {"X_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2"}
#: Instructions whose targets the engines update in one vectorised
#: step; a qubit named twice would silently lose an update.
_DISTINCT_TARGETS = {"H", "CX", *_NOISE}

#: Elementary Pauli mechanisms of each noise channel, in reference
#: order; a channel of probability ``p`` gives each one
#: ``p / len(letters)``.  ``CHANNEL_KINDS`` numbers the channels.
CHANNEL_LETTERS = {
    "X_ERROR": ("X",),
    "Z_ERROR": ("Z",),
    "DEPOLARIZE1": ("X", "Y", "Z"),
    "DEPOLARIZE2": tuple(a + b for a in "IXYZ" for b in "IXYZ")[1:],
}
CHANNEL_KINDS = {kind: i for i, kind in enumerate(CHANNEL_LETTERS)}
LETTER_COUNT = np.array([len(v) for v in CHANNEL_LETTERS.values()])
LETTER_START = np.cumsum(LETTER_COUNT) - LETTER_COUNT
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
#: Per (channel, letter): which frame bits the letter flips, as
#: (X on first qubit, Z on first, X on second, Z on second).
LETTER_ROWS = np.array(
    [
        (*_PAULI_BITS[letter[0]], *_PAULI_BITS[letter[1:] or "I"])
        for letters in CHANNEL_LETTERS.values()
        for letter in letters
    ],
    dtype=bool,
)

#: Op kinds in the order a layer runs them (any order would do: the
#: ops of one layer act on disjoint qubits).  ``RX`` compiles to ``R``
#: (both clear the frame) and every noise channel to ``NOISE``.
OP_KINDS = ("R", "H", "CX", "M", "MX", "NOISE")
_R, _H, _CX, _M, _MX, _NOISE_OP = range(len(OP_KINDS))
_OP_KIND = {
    "R": _R, "RX": _R, "H": _H, "CX": _CX, "M": _M, "MX": _MX,
    **dict.fromkeys(_NOISE, _NOISE_OP),
}

__all__ = ["Circuit", "CompiledCircuit", "CompiledOp", "Instruction", "GateTarget"]


@dataclass(frozen=True)
class Instruction:
    """One circuit operation."""

    name: str
    targets: tuple[int, ...]
    arg: float = 0.0


@dataclass(frozen=True)
class CompiledOp:
    """Every instruction of one kind in one layer, as one step.

    ``targets`` lists the qubits in instruction → target order.  For
    ``CX`` they are the controls and ``targets2`` the matching targets.
    ``M``/``MX`` carry ``records``, the record each target writes; a
    qubit may appear twice there (one ``M`` instruction naming it
    twice), nowhere else.  A ``NOISE`` op carries ``slots``: the index
    of each target in the circuit's noise targets, taken in instruction
    → target order (``DEPOLARIZE2`` pairs as first, second).
    """

    kind: str
    layer: int
    targets: np.ndarray
    targets2: np.ndarray | None = None
    records: np.ndarray | None = None
    slots: np.ndarray | None = None


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit lowered to layered, numpy-indexable form, built once.

    * ``ops`` run layer by layer, one :class:`CompiledOp` per kind
      present in a layer;
    * ``DETECTOR``/``OBSERVABLE`` annotations leave the op stream and
      become a sparse CSR map from measurement records to
      detector/observable bits (``*_indices``/``*_offsets``), applied in
      one pass after propagation.  Annotations with no records reference
      the all-zero dummy record row ``num_measurements``, so every CSR
      group is non-empty;
    * the ``noise_*`` arrays describe every noise channel (noise
      instruction), in instruction order: its ``CHANNEL_KINDS`` index,
      its Bernoulli trials per shot (targets, or pairs for
      ``DEPOLARIZE2``), its probability, its first noise slot and its
      layer.  ``slot_qubits`` is the qubit of every noise slot.
    """

    num_qubits: int
    num_measurements: int
    num_detectors: int
    num_observables: int
    ops: tuple[CompiledOp, ...]
    det_indices: np.ndarray
    det_offsets: np.ndarray
    obs_indices: np.ndarray
    obs_offsets: np.ndarray
    noise_kinds: np.ndarray
    noise_units: np.ndarray
    noise_probs: np.ndarray
    noise_starts: np.ndarray
    noise_layers: np.ndarray
    slot_qubits: np.ndarray


def _csr_wiring(
    groups: list[tuple[int, ...]], dummy: int
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, offsets) CSR arrays; empty groups point at ``dummy``."""
    indices: list[int] = []
    offsets = [0]
    for g in groups:
        indices.extend(g if g else (dummy,))
        offsets.append(len(indices))
    return (
        np.asarray(indices, dtype=np.intp),
        np.asarray(offsets, dtype=np.intp),
    )


def compile_circuit(circuit: "Circuit") -> CompiledCircuit:
    """Lower ``circuit`` to a layered :class:`CompiledCircuit` program."""
    detectors: list[tuple[int, ...]] = []
    observables: list[tuple[int, ...]] = []
    last = [-1] * circuit.num_qubits  # layer of each qubit's latest instruction
    layers: list[int] = []
    kinds: list[int] = []
    sizes: list[int] = []
    flat: list[int] = []
    channels: list[Instruction] = []
    for inst in circuit.instructions:
        kind = _OP_KIND.get(inst.name)
        if kind is None:
            (detectors if inst.name == "DETECTOR" else observables).append(inst.targets)
            continue
        t = inst.targets
        if len(t) == 1:
            layer = last[t[0]] = last[t[0]] + 1
        elif len(t) == 2:
            a, b = t
            layer = last[a] = last[b] = max(last[a], last[b]) + 1
        else:
            layer = max([last[q] for q in t], default=-1) + 1
            for q in t:
                last[q] = layer
        layers.append(layer)
        kinds.append(kind)
        sizes.append(len(t))
        flat.extend(t)
        if kind == _NOISE_OP:
            channels.append(inst)

    size = np.asarray(sizes, dtype=np.intp)
    layer_of, kind_of = np.asarray(layers, dtype=np.intp), np.asarray(kinds, dtype=np.intp)
    channel = kind_of == _NOISE_OP
    kind_of = np.repeat(kind_of, size)
    group = np.repeat(layer_of, size) * len(OP_KINDS) + kind_of
    qubits = np.asarray(flat, dtype=np.intp)
    # Records and noise slots number targets in instruction order.
    records = np.cumsum((kind_of == _M) | (kind_of == _MX)) - 1
    is_noise = kind_of == _NOISE_OP
    slots = np.cumsum(is_noise) - 1
    order = np.argsort(group, kind="stable")
    group, qubits_by_op = group[order], qubits[order]
    records, slots = records[order], slots[order]
    bounds = np.flatnonzero(group[1:] != group[:-1]) + 1
    starts = [0, *bounds.tolist()]
    ends = [*bounds.tolist(), len(group)]
    ops = []
    for lo, hi, g in zip(starts, ends, group[starts].tolist(), strict=True):
        layer, kind = divmod(g, len(OP_KINDS))
        name = OP_KINDS[kind]
        t = qubits_by_op[lo:hi]
        if kind == _CX:
            ops.append(CompiledOp(name, layer, t[0::2], t[1::2]))
        elif kind in (_M, _MX):
            ops.append(CompiledOp(name, layer, t, records=records[lo:hi]))
        elif kind == _NOISE_OP:
            ops.append(CompiledOp(name, layer, t, slots=slots[lo:hi]))
        else:
            ops.append(CompiledOp(name, layer, t))

    noise_kinds = np.array([CHANNEL_KINDS[c.name] for c in channels], dtype=np.intp)
    noise_size = size[channel]
    det_indices, det_offsets = _csr_wiring(detectors, circuit.num_measurements)
    obs_indices, obs_offsets = _csr_wiring(observables, circuit.num_measurements)
    return CompiledCircuit(
        num_qubits=circuit.num_qubits,
        num_measurements=circuit.num_measurements,
        num_detectors=circuit.num_detectors,
        num_observables=circuit.num_observables,
        ops=tuple(ops),
        det_indices=det_indices,
        det_offsets=det_offsets,
        obs_indices=obs_indices,
        obs_offsets=obs_offsets,
        noise_kinds=noise_kinds,
        noise_units=noise_size // np.where(noise_kinds == CHANNEL_KINDS["DEPOLARIZE2"], 2, 1),
        noise_probs=np.array([c.arg for c in channels], dtype=np.float64),
        noise_starts=np.cumsum(noise_size) - noise_size,
        noise_layers=layer_of[channel],
        slot_qubits=qubits[is_noise],
    )


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise ValueError(f"{name} probability must lie in [0, 1], got {p!r}")


@dataclass
class Circuit:
    """An ordered list of instructions plus measurement bookkeeping."""

    instructions: list[Instruction] = field(default_factory=list)
    num_qubits: int = 0
    num_measurements: int = 0
    num_detectors: int = 0
    num_observables: int = 0

    def append(self, name: str, targets: Sequence[int], arg: float = 0.0) -> None:
        """Append an operation, updating counters and validating shape."""
        targets = tuple(int(t) for t in targets)
        if name in _GATES_2Q:
            if len(targets) % 2:
                raise ValueError(f"{name} needs an even number of targets")
        elif name not in _GATES_1Q and name not in _ANNOTATIONS:
            raise ValueError(f"unknown instruction {name!r}")
        if name in _NOISE:
            _check_probability(name, arg)
        if name in _DISTINCT_TARGETS and len(set(targets)) < len(targets):
            repeated = next(q for q in targets if targets.count(q) > 1)
            raise ValueError(
                f"{name} names qubit {repeated} more than once; "
                "split it into separate instructions"
            )
        if name in _ANNOTATIONS:
            for t in targets:
                if t >= self.num_measurements:
                    raise ValueError(
                        f"{name} references measurement {t} before it happens"
                    )
        else:
            self.num_qubits = max(self.num_qubits, max(targets, default=-1) + 1)
        if name in ("M", "MX"):
            self.num_measurements += len(targets)
        if name == "DETECTOR":
            self.num_detectors += 1
        if name == "OBSERVABLE":
            self.num_observables += 1
        self.instructions.append(Instruction(name, targets, arg))

    def replay(self, start: int, times: int) -> None:
        """Append ``times`` copies of the instructions from ``start`` on.

        Each copy's ``DETECTOR``/``OBSERVABLE`` records shift by the
        records one copy writes, so a block whose annotations compare
        its records with the previous block's (a memory round) goes on
        comparing consecutive copies.  The result equals appending the
        copies one instruction at a time.
        """
        block = self.instructions[start:]
        shift = sum(len(i.targets) for i in block if i.name in ("M", "MX"))
        annotations = [(j, i) for j, i in enumerate(block) if i.name in _ANNOTATIONS]
        for copy in range(1, times + 1):
            body = list(block)
            for j, inst in annotations:
                body[j] = Instruction(
                    inst.name, tuple(t + copy * shift for t in inst.targets), inst.arg
                )
            self.instructions.extend(body)
        self.num_measurements += times * shift
        self.num_detectors += times * sum(i.name == "DETECTOR" for _, i in annotations)
        self.num_observables += times * sum(
            i.name == "OBSERVABLE" for _, i in annotations
        )

    # Convenience wrappers keep the syndrome generator readable.
    def h(self, *qubits: int) -> None:
        self.append("H", qubits)

    def cx(self, *qubits: int) -> None:
        self.append("CX", qubits)

    def reset(self, *qubits: int) -> None:
        self.append("R", qubits)

    def reset_x(self, *qubits: int) -> None:
        self.append("RX", qubits)

    def measure(self, *qubits: int) -> list[int]:
        """Z-basis measurement; returns the absolute record indices."""
        start = self.num_measurements
        self.append("M", qubits)
        return list(range(start, start + len(qubits)))

    def measure_x(self, *qubits: int) -> list[int]:
        start = self.num_measurements
        self.append("MX", qubits)
        return list(range(start, start + len(qubits)))

    def _channel(self, name: str, p: float, qubits: tuple[int, ...]) -> None:
        """Append a noise channel; ``p == 0`` or no qubits appends nothing."""
        if p == 0 or not qubits:
            _check_probability(name, p)
        else:
            self.append(name, qubits, p)

    def x_error(self, p: float, *qubits: int) -> None:
        self._channel("X_ERROR", p, qubits)

    def z_error(self, p: float, *qubits: int) -> None:
        self._channel("Z_ERROR", p, qubits)

    def depolarize1(self, p: float, *qubits: int) -> None:
        self._channel("DEPOLARIZE1", p, qubits)

    def depolarize2(self, p: float, *qubits: int) -> None:
        self._channel("DEPOLARIZE2", p, qubits)

    def detector(self, records: Iterable[int]) -> int:
        """Define a detector over absolute measurement indices."""
        index = self.num_detectors
        self.append("DETECTOR", tuple(records))
        return index

    def observable(self, records: Iterable[int]) -> int:
        index = self.num_observables
        self.append("OBSERVABLE", tuple(records))
        return index

    def compiled(self) -> CompiledCircuit:
        """The compiled program for this circuit, built once and cached.

        The cache is invalidated by length: :meth:`append` and
        :meth:`replay` are the only mutators, so a changed instruction
        count means a changed program.
        """
        cached = getattr(self, "_compiled", None)
        if cached is not None and cached[0] == len(self.instructions):
            return cached[1]
        program = compile_circuit(self)
        self._compiled = (len(self.instructions), program)
        return program

    def __len__(self) -> int:
        return len(self.instructions)
