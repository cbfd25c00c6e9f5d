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
may repeat one.
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

__all__ = ["Circuit", "CompiledCircuit", "CompiledOp", "Instruction", "GateTarget"]


@dataclass(frozen=True)
class Instruction:
    """One circuit operation."""

    name: str
    targets: tuple[int, ...]
    arg: float = 0.0


@dataclass(frozen=True)
class CompiledOp:
    """One step of a compiled program: an op kind plus gather indices.

    ``targets`` / ``targets2`` are precomputed ``intp`` index arrays:
    for ``CX`` they are the (controls, targets) columns, for
    ``DEPOLARIZE2`` the (first, second) qubits of each pair; other ops
    use only ``targets``.  ``position`` is the instruction index of the
    first fused instruction (noise ops are never fused, so a noise op's
    ``position`` is exactly its instruction index — the key of its
    pre-drawn noise mask).  ``m_start`` is the absolute record index
    written by a measurement op.
    """

    kind: str
    targets: np.ndarray
    targets2: np.ndarray | None = None
    arg: float = 0.0
    position: int = 0
    m_start: int = 0
    #: Row index into the compiled sparse-noise tables (noise ops only).
    noise_slot: int = -1
    #: Scalar qubit indices for single-target specialized kinds
    #: ("H1"/"R1"/"M1"/"MX1"/"CX1"), letting the engine use basic row
    #: views instead of fancy-index gather copies.
    t1: int = -1
    t2: int = -1


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit lowered to numpy-indexable form, built once and cached.

    The instruction list is fused into a compact program:

    * gate/noise ops become :class:`CompiledOp` entries with
      ready-to-use index arrays (no per-shot Python target parsing);
      runs of consecutive ``R``/``RX`` (idempotent zeroing), same-kind
      measurements (contiguous record slices) and disjoint ``H``
      instructions are merged into single ops;
    * ``DETECTOR``/``OBSERVABLE`` annotations leave the op stream
      entirely and become a sparse CSR map from measurement records to
      detector/observable bits (``*_indices``/``*_offsets``), applied
      in one pass after propagation.  Annotations with no records
      reference the all-zero dummy record row ``num_measurements``, so
      every CSR group is non-empty.

    ``noise_slots``/``noise_probs`` tabulate the per-shot Bernoulli
    trial count and probability of every noise op (indexed by
    ``CompiledOp.noise_slot``), so a sampler can draw all Binomial flip
    counts for a run in one vectorised call.
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
    noise_slots: np.ndarray
    noise_probs: np.ndarray
    #: Uniform draws consumed per flip (2 when a Pauli letter is also
    #: drawn — depolarizing channels — else 1), per noise op.
    noise_umult: np.ndarray


def _fuse(ops: list[CompiledOp]) -> list[CompiledOp]:
    """Merge adjacent ops where the combined gather is equivalent."""
    fused: list[CompiledOp] = []
    for op in ops:
        prev = fused[-1] if fused else None
        if prev is not None and prev.kind == op.kind:
            if op.kind == "R":
                # Zeroing is idempotent: duplicates between runs are fine.
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
                if len(np.unique(merged)) == len(merged):  # disjoint only
                    fused[-1] = CompiledOp("H", merged, position=prev.position)
                    continue
        fused.append(op)
    return fused


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
    """Lower ``circuit`` to a :class:`CompiledCircuit` program."""
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
            # R and RX act identically on the frame (clear both planes).
            ops.append(CompiledOp("R", t, position=pos))
        else:  # H and single-qubit noise channels
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
        noise_slots=np.asarray(noise_slots, dtype=np.intp),
        noise_probs=np.asarray(noise_probs, dtype=np.float64),
        noise_umult=np.asarray(noise_umult, dtype=np.intp),
    )


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

    def x_error(self, p: float, *qubits: int) -> None:
        if p > 0 and qubits:
            self.append("X_ERROR", qubits, p)

    def z_error(self, p: float, *qubits: int) -> None:
        if p > 0 and qubits:
            self.append("Z_ERROR", qubits, p)

    def depolarize1(self, p: float, *qubits: int) -> None:
        if p > 0 and qubits:
            self.append("DEPOLARIZE1", qubits, p)

    def depolarize2(self, p: float, *qubits: int) -> None:
        if p > 0 and qubits:
            self.append("DEPOLARIZE2", qubits, p)

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

        The cache is invalidated by length: :meth:`append` is the only
        mutator, so a changed instruction count means a changed program.
        """
        cached = getattr(self, "_compiled", None)
        if cached is not None and cached[0] == len(self.instructions):
            return cached[1]
        program = compile_circuit(self)
        self._compiled = (len(self.instructions), program)
        return program

    def __len__(self) -> int:
        return len(self.instructions)
