"""Syndrome-extraction circuit generation for arbitrary (deformed) codes.

Generates a memory experiment in a chosen basis for any
:class:`~repro.codes.SubsystemCode`, including codes produced by
Surf-Deformer instructions:

* ordinary checks are measured through their ancilla (reset, optional
  basis change, CNOT ladder, measure);
* weight-1 gauge operators (from ``SyndromeQ_RM``) are measured directly
  on the data qubit;
* detectors compare, between consecutive rounds, the product of measured
  checks listed in each stabilizer generator's ``measured_via`` — so
  super-stabilizers inferred from gauge measurements produce
  deterministic detectors even though the individual gauge outcomes are
  random.

Untreated defective qubits (the "no treatment" baseline of fig. 11a)
receive extra per-round depolarizing noise at the defect rate, and
defective ancillas produce near-random outcomes.

Every round after the second repeats the second one: the generator
builds rounds 0 and 1 through ``Circuit.append`` and then appends the
rest with :meth:`~repro.sim.circuit.Circuit.replay`, which shifts each
copy's detector records by the records one round writes.  The
instruction list is the one a round-by-round build gives.
"""

from __future__ import annotations

from repro.codes import SubsystemCode
from repro.sim.circuit import Circuit
from repro.sim.noise import NoiseModel

__all__ = ["memory_circuit"]


def memory_circuit(
    code: SubsystemCode,
    basis: str,
    rounds: int,
    noise: NoiseModel,
    *,
    defective_data: set | None = None,
    defective_ancillas: set | None = None,
) -> Circuit:
    """Build a ``basis``-memory experiment circuit for ``code``.

    The data qubits are initialised in the ``basis`` eigenbasis, syndrome
    extraction runs for ``rounds`` rounds, and the data qubits are
    measured out in ``basis``; the logical observable is the tracked
    ``basis`` logical operator.  Detectors are defined for ``basis``-type
    stabilizer generators only (the ones protecting that observable).

    ``defective_data`` / ``defective_ancillas`` inject the paper's defect
    noise on qubits that are still part of the code (the untreated
    baseline); qubits the deformation removed are simply absent.
    """
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    defective_data = set(defective_data or ())
    defective_ancillas = set(defective_ancillas or ())

    data_order = code.qubit_order()
    index: dict = {q: i for i, q in enumerate(data_order)}
    next_index = len(data_order)
    ancilla_index: dict = {}
    for check in code.checks.values():
        if check.ancilla is not None:
            ancilla_index[check.name] = next_index
            next_index += 1

    circuit = Circuit()
    data_ids = [index[q] for q in data_order]

    # --- initialisation -------------------------------------------------
    if basis == "Z":
        circuit.reset(*data_ids)
        circuit.x_error(noise.p_reset, *data_ids)
    else:
        circuit.reset_x(*data_ids)
        circuit.z_error(noise.p_reset, *data_ids)

    check_names = sorted(code.checks)
    # measurement record index of each check, per round
    last_round_records: dict[str, int] = {}
    generators = [g for g in code.stabilizers.values() if g.basis == basis]

    # Rounds 0 and 1 are built instruction by instruction; every later
    # round repeats round 1 with its records shifted (Circuit.replay).
    for rnd in range(min(rounds, 2)):
        round_start, round_records = len(circuit), circuit.num_measurements
        circuit.depolarize1(noise.p_data_round, *data_ids)
        bad_data = [index[q] for q in defective_data if q in index]
        if bad_data:
            circuit.depolarize1(noise.p_defect, *bad_data)

        this_round_records: dict[str, int] = {}
        for name in check_names:
            check = code.checks[name]
            rec = _measure_check(
                circuit,
                check,
                index,
                ancilla_index,
                noise,
                defective=check.ancilla in defective_ancillas,
            )
            this_round_records[name] = rec

        for gen in generators:
            recs = [this_round_records[n] for n in gen.measured_via]
            if rnd == 0:
                # First-round outcome is deterministic for same-basis
                # generators given the product-state initialisation.
                circuit.detector(recs)
            else:
                prev = [last_round_records[n] for n in gen.measured_via]
                circuit.detector(recs + prev)
        last_round_records = this_round_records
    if rounds > 2:
        shift = (rounds - 2) * (circuit.num_measurements - round_records)
        circuit.replay(round_start, rounds - 2)
        last_round_records = {n: r + shift for n, r in last_round_records.items()}

    # --- final data measurement -----------------------------------------
    if basis == "Z":
        circuit.x_error(noise.p_meas, *data_ids)
        final = circuit.measure(*data_ids)
    else:
        circuit.z_error(noise.p_meas, *data_ids)
        final = circuit.measure_x(*data_ids)
    final_rec = {q: final[i] for i, q in enumerate(data_order)}

    for gen in generators:
        support = gen.pauli.x_support if basis == "X" else gen.pauli.z_support
        recs = [final_rec[q] for q in support]
        recs += [last_round_records[n] for n in gen.measured_via]
        circuit.detector(recs)

    logical = code.logical_x if basis == "X" else code.logical_z
    support = logical.x_support if basis == "X" else logical.z_support
    circuit.observable([final_rec[q] for q in support])
    return circuit


# CNOT ladder orders (offsets from the ancilla), chosen so that the
# weight-2 "hook" error a mid-ladder ancilla fault creates is aligned
# *across* the logical operator it threatens rather than along it — the
# standard zigzag schedule of rotated-surface-code circuits.  Without
# this the effective circuit-level distance halves.
_ORDER_X = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
_ORDER_Z = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _ladder_order(check) -> list:
    """Support of ``check`` in hook-safe measurement order."""
    support = set(check.pauli.support)
    if check.ancilla is None:
        return sorted(support)
    ax, ay = check.ancilla
    offsets = _ORDER_X if check.basis == "X" else _ORDER_Z
    ordered = [
        (ax + dx, ay + dy) for dx, dy in offsets if (ax + dx, ay + dy) in support
    ]
    if len(ordered) == len(support):
        return ordered
    # Deformed checks (e.g. truncated supports not adjacent to the
    # ancilla) fall back to a deterministic order.
    return sorted(support)


def _measure_check(
    circuit: Circuit,
    check,
    index: dict,
    ancilla_index: dict,
    noise: NoiseModel,
    *,
    defective: bool,
) -> int:
    """Emit one check measurement; returns the record index."""
    support = _ladder_order(check)
    flip_p = noise.defect_meas_flip if defective else noise.p_meas

    if check.ancilla is None:
        # Direct single-qubit gauge measurement on the data qubit.
        (q,) = support
        qid = index[q]
        if check.basis == "X":
            circuit.z_error(flip_p, qid)
            (rec,) = circuit.measure_x(qid)
        else:
            circuit.x_error(flip_p, qid)
            (rec,) = circuit.measure(qid)
        return rec

    anc = ancilla_index[check.name]
    circuit.reset(anc)
    circuit.x_error(noise.p_reset, anc)
    if check.basis == "X":
        circuit.h(anc)
        circuit.depolarize1(noise.p1, anc)
        for q in support:
            circuit.cx(anc, index[q])
            circuit.depolarize2(noise.p2, anc, index[q])
        circuit.h(anc)
        circuit.depolarize1(noise.p1, anc)
    else:
        for q in support:
            circuit.cx(index[q], anc)
            circuit.depolarize2(noise.p2, index[q], anc)
    circuit.x_error(flip_p, anc)
    (rec,) = circuit.measure(anc)
    return rec
