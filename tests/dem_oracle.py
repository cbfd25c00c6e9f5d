"""Reference DEM formulation :func:`repro.sim.build_dem` is pinned to.

* :func:`expand_channels` — every stochastic channel as its elementary
  ``(position, {qubit: letter}, probability)`` Pauli mechanisms.
* :func:`propagate_mechanisms` — each mechanism injected into its own
  unpacked ``(shots, qubits)`` pseudo-shot and propagated forward
  through the circuit instruction by instruction, noise disabled.
* :func:`per_mechanism_dem` — those detector/observable flips merged
  sequentially into a :class:`~repro.sim.DetectorErrorModel` keyed on
  (detectors, any observable flipped), in first-appearance order.
"""

from __future__ import annotations

import numpy as np

from repro.sim import Circuit, DetectorErrorModel, ErrorMechanism


def expand_channels(circuit: Circuit) -> list[tuple[int, dict[int, str], float]]:
    """Elementary (position, pauli, probability) mechanisms of a circuit."""
    mechanisms: list[tuple[int, dict[int, str], float]] = []
    for pos, inst in enumerate(circuit.instructions):
        p = inst.arg
        if p <= 0:
            continue
        if inst.name == "X_ERROR":
            for q in inst.targets:
                mechanisms.append((pos, {q: "X"}, p))
        elif inst.name == "Z_ERROR":
            for q in inst.targets:
                mechanisms.append((pos, {q: "Z"}, p))
        elif inst.name == "DEPOLARIZE1":
            for q in inst.targets:
                for letter in "XYZ":
                    mechanisms.append((pos, {q: letter}, p / 3))
        elif inst.name == "DEPOLARIZE2":
            pairs = list(zip(inst.targets[0::2], inst.targets[1::2], strict=True))
            letters = ["I", "X", "Y", "Z"]
            for a, b in pairs:
                for la in letters:
                    for lb in letters:
                        if la == "I" and lb == "I":
                            continue
                        pauli = {}
                        if la != "I":
                            pauli[a] = la
                        if lb != "I":
                            pauli[b] = lb
                        mechanisms.append((pos, pauli, p / 15))
    return mechanisms


def propagate_mechanisms(
    circuit: Circuit, injections: list[tuple[int, dict[int, str]]]
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically propagate one Pauli injection per pseudo-shot.

    ``injections[k] = (position, {qubit: 'X'|'Y'|'Z'})`` injects the
    given Pauli immediately *at* instruction index ``position`` (i.e.
    before the instruction at that index executes) in pseudo-shot
    ``k``, with all stochastic channels disabled.  Returns the flipped
    detectors/observables per pseudo-shot — the rows of the detector
    error model.
    """
    c = circuit
    shots = len(injections)
    x = np.zeros((shots, c.num_qubits), dtype=np.uint8)
    z = np.zeros((shots, c.num_qubits), dtype=np.uint8)
    records = np.zeros((shots, c.num_measurements), dtype=np.uint8)
    detectors = np.zeros((shots, c.num_detectors), dtype=np.uint8)
    observables = np.zeros((shots, c.num_observables), dtype=np.uint8)
    by_position: dict[int, list[tuple[int, dict[int, str]]]] = {}
    for k, (pos, pauli) in enumerate(injections):
        by_position.setdefault(pos, []).append((k, pauli))
    m_idx = d_idx = o_idx = 0

    for i, inst in enumerate(c.instructions):
        for k, pauli in by_position.get(i, ()):
            for q, letter in pauli.items():
                if letter in ("X", "Y"):
                    x[k, q] ^= 1
                if letter in ("Z", "Y"):
                    z[k, q] ^= 1
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
        elif name == "M":
            n = len(t)
            records[:, m_idx : m_idx + n] = x[:, t]
            m_idx += n
        elif name == "MX":
            n = len(t)
            records[:, m_idx : m_idx + n] = z[:, t]
            m_idx += n
        elif name == "DETECTOR":
            if t:
                detectors[:, d_idx] = records[:, t].sum(axis=1) % 2
            d_idx += 1
        elif name == "OBSERVABLE":
            if t:
                observables[:, o_idx] = records[:, t].sum(axis=1) % 2
            o_idx += 1
        # Stochastic channels: disabled during propagation.
    return detectors, observables


def per_mechanism_dem(circuit: Circuit, *, merge: bool = True) -> DetectorErrorModel:
    """Propagate every mechanism as a pseudo-shot, then merge in order."""
    raw = expand_channels(circuit)
    if not raw:
        return DetectorErrorModel([], circuit.num_detectors, circuit.num_observables)

    injections = [(pos, pauli) for pos, pauli, _ in raw]
    det_flips, obs_flips = propagate_mechanisms(circuit, injections)

    merged: dict[tuple[tuple[int, ...], bool], float] = {}
    order: list[tuple[tuple[int, ...], bool]] = []
    for k, (_, _, p) in enumerate(raw):
        dets = tuple(np.nonzero(det_flips[k])[0].tolist())
        obs = bool(obs_flips[k].any())
        if not dets and not obs:
            continue
        key = (dets, obs)
        if key not in merged:
            merged[key] = 0.0
            order.append(key)
        if merge:
            prev = merged[key]
            merged[key] = prev + p - 2 * prev * p
        else:
            merged[key] = min(1.0, merged[key] + p)

    mechanisms = [
        ErrorMechanism(probability=merged[key], detectors=key[0], observable_flip=key[1])
        for key in order
    ]
    dropped = sum(1 for m in mechanisms if len(m.detectors) > 2)
    return DetectorErrorModel(
        mechanisms=mechanisms,
        num_detectors=circuit.num_detectors,
        num_observables=circuit.num_observables,
        dropped_hyperedges=dropped,
    )
