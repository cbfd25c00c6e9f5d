# virtual-path: src/repro/eval/good_circuit.py
# Circuits built through Circuit.append and friends; reads are fine.
from repro.sim import Circuit


def build(qubits, rounds):
    circuit = Circuit()
    circuit.reset(*qubits)
    start = len(circuit)
    circuit.x_error(1e-3, *qubits)
    circuit.measure(*qubits)
    circuit.replay(start, rounds - 1)
    return circuit


def summary(circuit, report):
    names = [inst.name for inst in circuit.instructions]
    first = circuit.instructions[0]
    instructions = list(report.instructions)
    instructions.append("done")
    return names, first, len(circuit.instructions), instructions
