# virtual-path: src/repro/eval/bad_circuit.py
# Edits of a circuit's instruction list that bypass Circuit.append.
from repro.sim.circuit import Instruction


def extra_noise(circuit, qubit):
    circuit.instructions.append(Instruction("X_ERROR", (qubit,), 1.5))


def splice(circuit, block):
    circuit.instructions.extend(block)
    circuit.instructions.insert(0, Instruction("R", (0,)))


def patch(circuit, program):
    circuit.instructions[0] = program[0]
    circuit.instructions[1:3] = program[1:3]
    del circuit.instructions[-1]
    circuit.instructions += program


def trim(circuit):
    circuit.instructions.pop()
    circuit.instructions.remove(circuit.instructions[0])
    circuit.instructions.sort(key=repr)
    circuit.instructions.reverse()
    circuit.instructions.clear()
