"""Validity checks for generator representations and measured sets.

Implements the consistency conditions from the paper's appendix:

* **Theorem 1** — a generator representation is valid iff all operators
  are independent, each logical/gauge X–Z pair anticommutes, and all
  other pairs commute.
* **Definition 4** — a measured set ``Meas = Stab ∪ Gauge`` is valid iff
  measured operators avoid the logical algebra and every stabilizer
  generator's syndrome is recoverable from products of measured operators.

These checks run after every deformation instruction in the test suite,
turning the paper's proofs into executable invariants.

Pairwise commutation is checked only between operators that share a
qubit (:func:`repro.pauli.overlap_index`): operators on disjoint
supports always commute, so skipping those pairs changes no verdict,
and visiting the rest in position order reports the same first
violation as a scan over all pairs.
"""

from __future__ import annotations

from repro.codes.subsystem import SubsystemCode
from repro.pauli import PauliOp, commutes, overlap_index

__all__ = [
    "ValidityError",
    "check_generator_representation",
    "check_measurement_set",
    "check_code",
]


class ValidityError(AssertionError):
    """A code violated a stabilizer-formalism invariant."""


def check_generator_representation(code: SubsystemCode) -> None:
    """Assert Theorem-1 style invariants on the code.

    Checks that stabilizer generators mutually commute, that the tracked
    logical X/Z anticommute with each other and commute with every
    stabilizer generator, and that the generators are independent of the
    logical operators (the logicals are not secretly stabilizers).
    """
    stabs = list(code.stabilizers.values())
    sharing = overlap_index(gen.pauli for gen in stabs)
    for i, gen_a in enumerate(stabs):
        partners = {j for q in gen_a.pauli.support for j in sharing[q] if j > i}
        for j in sorted(partners):
            gen_b = stabs[j]
            if not commutes(gen_a.pauli, gen_b.pauli):
                raise ValidityError(
                    f"stabilizers {gen_a.name} and {gen_b.name} anticommute"
                )
    if commutes(code.logical_x, code.logical_z):
        raise ValidityError("logical X and Z commute; the logical qubit is lost")
    for gen in stabs:
        if not commutes(gen.pauli, code.logical_x):
            raise ValidityError(f"stabilizer {gen.name} anticommutes with logical X")
        if not commutes(gen.pauli, code.logical_z):
            raise ValidityError(f"stabilizer {gen.name} anticommutes with logical Z")
    for logical, basis in ((code.logical_x, "X"), (code.logical_z, "Z")):
        if code.is_stabilizer(logical):
            raise ValidityError(f"logical {basis} lies in the stabilizer group")
    for logical in (code.logical_x, code.logical_z):
        stray = logical.support - code.data_qubits
        if stray:
            raise ValidityError(f"logical acts on non-code qubits {sorted(stray)}")
    for gen in stabs:
        stray = gen.pauli.support - code.data_qubits
        if stray:
            raise ValidityError(
                f"stabilizer {gen.name} acts on non-code qubits {sorted(stray)}"
            )


def check_measurement_set(code: SubsystemCode) -> None:
    """Assert Definition-4 style invariants on the measured set.

    1. Measured operators commute with the logical operators **or** are
       gauge operators whose stabilizer products do (the paper's
       condition (2) excludes the bare logical algebra; we verify that no
       measured operator anticommutes with both logicals of the encoded
       qubit in a way that would collapse it: every measured operator
       must commute with at least the stabilizer group and the product
       decompositions must reproduce the generators).
    2. Every stabilizer generator's ``measured_via`` product equals the
       generator (condition (3): syndromes are recoverable).
    """
    for name, gen in code.stabilizers.items():
        product = PauliOp.identity()
        for check_name in gen.measured_via:
            if check_name not in code.checks:
                raise ValidityError(
                    f"stabilizer {name} references missing check {check_name}"
                )
            product = product * code.checks[check_name].pauli
        if product != gen.pauli:
            raise ValidityError(
                f"measured_via product for {name} does not reproduce the generator"
            )
    for name, check in code.checks.items():
        if not commutes(check.pauli, code.logical_x) or not commutes(
            check.pauli, code.logical_z
        ):
            raise ValidityError(
                f"measured operator {name} anticommutes with a logical operator; "
                "measuring it would disturb the encoded state"
            )
        stray = check.pauli.support - code.data_qubits
        if stray:
            raise ValidityError(
                f"check {name} acts on non-code qubits {sorted(stray)}"
            )


def check_no_bare_logicals(code: SubsystemCode) -> None:
    """Assert that undetected single-qubit errors are gauge or stabilizer.

    A data qubit touched by no X-type stabilizer generator is invisible to
    Z-error detection; that is only safe when ``Z_q`` itself lies in the
    group generated by Z-type stabilizers and measured Z gauges (a trivial
    or pure-gauge error).  Otherwise the deformation silently created a
    weight-1 logical.  Symmetric for the X side.
    """
    import numpy as np

    from repro.utils import gf2_in_rowspace

    order = code.qubit_order()
    index = {q: i for i, q in enumerate(order)}
    for detect_basis, error_basis in (("X", "Z"), ("Z", "X")):
        covered = set()
        for gen in code.stabilizers.values():
            if gen.basis == detect_basis:
                covered |= gen.pauli.support
        group = code.parity_matrix(error_basis, include_gauges=True)
        for q in code.data_qubits - covered:
            vec = np.zeros(len(order), dtype=np.uint8)
            vec[index[q]] = 1
            if not gf2_in_rowspace(group, vec):
                raise ValidityError(
                    f"qubit {q} has no {detect_basis}-stabilizer coverage and "
                    f"{error_basis}_{q} is not gauge/stabilizer: weight-1 "
                    "logical error"
                )


def check_code(code: SubsystemCode) -> None:
    """Run all validity checks (Theorem 1, Definition 4, bare-logical audit)."""
    check_generator_representation(code)
    check_measurement_set(code)
    check_no_bare_logicals(code)
