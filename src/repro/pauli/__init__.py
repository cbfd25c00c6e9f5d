"""Pauli operators in binary-symplectic representation."""

from repro.pauli.pauli import PauliOp, commutes, overlap_index, symplectic_product

__all__ = ["PauliOp", "commutes", "overlap_index", "symplectic_product"]
