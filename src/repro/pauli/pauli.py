"""Pauli operators over an arbitrary set of hashable qubit labels.

A :class:`PauliOp` stores, per qubit, whether the operator acts with an X
component and/or a Z component (``Y = XZ`` up to phase; global phases are
irrelevant for stabilizer bookkeeping and are not tracked).  Qubits are
identified by arbitrary hashable labels — the surface-code layer uses
``(x, y)`` lattice coordinates — so deformation instructions can add and
remove qubits without re-indexing a dense array.

The dense binary-symplectic form needed by :mod:`repro.utils.gf2` is
produced on demand via :meth:`PauliOp.to_symplectic`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import Any

import numpy as np

Qubit = Hashable

_VALID = {"I", "X", "Y", "Z"}

__all__ = ["PauliOp", "commutes", "overlap_index", "symplectic_product"]


class PauliOp:
    """An n-qubit Pauli operator (phase-free) on labelled qubits.

    Internally two frozensets: the X-support and the Z-support.  A qubit in
    both supports carries a Y.  Instances are immutable and hashable so they
    can live in stabilizer/gauge sets.
    """

    __slots__ = ("_xs", "_zs", "_hash")

    def __init__(
        self,
        x_support: Iterable[Qubit] = (),
        z_support: Iterable[Qubit] = (),
    ) -> None:
        self._xs = frozenset(x_support)
        self._zs = frozenset(z_support)
        self._hash = hash((self._xs, self._zs))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_label(cls, mapping: Mapping[Qubit, str]) -> "PauliOp":
        """Build from ``{qubit: 'X'|'Y'|'Z'|'I'}``."""
        xs, zs = [], []
        for qubit, letter in mapping.items():
            if letter not in _VALID:
                raise ValueError(f"invalid Pauli letter {letter!r}")
            if letter in ("X", "Y"):
                xs.append(qubit)
            if letter in ("Z", "Y"):
                zs.append(qubit)
        return cls(xs, zs)

    @classmethod
    def x_on(cls, qubits: Iterable[Qubit]) -> "PauliOp":
        """Pure-X operator on an iterable of qubit labels.

        Qubit labels are often tuples (lattice coordinates), so a single
        qubit must be wrapped: ``PauliOp.x_on([(1, 1)])``.
        """
        return cls(tuple(qubits), ())

    @classmethod
    def z_on(cls, qubits: Iterable[Qubit]) -> "PauliOp":
        """Pure-Z operator on an iterable of qubit labels (see :meth:`x_on`)."""
        return cls((), tuple(qubits))

    @classmethod
    def identity(cls) -> "PauliOp":
        return cls((), ())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def x_support(self) -> frozenset[Qubit]:
        return self._xs

    @property
    def z_support(self) -> frozenset[Qubit]:
        return self._zs

    @property
    def support(self) -> frozenset[Qubit]:
        """All qubits acted on non-trivially."""
        return self._xs | self._zs

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return len(self.support)

    def is_identity(self) -> bool:
        return not self._xs and not self._zs

    def is_x_type(self) -> bool:
        """Only X components (CSS X-type)."""
        return not self._zs

    def is_z_type(self) -> bool:
        """Only Z components (CSS Z-type)."""
        return not self._xs

    def letter(self, qubit: Qubit) -> str:
        """The single-qubit Pauli letter at ``qubit``."""
        x = qubit in self._xs
        z = qubit in self._zs
        if x and z:
            return "Y"
        if x:
            return "X"
        if z:
            return "Z"
        return "I"

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __mul__(self, other: "PauliOp") -> "PauliOp":
        """Phase-free Pauli product (XOR of supports)."""
        if not isinstance(other, PauliOp):
            return NotImplemented
        return PauliOp(self._xs ^ other._xs, self._zs ^ other._zs)

    def commutes_with(self, other: "PauliOp") -> bool:
        """True iff the two operators commute."""
        return symplectic_product(self, other) == 0

    def restricted_to(self, qubits: Iterable[Qubit]) -> "PauliOp":
        """The operator with support clipped to ``qubits``."""
        keep = set(qubits)
        return PauliOp(self._xs & keep, self._zs & keep)

    def to_symplectic(self, qubit_order: list[Qubit]) -> np.ndarray:
        """Dense ``[x | z]`` binary-symplectic row for the given ordering."""
        n = len(qubit_order)
        row = np.zeros(2 * n, dtype=np.uint8)
        index = {q: i for i, q in enumerate(qubit_order)}
        for q in self._xs:
            if q in index:
                row[index[q]] = 1
        for q in self._zs:
            if q in index:
                row[n + index[q]] = 1
        return row

    @classmethod
    def from_symplectic(cls, row: np.ndarray, qubit_order: list[Qubit]) -> "PauliOp":
        """Inverse of :meth:`to_symplectic`."""
        n = len(qubit_order)
        row = np.asarray(row, dtype=np.uint8).reshape(-1)
        if row.shape[0] != 2 * n:
            raise ValueError("symplectic row length must be twice the qubit count")
        xs = [qubit_order[i] for i in np.nonzero(row[:n])[0]]
        zs = [qubit_order[i] for i in np.nonzero(row[n:])[0]]
        return cls(xs, zs)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, PauliOp):
            return NotImplemented
        return self._xs == other._xs and self._zs == other._zs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        terms = []
        for q in sorted(self.support, key=repr):
            terms.append(f"{self.letter(q)}{q}")
        body = " ".join(terms) if terms else "I"
        return f"PauliOp({body})"


def symplectic_product(a: PauliOp, b: PauliOp) -> int:
    """Symplectic inner product: 0 when ``a`` and ``b`` commute, 1 otherwise."""
    anti = len(a.x_support & b.z_support) + len(a.z_support & b.x_support)
    return anti % 2


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """Convenience wrapper for ``a.commutes_with(b)``."""
    return symplectic_product(a, b) == 0


def overlap_index(ops: Iterable[PauliOp]) -> dict[Qubit, list[int]]:
    """Qubit → positions of the ``ops`` acting on it, in ascending order.

    Operators on disjoint supports always commute, so a commutation scan
    against ``ops`` only needs the positions listed under the qubits of
    the probe's support; every other operator commutes with it.
    """
    index: dict[Qubit, list[int]] = {}
    for position, op in enumerate(ops):
        for q in op.support:
            index.setdefault(q, []).append(position)
    return index
