"""The four Surf-Deformer deformation instructions (section IV, fig. 6).

============== ==============================================================
Instruction     Effect
============== ==============================================================
``DataQ_RM``    remove one interior data qubit; the two same-basis
                plaquettes on each side merge into super-stabilizers
                (fig. 6a — coincides with ASC-S's super-stabilizer move).
``SyndromeQ_RM``remove one interior syndrome (ancilla) qubit; its check is
                re-measured through single-qubit gauge operators on its
                data neighbours, and only the *opposite*-basis plaquettes
                merge (fig. 6b — preserves one basis' distance entirely).
``PatchQ_RM``   remove a boundary data or syndrome qubit by deforming the
                patch boundary, fixing the chosen basis (fig. 6c/8).
``PatchQ_ADD``  incorporate a new scale layer of qubits on one side of the
                patch (fig. 6d), used by adaptive enlargement.
============== ==============================================================

Each instruction is a composition of the atomic gauge transformations of
section II-C; logical representatives are rerouted (Theorem 5) before the
stabilizer group is modified, so the encoded state is preserved — the test
suite re-validates the Theorem-1/Definition-4 invariants after every call.
"""

from __future__ import annotations

from dataclasses import replace

from repro.codes import Check
from repro.codes.subsystem import SubsystemCode
from repro.deform.gauge import reroute_logical_off, s2s_merge, stabilizers_containing
from repro.pauli import PauliOp, commutes, overlap_index
from repro.surface.lattice import Coord, is_data_coord, is_face_coord
from repro.surface.patch import SurfacePatch, rotated_rect_patch

__all__ = ["data_q_rm", "syndrome_q_rm", "patch_q_rm", "patch_q_add_layer"]

_OPPOSITE = {"X": "Z", "Z": "X"}


# ----------------------------------------------------------------------
# Shared low-level steps
# ----------------------------------------------------------------------
def _truncate_checks(code: SubsystemCode, q0: Coord) -> None:
    """Drop ``q0`` from the support of every measured check.

    Checks reduced to identity are deleted and unreferenced from
    stabilizer decompositions (their contribution was exactly the removed
    qubit, which cancels against the paired generator truncation).
    """
    for name, check in list(code.checks.items()):
        if q0 not in check.pauli.support:
            continue
        new_support = check.pauli.support - {q0}
        if not new_support:
            del code.checks[name]
            _drop_check_reference(code, name)
        else:
            new_pauli = (
                PauliOp.x_on(new_support)
                if check.basis == "X"
                else PauliOp.z_on(new_support)
            )
            code.checks[name] = replace(check, pauli=new_pauli)


def _drop_check_reference(code: SubsystemCode, check_name: str) -> None:
    for gen in code.stabilizers.values():
        if check_name in gen.measured_via:
            gen.measured_via = tuple(n for n in gen.measured_via if n != check_name)


def _purge_anticommuting_checks(code: SubsystemCode) -> None:
    """Stop measuring checks that anticommute with a stabilizer generator.

    Measuring such an operator would randomise the stabilizer it
    anticommutes with; the boundary-deformation instructions sacrifice
    these checks deliberately.  It is an internal error for a purged check
    to still appear in a stabilizer decomposition.  Only generators
    sharing a qubit with a check can anticommute with it.
    """
    stab_paulis = [g.pauli for g in code.stabilizers.values()]
    sharing = overlap_index(stab_paulis)
    for name, check in list(code.checks.items()):
        nearby = {j for q in check.pauli.support for j in sharing.get(q, ())}
        if all(commutes(check.pauli, stab_paulis[j]) for j in nearby):
            continue
        for gen in code.stabilizers.values():
            if name in gen.measured_via:
                raise RuntimeError(
                    f"check {name} anticommutes with a stabilizer but is "
                    f"required to measure {gen.name}"
                )
        del code.checks[name]


def _remove_data_qubit(patch: SurfacePatch, q0: Coord) -> None:
    code = patch.code
    _truncate_checks(code, q0)
    code.data_qubits.discard(q0)
    patch.defective_data.add(q0)
    for name, gen in list(code.stabilizers.items()):
        if gen.pauli.is_identity():
            del code.stabilizers[name]


# ----------------------------------------------------------------------
# DataQ_RM
# ----------------------------------------------------------------------
def data_q_rm(patch: SurfacePatch, q0: Coord) -> None:
    """Remove the interior data qubit at ``q0`` (fig. 6a).

    Gauge-transformation content: four S2G introduce the anticommuting
    pair ``X_q0, Z_q0`` (turning the four touching plaquettes into gauge
    operators), four G2G strip ``q0`` from those gauge operators, and the
    plaquette pairs re-enter the stabilizer group as the two
    super-stabilizers ``s1·s2`` and ``g1·g2``.
    """
    code = patch.code
    if q0 not in code.data_qubits:
        raise ValueError(f"{q0} is not an active data qubit")
    reroute_logical_off(code, {q0}, "X")
    reroute_logical_off(code, {q0}, "Z")
    for basis in ("X", "Z"):
        gens = stabilizers_containing(code, q0, basis)
        if len(gens) == 2:
            s2s_merge(code, [g.name for g in gens])
        elif len(gens) == 1:
            raise ValueError(
                f"{q0} touches only one {basis} stabilizer — a boundary "
                "qubit; use PatchQ_RM"
            )
    _remove_data_qubit(patch, q0)


# ----------------------------------------------------------------------
# SyndromeQ_RM
# ----------------------------------------------------------------------
def syndrome_q_rm(patch: SurfacePatch, a0: Coord) -> None:
    """Remove the interior syndrome qubit (ancilla) at face ``a0`` (fig. 6b).

    The check measured by ``a0`` survives as a stabilizer: it is inferred
    from new single-qubit gauge measurements on its data neighbours.  The
    opposite-basis plaquettes touching those neighbours merge into one
    super-stabilizer (the octagon of fig. 6b), so only the opposite
    basis' distance is reduced — the key advantage over ASC-S's
    four-``DataQ_RM`` treatment (fig. 7a).
    """
    code = patch.code
    c0 = patch.check_at(a0)
    if c0 is None:
        raise ValueError(f"no active check uses ancilla {a0}")
    basis = c0.basis
    other = _OPPOSITE[basis]
    neighbors = sorted(c0.pauli.support)

    reroute_logical_off(code, set(neighbors), "X")
    reroute_logical_off(code, set(neighbors), "Z")

    # The opposite-basis generators touching the neighbours lose their
    # individual determinism once the single-qubit gauges are measured;
    # only products whose support excludes the neighbours survive.
    # Merge per connected component (generators linked by a shared
    # neighbour) — the clean interior case gives exactly the fig. 6(b)
    # octagon; components whose product still touches a neighbour are
    # demoted to pure gauge.
    affected = {
        gen.name: gen
        for q in neighbors
        for gen in stabilizers_containing(code, q, other)
    }
    components = _components_by_shared_qubits(affected, set(neighbors))
    for component in components:  # validate everything before mutating
        product = PauliOp.identity()
        for name in component:
            product = product * affected[name].pauli
        if product.support & set(neighbors):
            # No product of the touched generators avoids the gauge
            # qubits: the clean inference of fig. 6(b) does not exist
            # here (dense defect cluster).  Callers fall back to the
            # super-stabilizer treatment.
            raise ValueError(
                f"SyndromeQ_RM at {a0}: opposite-basis generators cannot "
                "be re-inferred around the gauge qubits"
            )
    for component in components:
        if len(component) >= 2:
            s2s_merge(code, sorted(component))

    gauge_names = []
    for q in neighbors:
        gname = code.fresh_name(f"{basis.lower()}g")
        pauli = PauliOp.x_on([q]) if basis == "X" else PauliOp.z_on([q])
        code.checks[gname] = Check(pauli=pauli, basis=basis, name=gname, ancilla=None)
        gauge_names.append(gname)

    del code.checks[c0.name]
    for gen in code.stabilizers.values():
        if c0.name in gen.measured_via:
            via = set(gen.measured_via)
            via.discard(c0.name)
            via |= set(gauge_names)
            gen.measured_via = tuple(sorted(via))

    patch.defective_ancillas.add(a0)
    _purge_anticommuting_checks(code)


# ----------------------------------------------------------------------
# PatchQ_RM
# ----------------------------------------------------------------------
def _components_by_shared_qubits(
    gens: dict, qubits: set
) -> list[set[str]]:
    """Connected components of generators linked through ``qubits``."""
    by_qubit: dict = {}
    for name, gen in gens.items():
        for q in gen.pauli.support & qubits:
            by_qubit.setdefault(q, []).append(name)
    parent = {name: name for name in gens}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for names in by_qubit.values():
        for other in names[1:]:
            parent[find(other)] = find(names[0])
    groups: dict = {}
    for name in gens:
        groups.setdefault(find(name), set()).add(name)
    return list(groups.values())


def patch_q_rm(patch: SurfacePatch, q0: Coord, fix_basis: str | None = None) -> None:
    """Remove a boundary qubit by deforming the patch boundary (fig. 6c).

    For a **data** qubit, ``fix_basis`` selects which single-qubit
    operator is fixed as a stabilizer (fig. 8): fixing ``Z`` keeps the
    Z-type checks (truncated) as stabilizers and sacrifices the
    anticommuting X-type plaquette, receding the X-check boundary; and
    vice versa.  When ``fix_basis`` is omitted it defaults to the
    boundary type the qubit sits on (west/east → Z, north/south → X);
    corner qubits should be decided by :func:`repro.deform.balancing`.

    For a **syndrome** qubit (boundary half-check ancilla), the
    half-check is simply disabled — there is no intact ancilla left that
    could infer it.
    """
    code = patch.code
    if is_face_coord(q0):
        _disable_check(patch, q0)
        return
    if not is_data_coord(q0) or q0 not in code.data_qubits:
        raise ValueError(f"{q0} is not an active lattice qubit")

    if fix_basis is None:
        sides = patch.data_sides(q0)
        if not sides:
            raise ValueError(f"{q0} is interior; use DataQ_RM")
        side = next(iter(sides))
        fix_basis = "Z" if side in ("w", "e") else "X"
    if fix_basis not in ("X", "Z"):
        raise ValueError("fix_basis must be 'X' or 'Z'")
    sacrifice = _OPPOSITE[fix_basis]

    reroute_logical_off(code, {q0}, "X")
    reroute_logical_off(code, {q0}, "Z")

    gens = stabilizers_containing(code, q0, sacrifice)
    if len(gens) >= 2:
        s2s_merge(code, [g.name for g in gens])
    elif len(gens) == 1:
        del code.stabilizers[gens[0].name]

    for gen in stabilizers_containing(code, q0, fix_basis):
        new_support = gen.pauli.support - {q0}
        gen.pauli = (
            PauliOp.x_on(new_support)
            if fix_basis == "X"
            else PauliOp.z_on(new_support)
        )

    _remove_data_qubit(patch, q0)
    _purge_anticommuting_checks(code)


def _disable_check(patch: SurfacePatch, a0: Coord) -> None:
    """Disable the check whose ancilla is at ``a0`` (boundary syndrome defect).

    A data qubit whose *only* same-basis stabilizer coverage flows through
    this check would be left with an undetectable weight-1 error, so such
    orphans are excised first by deforming the boundary around them
    (``PatchQ_RM`` sacrificing this very check — fig. 6c's removal of the
    boundary syndrome q5 together with its orphaned data qubits).
    """
    code = patch.code
    check = patch.check_at(a0)
    patch.defective_ancillas.add(a0)
    if check is None:
        return
    basis = check.basis
    for q in sorted(check.pauli.support):
        gens = stabilizers_containing(code, q, basis)
        if gens and all(check.name in g.measured_via for g in gens):
            patch_q_rm(patch, q, fix_basis=_OPPOSITE[basis])
            if patch.check_at(a0) is None:
                return
    check = patch.check_at(a0)
    if check is None:
        return
    for name, gen in list(code.stabilizers.items()):
        if check.name in gen.measured_via:
            del code.stabilizers[name]
    del code.checks[check.name]


# ----------------------------------------------------------------------
# PatchQ_ADD
# ----------------------------------------------------------------------
def patch_q_add_layer(patch: SurfacePatch, side: str) -> list[Coord]:
    """Incorporate one scale layer of new qubits on ``side`` (fig. 6d/9).

    New data qubits are initialised in ``|0⟩`` for west/east growth (the
    new single-qubit ``Z`` stabilizers merge into the extended patch) and
    ``|+⟩`` for north/south growth, then the regular lattice over the
    enlarged bounding box is measured.  Previously removed defective
    qubits that fall inside the new footprint are re-included by the
    rebuild and **must be re-excluded by the caller** — Algorithm 2 runs
    the Defect Removal subroutine on the returned list (fig. 9's
    "temporarily disregard, then exclude" step).

    Returns the physical qubit coordinates (data and ancilla) inside the
    new footprint that are known defective.
    """
    if side not in ("n", "s", "e", "w"):
        raise ValueError("side must be one of 'n', 's', 'e', 'w'")
    # Grow from the design footprint, not the (possibly dented) active
    # bounds, so fully-defective layers are not re-grown forever.
    min_x, min_y, max_x, max_y = patch.footprint
    if side == "e":
        max_x += 2
    elif side == "w":
        min_x -= 2
    elif side == "n":
        max_y += 2
    else:
        min_y -= 2

    origin = (min_x - 1, min_y - 1)
    width = (max_x - min_x) // 2 + 1
    height = (max_y - min_y) // 2 + 1
    fresh = rotated_rect_patch(width, height, origin, target_d=patch.d)

    patch.code = fresh.code
    patch.origin = origin
    patch.footprint = (min_x, min_y, max_x, max_y)

    pending: list[Coord] = [
        q for q in sorted(patch.defective_data) if q in patch.code.data_qubits
    ]
    pending += [
        a for a in sorted(patch.defective_ancillas) if patch.check_at(a) is not None
    ]
    return pending
