"""Reference formulations the deformation layer's fast paths are pinned to.

* :func:`networkx_graph_distance` — the original doubled-graph code
  distance: a networkx detection multigraph, doubled on crossing edges,
  then one Dijkstra query from ``(v, 0)`` to ``(v, 1)`` per vertex.
* :func:`all_pairs_purge` and :func:`all_pairs_generator_violation` —
  commutation scans over every check/stabilizer and
  stabilizer/stabilizer pair, with no overlap index.

:func:`deformed_corpus` builds the seeded cosmic-ray corpus both oracle
suites run on, and :func:`logical_qubit_count` tells which of its codes
encode exactly one logical qubit.
"""

from __future__ import annotations

import functools

import networkx as nx
import numpy as np

from repro.baselines import asc_defect_removal
from repro.codes import SubsystemCode
from repro.defects import CosmicRayModel
from repro.deform import CodeDeformationUnit, defect_removal
from repro.pauli import commutes
from repro.surface import SurfacePatch, rotated_surface_code
from repro.utils import gf2_rank

_DETECTING_BASIS = {"Z": "X", "X": "Z"}


def detection_graph(code: SubsystemCode, logical_basis: str) -> nx.MultiGraph:
    """Matching graph of detecting-basis stabilizers.

    Vertices are the detecting-basis stabilizer generators plus a single
    virtual ``"boundary"`` vertex.  Each data qubit becomes an edge joining
    the generators whose support contains it (or the boundary when it is
    contained in exactly one).  Edges carry:

    * ``qubit`` — the data qubit label,
    * ``crossing`` — 1 when the qubit lies in the support of the tracked
      opposite-basis logical operator.
    """
    det_basis = _DETECTING_BASIS[logical_basis]
    opposite_logical = code.logical_x if logical_basis == "Z" else code.logical_z
    cross_support = (
        opposite_logical.x_support if det_basis == "X" else opposite_logical.z_support
    )

    generators = [
        (name, gen.pauli)
        for name, gen in code.stabilizers.items()
        if gen.basis == det_basis
    ]
    graph = nx.MultiGraph()
    graph.add_node("boundary")
    for name, _ in generators:
        graph.add_node(name)

    incidence: dict = {q: [] for q in code.data_qubits}
    for name, pauli in generators:
        support = pauli.x_support if det_basis == "X" else pauli.z_support
        for q in support:
            if q in incidence:
                incidence[q].append(name)

    for q, names in incidence.items():
        crossing = 1 if q in cross_support else 0
        if len(names) == 2:
            graph.add_edge(names[0], names[1], qubit=q, crossing=crossing)
        elif len(names) == 1:
            graph.add_edge(names[0], "boundary", qubit=q, crossing=crossing)
        elif len(names) == 0:
            if crossing:
                raise ValueError(
                    "logical representative passes through undetected "
                    f"qubit {q}; reroute the logical before computing "
                    "distance"
                )
        else:
            raise ValueError(
                f"qubit {q} is in {len(names)} {det_basis}-stabilizers; "
                "the matching-graph distance requires <= 2 "
                "(non-graphlike code)"
            )
    return graph


def networkx_graph_distance(code: SubsystemCode, logical_basis: str) -> int:
    """Minimum ``(v, 0) → (v, 1)`` Dijkstra distance over every vertex."""
    graph = detection_graph(code, logical_basis)

    doubled = nx.Graph()
    for u, v, data in graph.edges(data=True):
        flip = data["crossing"]
        for layer in (0, 1):
            doubled.add_edge((u, layer), (v, layer ^ flip), weight=1)

    best = np.inf
    for node in graph.nodes:
        source, target = (node, 0), (node, 1)
        if source not in doubled or target not in doubled:
            continue
        try:
            length = nx.shortest_path_length(doubled, source, target, weight="weight")
        except nx.NetworkXNoPath:
            continue
        best = min(best, length)
    if np.isinf(best):
        raise ValueError(f"no {logical_basis} logical cycle found")
    return int(best)


def all_pairs_purge(code: SubsystemCode) -> None:
    """Delete every check anticommuting with a stabilizer generator.

    Checks are visited in dict order and each is compared with every
    generator; a purged check still listed in a generator's
    ``measured_via`` raises ``RuntimeError`` (earlier purges stand).
    """
    stab_paulis = [g.pauli for g in code.stabilizers.values()]
    for name, check in list(code.checks.items()):
        if all(commutes(check.pauli, s) for s in stab_paulis):
            continue
        for gen in code.stabilizers.values():
            if name in gen.measured_via:
                raise RuntimeError(
                    f"check {name} anticommutes with a stabilizer but is "
                    f"required to measure {gen.name}"
                )
        del code.checks[name]


def all_pairs_generator_violation(code: SubsystemCode) -> str | None:
    """Message for the first anticommuting stabilizer pair in ``(i, j)`` order."""
    stabs = list(code.stabilizers.values())
    for i, gen_a in enumerate(stabs):
        for gen_b in stabs[i + 1 :]:
            if not commutes(gen_a.pauli, gen_b.pauli):
                return f"stabilizers {gen_a.name} and {gen_b.name} anticommute"
    return None


def logical_qubit_count(code: SubsystemCode) -> int:
    """``k = n - r - g`` from the ranks of the stabilizer and measured groups.

    ``r`` is the rank of the stabilizer generators and ``2g + r`` the rank
    of the measured checks (stabilizers are products of checks).
    """
    order = code.qubit_order()
    stabs = np.array([g.pauli.to_symplectic(order) for g in code.stabilizers.values()])
    checks = np.array([c.pauli.to_symplectic(order) for c in code.checks.values()])
    r = gf2_rank(stabs)
    gauge_qubits = (gf2_rank(checks) - r) // 2
    return len(order) - r - gauge_qubits


#: ``(d, cluster sizes)`` of the seeded corpus.
CORPUS_SIZES = {3: (1, 2), 5: (1, 3, 5), 7: (2, 5), 9: (3, 8)}
CORPUS_SEEDS = range(3)
#: How each cluster is removed: Algorithm 1 alone, the full deformation
#: unit (removal, then adaptive enlargement) and the ASC-S baseline.
CORPUS_POLICIES = ("removal", "unit", "asc_s")


@functools.cache
def deformed_corpus() -> tuple[tuple[str, SurfacePatch], ...]:
    """Seeded cosmic-ray clusters at d ∈ {3, 5, 7, 9}, each deformed by
    every policy in :data:`CORPUS_POLICIES`.

    Patterns that destroy the logical qubit are left out.  The corpus is
    built once per test process; callers must not mutate its patches.
    """
    corpus = []
    for d, sizes in CORPUS_SIZES.items():
        for size in sizes:
            for seed in CORPUS_SEEDS:
                template = rotated_surface_code(d)
                model = CosmicRayModel(seed=1000 * d + 10 * size + seed)
                defects = model.sample_defective_qubits(
                    template.all_qubit_coords(), size
                )
                for policy in CORPUS_POLICIES:
                    patch = rotated_surface_code(d)
                    try:
                        if policy == "removal":
                            defect_removal(patch, defects, compute_distances=False)
                        elif policy == "unit":
                            CodeDeformationUnit().deform(patch, defects)
                        else:
                            asc_defect_removal(patch, defects)
                    except (ValueError, RuntimeError):
                        continue
                    corpus.append((f"d{d}-k{size}-s{seed}-{policy}", patch))
    return tuple(corpus)
