"""Code distance of (deformed) CSS subsystem codes.

Two independent algorithms:

* :func:`brute_force_distance` — exact coset enumeration over GF(2);
  exponential, used for small codes and as a test oracle.
* :func:`graph_distance` — the matching-graph / odd-cycle method, exact
  whenever every data qubit participates in at most two stabilizer
  generators of the detecting basis.  All codes produced by Surf-Deformer
  deformations satisfy this, because super-stabilizers absorb the merged
  plaquettes.

Conventions: the **Z-distance** is the minimum weight of a Z-type logical
operator; Z errors are detected by **X-type** stabilizers.  Symmetrically
for the X-distance.  The full code distance is ``min(dX, dZ)``.

Two invariants make :func:`graph_distance` one sparse-graph call:

* **Unit weights.**  Every edge of the doubled detection graph is one
  data qubit, so path lengths are hop counts: an unweighted search over
  a CSR matrix gives the exact distance, and one
  ``scipy.sparse.csgraph.shortest_path`` call serves every source at
  once.
* **Crossing-edge sources.**  A minimum odd-crossing closed walk uses at
  least one crossing edge.  Started at that edge's endpoint ``u`` it is
  a ``(u, 0) → (u, 1)`` path of the same length, so the minimum over the
  endpoints of crossing edges equals the minimum over all vertices, and
  a code without crossing edges has no logical cycle.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.codes.subsystem import SubsystemCode
from repro.utils import gf2_independent_rows

__all__ = ["brute_force_distance", "graph_distance", "code_distance"]

_DETECTING_BASIS = {"Z": "X", "X": "Z"}


def brute_force_distance(code: SubsystemCode, logical_basis: str) -> int:
    """Exact dressed distance by enumerating the logical coset.

    The dressed ``logical_basis``-distance is the minimum weight of an
    operator in ``logical · <same-basis stabilizers and gauges>`` that
    commutes with all detecting-basis stabilizers.  Because the logical
    coset is an affine subspace, we enumerate
    ``logical ⊕ span(H_basis ∪ gauges)`` directly.

    Exponential in the number of same-basis generators — only use for
    codes with ≲ 20 of them.
    """
    if logical_basis not in ("X", "Z"):
        raise ValueError("logical_basis must be 'X' or 'Z'")
    order = code.qubit_order()
    index = {q: i for i, q in enumerate(order)}
    n = len(order)

    logical = code.logical_x if logical_basis == "X" else code.logical_z
    support = logical.x_support if logical_basis == "X" else logical.z_support
    logical_vec = np.zeros(n, dtype=np.uint8)
    for q in support:
        logical_vec[index[q]] = 1

    same_basis = code.parity_matrix(logical_basis, include_gauges=True)
    # Reduce to an independent generating set to bound the enumeration.
    keep = gf2_independent_rows(same_basis)
    gens = same_basis[keep]
    k = gens.shape[0]
    if k > 24:
        raise ValueError(f"brute force infeasible: {k} same-basis generators")

    best = int(logical_vec.sum())
    for r in range(1, k + 1):
        for combo in combinations(range(k), r):
            vec = logical_vec.copy()
            for idx in combo:
                vec ^= gens[idx]
            weight = int(vec.sum())
            if weight < best:
                best = weight
    return best


def graph_distance(code: SubsystemCode, logical_basis: str) -> int:
    """Dressed distance via minimum-weight odd ``crossing`` cycle.

    The detection graph has one vertex per detecting-basis stabilizer
    generator plus a virtual boundary vertex; each data qubit is an edge
    joining the generators whose support contains it (or the boundary
    when exactly one does).  A qubit is a *crossing* edge when it lies in
    the support of the tracked opposite-basis logical.

    A ``logical_basis`` error chain is undetectable iff the corresponding
    edge set has even degree at every real vertex (boundary degree is
    unconstrained).  Such a chain is a logical operator iff it
    anticommutes with the opposite logical, i.e. it uses an odd number of
    crossing edges.  The minimum-weight odd cycle is found in the
    standard doubled graph, where crossing edges change layer: it is the
    shortest ``(v, 0) → (v, 1)`` path over ``v`` (see the module
    docstring for why one unweighted search from the crossing-edge
    endpoints suffices).

    Raises ``ValueError`` when the code has no ``logical_basis`` logical
    cycle (callers such as :func:`repro.eval.yield_rate` count that as a
    destroyed patch), when a qubit lies in more than two detecting
    generators (non-graphlike code), and when the opposite logical passes
    through a qubit no detecting generator touches.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    det_basis = _DETECTING_BASIS[logical_basis]
    opposite_logical = code.logical_x if logical_basis == "Z" else code.logical_z
    cross_support = (
        opposite_logical.x_support if det_basis == "X" else opposite_logical.z_support
    )

    # Vertex 0 is the boundary; detecting generators follow in dict order.
    incidence: dict = {q: [] for q in code.data_qubits}
    n = 1
    for gen in code.stabilizers.values():
        if gen.basis != det_basis:
            continue
        support = gen.pauli.x_support if det_basis == "X" else gen.pauli.z_support
        for q in support:
            if q in incidence:
                incidence[q].append(n)
        n += 1

    heads: list[int] = []
    tails: list[int] = []
    flips: list[int] = []
    for q, ends in incidence.items():
        crossing = 1 if q in cross_support else 0
        if len(ends) == 2:
            heads.append(ends[0])
            tails.append(ends[1])
        elif len(ends) == 1:
            heads.append(ends[0])
            tails.append(0)
        elif len(ends) == 0:
            # Gauge qubit: no detecting stabilizer touches it, so errors on
            # it are pure gauge and never affect the logical.  The tracked
            # logical representative must have been rerouted off such
            # qubits by the deformation layer.
            if crossing:
                raise ValueError(
                    "logical representative passes through undetected "
                    f"qubit {q}; reroute the logical before computing "
                    "distance"
                )
            continue
        else:
            raise ValueError(
                f"qubit {q} is in {len(ends)} {det_basis}-stabilizers; "
                "the matching-graph distance requires <= 2 "
                "(non-graphlike code)"
            )
        flips.append(crossing)

    # Doubled graph: vertex (v, layer) is v + layer * n, and an edge
    # (u, v) joins (u, layer) to (v, layer ^ crossing).
    u = np.array(heads, dtype=np.intp)
    v = np.array(tails, dtype=np.intp)
    flip = np.array(flips, dtype=np.intp)
    rows = np.concatenate([u, u + n])
    cols = np.concatenate([v + flip * n, v + (1 - flip) * n])
    doubled = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * n, 2 * n))
    sources = np.unique(np.concatenate([u[flip == 1], v[flip == 1]]))
    best = np.inf
    if sources.size:
        dist = shortest_path(
            doubled, method="D", directed=False, unweighted=True, indices=sources
        )
        best = dist[np.arange(sources.size), sources + n].min()
    if np.isinf(best):
        raise ValueError(f"no {logical_basis} logical cycle found")
    return int(best)


def code_distance(code: SubsystemCode, *, exact: bool = False) -> tuple[int, int]:
    """``(X-distance, Z-distance)`` of the code.

    ``exact=True`` forces brute-force enumeration (test oracle);
    otherwise the graph method is used.
    """
    if exact:
        return (
            brute_force_distance(code, "X"),
            brute_force_distance(code, "Z"),
        )
    return graph_distance(code, "X"), graph_distance(code, "Z")
