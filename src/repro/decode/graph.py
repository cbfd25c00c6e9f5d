"""Weighted decoding graph and the route tables matching reads.

Nodes are detector indices plus a virtual boundary node (index
``num_detectors``); each graphlike mechanism (one or two flipped
detectors) becomes an edge whose weight is the log-likelihood ratio
``ln((1−p)/p)`` and which carries the observable-flip parity of the
underlying physical error.  Parallel mechanisms between the same
endpoints are merged: probabilities combine as independent channels
(``p ← p₁(1−p₂) + p₂(1−p₁)``) while the observable parity is taken
from the *likeliest single channel* — the "dominant channel wins"
rule.  (The seed implementation compared each new channel against the
running combined probability, so the winner depended on insertion
order; the rule is now order-independent and pinned by a test.)  The
merged graph is kept as compact numpy edge arrays
(:attr:`DecodingGraph.edge_endpoints`, ``edge_weights``,
``edge_parities``) plus a cached CSR adjacency.

Matching never runs a per-shot Dijkstra.  It reads pair costs from
:class:`RouteTables` — distances, path parities and the derived
pair/boundary route costs over ``m + 1`` local nodes, boundary last —
and :meth:`DecodingGraph.batch_tables` alone decides where a batch's
tables come from:

* **whole-graph tables** at or under :data:`MATRIX_NODE_LIMIT` nodes:
  all-pairs tables over every detector, built once per graph and
  cached (and adoptable from the artifact store through
  :meth:`~DecodingGraph.adopt_matrices`).  Local index = detector
  index.
* **per-batch tables** above the limit: the same routine run from only
  the batch's distinct defects plus the boundary.  Each sub-batch holds
  at most ``MATRIX_NODE_LIMIT − 1`` distinct defects, so per-batch
  tables are never larger than the whole-graph tables the limit
  allows; a single syndrome above that cap gets a sub-batch of its
  own.  The Dijkstra runs without a distance ``limit``, so every
  per-batch entry equals the whole-graph entry exactly.

Both kinds come from :meth:`DecodingGraph._paths`: a
``scipy.sparse.csgraph.dijkstra`` with predecessors over blocks of
sources (no intermediate exceeds block × nodes), whose path parities
are derived by pointer doubling — start with each node's one-hop
parity to its predecessor (looked up in a sorted edge-key index), then
repeatedly square the ancestor pointers while XORing parities, so a
block costs O(block · n log n) vectorised byte ops.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.sim.dem import DetectorErrorModel

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

#: Above this many nodes (detectors + boundary) no whole-graph tables
#: are built; each batch gets per-batch tables over its own defects.
MATRIX_NODE_LIMIT = 4096

#: Edge probabilities are clamped into ``[_MIN_P, 0.5 − _MIN_P]`` so
#: every weight is finite and positive.
_MIN_P = 1e-12

#: Cap on ``block × nodes`` elements per Dijkstra source block.
_BLOCK_ELEMENTS = 1 << 21

__all__ = ["DecodingGraph", "RouteTables", "MATRIX_NODE_LIMIT"]


class RouteTables(NamedTuple):
    """Pair costs over ``m + 1`` local nodes, the boundary last.

    ``dist[i, j]`` is the shortest-path weight from local node ``i``
    to ``j`` (``inf`` when unreachable; rows are independent Dijkstra
    runs, so symmetric only up to float rounding) and ``parity[i, j]``
    the observable parity of that path.  ``W`` is the symmetrised pair
    cost floored by the two-boundary route, ``use_pair`` whether the
    pair route wins (ties prefer the pair), ``pairable`` the
    finite-pair adjacency with the diagonal cleared, and ``b_dist``/
    ``b_par`` the boundary column of ``dist``/``parity``.
    """

    dist: np.ndarray
    parity: np.ndarray
    W: np.ndarray
    use_pair: np.ndarray
    pairable: np.ndarray
    b_dist: np.ndarray
    b_par: np.ndarray

    @classmethod
    def from_paths(cls, dist: np.ndarray, parity: np.ndarray) -> RouteTables:
        """Derive the route costs from distance/parity tables."""
        boundary = len(dist) - 1
        b_dist = np.ascontiguousarray(dist[:, boundary])
        b_par = np.ascontiguousarray(parity[:, boundary])
        d_sym = np.minimum(dist, dist.T)
        via = b_dist[:, None] + b_dist[None, :]
        use_pair = d_sym <= via
        pairable = use_pair & np.isfinite(d_sym)
        np.fill_diagonal(pairable, False)
        return cls(
            dist,
            parity,
            np.minimum(d_sym, via),
            use_pair,
            pairable,
            b_dist,
            b_par,
        )


class DecodingGraph:
    """Matching graph over detectors and the route tables it serves."""

    def __init__(self, dem: DetectorErrorModel) -> None:
        if dem.num_observables != 1:
            raise ValueError(
                "decoding needs a DEM with exactly one observable, got "
                f"{dem.num_observables}"
            )
        self.dem = dem
        self.num_detectors = dem.num_detectors
        self.boundary_index = dem.num_detectors

        # (u, v) with u < v, boundary = num_detectors
        #   -> [combined probability, best single-channel p, its parity]
        combined: dict[tuple[int, int], list] = {}
        for mech in dem.graphlike():
            if len(mech.detectors) == 1:
                key = (mech.detectors[0], self.boundary_index)
            else:
                a, b = sorted(mech.detectors)
                key = (a, b)
            entry = combined.get(key)
            if entry is None:
                combined[key] = [
                    mech.probability,
                    mech.probability,
                    mech.observable_flip,
                ]
            else:
                entry[0] = (
                    entry[0] + mech.probability - 2 * entry[0] * mech.probability
                )
                if mech.probability > entry[1]:
                    entry[1] = mech.probability
                    entry[2] = mech.observable_flip
        weights: list[float] = []
        for p, _, _ in combined.values():
            p = min(max(p, _MIN_P), 0.5 - _MIN_P)
            weights.append(math.log((1 - p) / p))
        ends = np.array(list(combined), dtype=np.int64).reshape(-1, 2)
        self.edge_endpoints = (ends[:, 0].copy(), ends[:, 1].copy())
        self.edge_weights = np.array(weights, dtype=np.float64)
        self.edge_parities = np.array(
            [1 if obs else 0 for _, _, obs in combined.values()],
            dtype=np.uint8,
        )
        self._matrices: tuple[np.ndarray, np.ndarray] | None = None
        self._route_tables: RouteTables | None = None
        self._csr = None

    # -- whole-graph tables --------------------------------------------
    @property
    def uses_whole_tables(self) -> bool:
        """Whether batches read the cached whole-graph tables."""
        return self.num_detectors + 1 <= MATRIX_NODE_LIMIT

    def ensure_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Whole-graph distance and parity tables, built on first use.

        Returns ``(dist, parity)`` with shape ``(n+1, n+1)`` where index
        ``n`` is the boundary (see :class:`RouteTables`).
        """
        if self._matrices is None:
            self._matrices = self._build_matrices()
        return self._matrices

    def adopt_matrices(self, dist: np.ndarray, parity: np.ndarray) -> bool:
        """Install precomputed whole-graph tables (artifact-cache path).

        Shapes and dtypes are validated against this graph — matrices
        from a store keyed on a different configuration are refused (and
        the graph falls back to building its own), never installed
        blindly.  Returns whether the matrices were adopted.
        """
        n1 = self.num_detectors + 1
        dist = np.asarray(dist)
        parity = np.asarray(parity)
        if (
            dist.shape != (n1, n1)
            or parity.shape != (n1, n1)
            or dist.dtype != np.float64
            or parity.dtype != np.uint8
        ):
            return False
        self._matrices = (dist, parity)
        self._route_tables = None
        return True

    def ensure_route_tables(self) -> RouteTables:
        """Whole-graph :class:`RouteTables`, derived once per graph."""
        if self._route_tables is None:
            self._route_tables = RouteTables.from_paths(*self.ensure_matrices())
        return self._route_tables

    def _build_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return self._paths(np.arange(self.num_detectors + 1))

    # -- per-batch tables ----------------------------------------------
    def batch_tables(
        self, defect_sets: Sequence[tuple[int, ...]]
    ) -> Iterator[tuple[np.ndarray, RouteTables, Sequence[tuple[int, ...]]]]:
        """Route tables for a batch of defect sets, sub-batch by sub-batch.

        Yields ``(rows, tables, local_sets)``: ``rows`` index the
        sub-batch's sets in ``defect_sets``, and ``local_sets`` are
        those sets in the tables' local node indices (ascending
        detector order is preserved, so tie-breaking by index is
        unchanged).  At or under :data:`MATRIX_NODE_LIMIT` this is one
        sub-batch on the whole-graph tables; above it, per-batch tables
        are built over at most ``MATRIX_NODE_LIMIT − 1`` distinct
        defects at a time.  Callers should drop each sub-batch's tables
        before asking for the next, so only one set is alive.
        """
        if self.uses_whole_tables:
            yield (
                np.arange(len(defect_sets)),
                self.ensure_route_tables(),
                defect_sets,
            )
            return
        for rows in _sub_batches(defect_sets, MATRIX_NODE_LIMIT - 1):
            sets = [defect_sets[i] for i in rows]
            flat = np.fromiter(
                (d for ds in sets for d in ds),
                dtype=np.int64,
                count=sum(len(ds) for ds in sets),
            )
            nodes = np.unique(flat)
            local = np.searchsorted(nodes, flat).tolist()
            local_sets = []
            start = 0
            for ds in sets:
                local_sets.append(tuple(local[start : start + len(ds)]))
                start += len(ds)
            yield (
                np.asarray(rows, dtype=np.int64),
                RouteTables.from_paths(
                    *self._paths(np.append(nodes, self.boundary_index))
                ),
                local_sets,
            )

    # -- the one shortest-path routine ---------------------------------
    def _paths(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and path parities among ``nodes`` (as sources and
        targets), ``(len(nodes), len(nodes))`` each.

        Sources run in blocks; each block's Dijkstra rows are
        independent of the others, so any node subset gets exactly the
        entries the all-sources call would.
        """
        from scipy.sparse.csgraph import dijkstra

        n1 = self.num_detectors + 1
        m = len(nodes)
        whole = m == n1
        dist = np.empty((m, m))
        parity = np.empty((m, m), dtype=np.uint8)
        adj = self.ensure_csr()
        # Sorted ``u·n1 + v`` keys (both directions) -> edge parity.
        us, vs = self.edge_endpoints
        keys = np.concatenate([us * n1 + vs, vs * n1 + us])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        key_par = np.concatenate([self.edge_parities, self.edge_parities])[order]
        cols = np.arange(n1)
        block = max(1, _BLOCK_ELEMENTS // n1)
        for start in range(0, m, block):
            stop = min(start + block, m)
            d, preds = dijkstra(
                adj,
                directed=False,
                indices=nodes[start:stop],
                return_predecessors=True,
            )
            anc = preds.astype(np.int64)
            del preds
            has_pred = anc >= 0  # else source itself or unreachable
            par = np.zeros(anc.shape, dtype=np.uint8)
            hop = (anc * n1 + cols)[has_pred]  # edge pred(t) -> t
            par[has_pred] = key_par[np.searchsorted(keys, hop)]
            anc[~has_pred] = np.broadcast_to(cols, anc.shape)[~has_pred]
            del has_pred
            # Pointer doubling: par[s, t] accumulates the path parity
            # from t up 2^k ancestors per step; self-pointers carry
            # parity 0 so converged entries are XOR-stable.
            for _ in range(max(1, n1.bit_length())):
                par ^= np.take_along_axis(par, anc, axis=1)
                anc = np.take_along_axis(anc, anc, axis=1)
            del anc
            dist[start:stop] = d if whole else d[:, nodes]
            parity[start:stop] = par if whole else par[:, nodes]
        return dist, parity

    def ensure_csr(self) -> csr_matrix:
        """Sparse CSR adjacency over ``num_detectors + 1`` nodes, cached.

        One direction per edge (callers pass ``directed=False`` to the
        scipy graph routines, exactly as :meth:`_paths` does); index
        ``num_detectors`` is the boundary.  This is the structure the
        route tables and the sparse matcher's region growth
        (:func:`repro.decode.sparse_match.region_candidates`) walk.
        """
        if self._csr is None:
            from scipy.sparse import csr_matrix

            n1 = self.num_detectors + 1
            us, vs = self.edge_endpoints
            self._csr = csr_matrix(
                (self.edge_weights, (us, vs)), shape=(n1, n1)
            )
        return self._csr


def _sub_batches(
    defect_sets: Sequence[tuple[int, ...]], cap: int
) -> Iterator[list[int]]:
    """Consecutive runs of set indices with at most ``cap`` distinct
    defects each; a single set above ``cap`` forms a run of its own."""
    rows: list[int] = []
    seen: set[int] = set()
    for i, defects in enumerate(defect_sets):
        fresh = set(defects) - seen
        if rows and len(seen) + len(fresh) > cap:
            yield rows
            rows, seen = [], set()
            fresh = set(defects)
        rows.append(i)
        seen |= fresh
    if rows:
        yield rows
