"""Matching decoders over the one batch pipeline.

Three methods share the :class:`repro.decode.base.Decoder` front-end
(canonicalisation, zero-syndrome fast path, ``np.unique``
deduplication, syndrome LRU, forked-pool sharding, packed-bitplane
input), and every one of them decodes *lists* of cache-missing
syndromes through :meth:`MatchingDecoder._decode_misses` — a single
shot from ``decode()`` is a batch of one, a forked worker decodes its
whole shard in one call:

* ``"blossom"`` — exact minimum-weight perfect matching on the defect
  graph, run by the vectorised pipeline
  (:func:`repro.decode.batch.decode_blossom_batch`): stacked route
  gathers, one :func:`~scipy.sparse.csgraph.connected_components` call
  over the batch, size-bucketed stacked subset DPs, and a native
  matching engine for oversize components.  Each defect matches
  another defect or routes to the virtual boundary.  The ``matcher``
  constructor option picks that engine: ``"sparse"`` (default) grows
  match regions on sparse candidate edges
  (:mod:`repro.decode.sparse_match`) and repairs against the dual
  certificate, ``"dense"`` feeds the complete component graph to
  :mod:`repro.decode.blossom`.  Both optimise the identical objective;
  among equal-weight ties they may pick different matchings.
* ``"greedy"`` — nearest-neighbour greedy matching on the same route
  tables; fast, slightly suboptimal, kept as the cheapest baseline.
* ``"uf"`` — the almost-linear union-find decoder
  (:class:`repro.decode.uf.UnionFindDecoder`).

Pair costs come from the decoding graph's route tables
(:meth:`~repro.decode.graph.DecodingGraph.batch_tables`): whole-graph
tables at or under the matrix limit, per-batch tables above it — the
methods never see the difference.  The reference formulations — the
seed's per-shot Dijkstra with its ``2k``-node boundary-copy blossom,
the serial per-shot matrix decoder (the pipeline's bit-identity
reference), and the objective-value query ``matching_weight`` — live in
``tests/decode_oracles.py``, where the agreement suites pin total
weights everywhere and predictions wherever the optimum is unique.
"""

from __future__ import annotations

import numpy as np

from repro.decode.base import DEFAULT_CACHE_SIZE, Decoder
from repro.decode.batch import DP_DEFECT_LIMIT, _dp_tables, decode_blossom_batch
from repro.decode.blossom import min_weight_perfect_matching
from repro.decode.graph import DecodingGraph, RouteTables
from repro.decode.sparse_match import SPARSE_MIN_DEFECTS, sparse_match_parity
from repro.decode.uf import UnionFindDecoder
from repro.sim.dem import DetectorErrorModel

__all__ = ["MatchingDecoder"]


class MatchingDecoder(Decoder):
    """Decode detector samples to observable-flip predictions."""

    METHODS = ("blossom", "greedy", "uf")
    #: Matching engines for oversize components: ``"sparse"`` (the
    #: region-growing engine of :mod:`repro.decode.sparse_match`,
    #: default) or ``"dense"`` (the complete-graph blossom).  Both are
    #: exact; among equal-weight optima they may return different
    #: matchings.
    MATCHERS = ("sparse", "dense")

    def __init__(
        self,
        dem: DetectorErrorModel,
        *,
        method: str = "blossom",
        matcher: str = "sparse",
        cache_size: int = DEFAULT_CACHE_SIZE,
        workers: int | None = None,
    ) -> None:
        if method not in self.METHODS:
            raise ValueError(f"method must be one of {self.METHODS}")
        if matcher not in self.MATCHERS:
            raise ValueError(f"matcher must be one of {self.MATCHERS}")
        super().__init__(
            DecodingGraph(dem), cache_size=cache_size, workers=workers
        )
        self.method = method
        self.matcher = matcher
        # Largest component the subset DPs keep: the sparse engine
        # takes over right above the stacked-DP ceiling; the dense
        # path keeps the level-batched DP up to the historical limit
        # before switching to the complete-graph blossom.
        self._dp_cutoff = (
            SPARSE_MIN_DEFECTS - 1 if matcher == "sparse" else DP_DEFECT_LIMIT
        )
        # The union-find helper shares this decoder's cache, so its own
        # is disabled.
        self._uf = (
            UnionFindDecoder(self.graph, cache_size=0)
            if method == "uf"
            else None
        )

    # -- Decoder contract ----------------------------------------------
    def _decode_misses(self, defect_sets: list[tuple[int, ...]]) -> np.ndarray:
        if self._uf is not None:
            return self._uf._decode_misses(defect_sets)
        if self.method == "greedy":
            out = np.zeros(len(defect_sets), dtype=np.uint8)
            for rows, tables, local_sets in self.graph.batch_tables(
                defect_sets
            ):
                out[rows] = [_greedy_parity(tables, d) for d in local_sets]
                del tables  # one sub-batch's tables alive at a time
            return out
        return decode_blossom_batch(self, defect_sets)

    def _prepare_fork(self) -> None:
        # Whole-graph tables are built once, before forking, and shared
        # copy-on-write; per-batch tables are each worker's own work.
        if self._uf is None and self.graph.uses_whole_tables:
            self.graph.ensure_route_tables()

    def _lookup(self, defects: tuple[int, ...]):
        """Pairwise/boundary distance and parity arrays for a defect set.

        Reads the whole-graph tables; the window decoder's graphs are
        under the matrix limit by construction.
        """
        dist, par = self.graph.ensure_matrices()
        idx = np.fromiter(defects, dtype=np.int64, count=len(defects))
        b_col = self.graph.boundary_index
        return (
            dist[np.ix_(idx, idx)],
            par[np.ix_(idx, idx)],
            dist[idx, b_col],
            par[idx, b_col],
        )

    # -- matching engines the pipeline dispatches to -------------------
    def _match_oversize(
        self, k, W, use_pair, P, b_dist, b_par, seeds=None
    ) -> int:
        """Matching-engine dispatch for components past the DP cutoff.

        The seam the pipeline calls for every oversize component:
        ``matcher="sparse"`` grows the component on
        candidate edges (:func:`repro.decode.sparse_match.
        sparse_match_parity`), ``matcher="dense"`` keeps the
        complete-graph blossom.  ``seeds`` is an optional pre-computed
        ``(ei, ej)`` candidate seed for the sparse engine — the batch
        pipeline computes the kNN seeds of every same-size component in
        one stacked pass and hands them through here; the dense engine
        needs no setup and ignores it.
        """
        if self.matcher == "sparse":
            return sparse_match_parity(
                k, W, use_pair, P, b_dist, b_par, seeds=seeds
            )
        return self._blossom_match(k, W, use_pair, P, b_dist, b_par)

    @staticmethod
    def _reduced_cost(k, W, b_dist):
        """Dense engine cost matrix of one reduced component.

        The ``k`` defects with pair costs ``W``, plus — when ``k`` is
        odd — one virtual boundary node at column ``k`` that can absorb
        the odd defect at its boundary distance.  Shared by decoding
        (:meth:`_blossom_match`), the window decoder's route extraction
        and the objective-value oracle in ``tests/decode_oracles.py``,
        so the formulations cannot drift.
        """
        n = k + (k % 2)
        cost = np.full((n, n), np.inf)
        cost[:k, :k] = W
        np.fill_diagonal(cost, np.inf)
        if n > k:
            cost[:k, k] = cost[k, :k] = b_dist
        return n, cost

    @staticmethod
    def _blossom_match(k, W, use_pair, P, b_dist, b_par) -> int:
        """Native blossom matching on a reduced component (large sets).

        Builds the dense cost matrix of the reduced component — the
        ``k`` defects plus, when ``k`` is odd, one virtual boundary
        node absorbing the odd defect — and hands it to the exact
        engine.  Defects the engine leaves unmatched (no finite edge
        reaches them) route alone to the boundary when possible,
        matching the seed's unmatched behaviour.
        """
        n, cost = MatchingDecoder._reduced_cost(k, W, b_dist)
        mate, _ = min_weight_perfect_matching(cost)
        parity = 0
        for i in range(k):
            j = mate[i]
            if j == k:  # the odd defect routed to the boundary
                parity ^= int(b_par[i])
            elif j < 0:  # disconnected leftovers route alone
                if np.isfinite(b_dist[i]):
                    parity ^= int(b_par[i])
            elif i < j:
                if use_pair[i, j]:
                    parity ^= int(P[i, j])
                else:
                    parity ^= int(b_par[i]) ^ int(b_par[j])
        return parity

    @staticmethod
    def _dp_match_vec(k, W, use_pair, P, b_dist, b_par) -> int:
        """Vectorised subset DP: one batched argmin per popcount level.

        ``f[mask]`` is the optimal cost of resolving the defect subset
        ``mask``; its lowest defect either pairs with another member
        (cost ``W``, the pair/boundary-route minimum), routes to the
        boundary alone, or dangles.  A dangling (unmatched) defect costs
        more than any achievable matching, reproducing the seed's
        max-cardinality-first objective.  All masks of equal popcount
        are processed as one numpy gather + ``argmin`` over the shared
        per-``k`` transition tables from
        :func:`repro.decode.batch._dp_tables`; ties prefer the pair
        route, then the lowest partner index.  The pipeline runs this
        per component past the stacked-DP ceiling.
        """
        route_par = np.where(use_pair, P, b_par[:, None] ^ b_par[None, :])
        finite_w = np.isfinite(W)
        finite_b = np.isfinite(b_dist)
        dangle = (
            1.0
            + float(W[finite_w].sum() if finite_w.any() else 0.0)
            + float(b_dist[finite_b].sum() if finite_b.any() else 0.0)
        )
        cost_flat = np.concatenate(
            [W.reshape(-1), np.where(finite_b, b_dist, np.inf), [dangle]]
        )
        par_flat = np.concatenate(
            [
                route_par.reshape(-1).astype(np.uint8),
                np.asarray(b_par, dtype=np.uint8),
                [0],
            ]
        )
        f = np.zeros(1 << k)
        g = np.zeros(1 << k, dtype=np.uint8)
        for masks, cost_idx, other_idx in _dp_tables(k):
            costs = cost_flat[cost_idx] + f[other_idx]
            choice = np.argmin(costs, axis=1)
            rows = np.arange(len(masks))
            f[masks] = costs[rows, choice]
            g[masks] = (
                par_flat[cost_idx[rows, choice]] ^ g[other_idx[rows, choice]]
            )
        return int(g[(1 << k) - 1])


def _greedy_parity(tables: RouteTables, defects: tuple[int, ...]) -> int:
    """Nearest-neighbour greedy matching of one set on route tables.

    Candidate ordering (pairs in index order, then boundary routes;
    stable sort by distance) matches the seed implementation.
    """
    idx = np.fromiter(defects, dtype=np.int64, count=len(defects))
    sub = np.ix_(idx, idx)
    D, P = tables.dist[sub], tables.parity[sub]
    b_dist, b_par = tables.b_dist[idx], tables.b_par[idx]
    k = len(defects)
    remaining = set(range(k))
    candidates: list[tuple[float, int, int]] = []
    for i in range(k):
        for j in range(i + 1, k):
            if np.isfinite(D[i, j]):
                candidates.append((float(D[i, j]), i, j))
    for i in range(k):
        if np.isfinite(b_dist[i]):
            candidates.append((float(b_dist[i]), i, -1))
    candidates.sort(key=lambda item: item[0])
    parity = 0
    for _w, i, j in candidates:
        if i not in remaining:
            continue
        if j == -1:
            remaining.discard(i)
            parity ^= int(b_par[i])
        elif j in remaining:
            remaining.discard(i)
            remaining.discard(j)
            parity ^= int(P[i, j])
    for i in remaining:  # unmatched leftovers go to the boundary
        if np.isfinite(b_dist[i]):
            parity ^= int(b_par[i])
    return parity
