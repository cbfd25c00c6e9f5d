"""Reference decode formulations the agreement suites pin against.

The product decode path is one batch pipeline
(:func:`repro.decode.batch.decode_blossom_batch`) reading route tables
from the decoding graph.  The formulations it replaced live here, as
test oracles only:

* :class:`SeedDecoder` — the seed implementation: a heap-based
  per-source Dijkstra over a dict-of-dicts adjacency, the ``2k``-node
  boundary-copy blossom (each defect may pair with another defect or
  its own boundary copy; boundary copies pair off freely at zero
  cost), and path parities walked edge by edge; plus its
  nearest-neighbour greedy variant.  ``benchmarks/perf_report.py``
  times it as the ``blossom_legacy`` record.
* :class:`SerialMatrixDecoder` — the serial per-shot matrix decoder:
  whole-graph matrix lookups, a BFS over each shot's pairable graph,
  and one scalar subset DP (or the decoder's own oversize engine) per
  component.  The pipeline must reproduce it bit for bit.
* :func:`matching_weight` — the optimal total route weight of one
  shot, computed by any of four formulations, so backends can be
  compared on the objective value even where the optimum is
  degenerate.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.decode import MatchingDecoder
from repro.decode.base import Decoder
from repro.decode.batch import DP_SCALAR_LIMIT
from repro.decode.blossom import min_weight_perfect_matching
from repro.decode.graph import DecodingGraph
from repro.decode.sparse_match import region_candidates, sparse_match
from repro.sim.dem import DetectorErrorModel

__all__ = ["SeedDecoder", "SerialMatrixDecoder", "matching_weight"]

BOUNDARY = "boundary"


class SeedDecoder(Decoder):
    """The seed's per-shot-Dijkstra decoder (``"blossom"``/``"greedy"``).

    Built on the same merged edges as :class:`DecodingGraph` (the merge
    rule is pinned separately), held as a dict-of-dicts adjacency with
    a ``"boundary"`` string node.  Shortest paths are cached per
    source, as the seed did.
    """

    def __init__(
        self,
        dem: DetectorErrorModel,
        *,
        method: str = "blossom",
        cache_size: int = 0,
    ) -> None:
        if method not in ("blossom", "greedy"):
            raise ValueError("method must be 'blossom' or 'greedy'")
        super().__init__(DecodingGraph(dem), cache_size=cache_size)
        self.method = method
        graph = self.graph
        adj: dict = {node: {} for node in range(graph.num_detectors)}
        adj[BOUNDARY] = {}
        us, vs = graph.edge_endpoints
        for u, v, w, obs in zip(
            us.tolist(),
            vs.tolist(),
            graph.edge_weights.tolist(),
            graph.edge_parities.tolist(),
            strict=True,
        ):
            if v == graph.boundary_index:
                v = BOUNDARY
            attrs = {"weight": w, "observable": bool(obs)}
            adj[u][v] = attrs
            adj[v][u] = attrs
        self.adjacency = adj
        self._path_cache: dict = {}

    def shortest(self, source) -> tuple[dict, dict]:
        """Dijkstra distances and node paths from ``source`` (cached)."""
        if source not in self._path_cache:
            dist: dict = {source: 0.0}
            prev: dict = {}
            seen: set = set()
            counter = 0  # heap tie-breaker; nodes mix ints and strings
            heap: list = [(0.0, counter, source)]
            while heap:
                d, _, node = heapq.heappop(heap)
                if node in seen:
                    continue
                seen.add(node)
                for nbr, attrs in self.adjacency[node].items():
                    cand = d + attrs["weight"]
                    if cand < dist.get(nbr, math.inf):
                        dist[nbr] = cand
                        prev[nbr] = node
                        counter += 1
                        heapq.heappush(heap, (cand, counter, nbr))
            path: dict = {}
            for node in dist:
                walk = [node]
                while walk[-1] != source:
                    walk.append(prev[walk[-1]])
                walk.reverse()
                path[node] = walk
            self._path_cache[source] = (dist, path)
        return self._path_cache[source]

    def path_observable_parity(self, path: list) -> int:
        """XOR of edge observable bits along a node path."""
        parity = 0
        for u, v in zip(path, path[1:], strict=False):
            if self.adjacency[u][v]["observable"]:
                parity ^= 1
        return parity

    def pairwise(self, defects: list[int]):
        """Distances/paths between defects and to the boundary."""
        dists: dict[tuple[int, int], float] = {}
        paths: dict[tuple[int, int], list] = {}
        boundary_dist: dict[int, float] = {}
        boundary_path: dict[int, list] = {}
        for i, d in enumerate(defects):
            dist, path = self.shortest(d)
            for other in defects[i + 1 :]:
                if other in dist:
                    dists[(d, other)] = dist[other]
                    paths[(d, other)] = path[other]
            if BOUNDARY in dist:
                boundary_dist[d] = dist[BOUNDARY]
                boundary_path[d] = path[BOUNDARY]
        return dists, paths, boundary_dist, boundary_path

    @staticmethod
    def blossom_matching(defects, dists, b_dist):
        """Max-cardinality min-weight matching on the ``2k``-node graph.

        Each defect node ``("d", i)`` may pair with another defect or
        its own boundary copy ``("b", i)``; boundary copies pair off
        freely at zero cost.  Returns node-tuple pairs.
        """
        k = len(defects)
        index = {d: i for i, d in enumerate(defects)}
        with_boundary = [d for d in defects if d in b_dist]
        n = k + len(with_boundary)
        cost = np.full((n, n), np.inf)
        for (a, b), w in dists.items():
            cost[index[a], index[b]] = cost[index[b], index[a]] = w
        for bi, d in enumerate(with_boundary):
            cost[index[d], k + bi] = cost[k + bi, index[d]] = b_dist[d]
            for bj in range(bi + 1, len(with_boundary)):
                cost[k + bi, k + bj] = cost[k + bj, k + bi] = 0.0
        mate, _ = min_weight_perfect_matching(cost)
        names = [("d", d) for d in defects] + [
            ("b", d) for d in with_boundary
        ]
        return {
            (names[u], names[v])
            for u in range(n)
            if (v := mate[u]) > u
        }

    def _decode_defects(self, defects: tuple[int, ...]) -> int:
        if self.method == "greedy":
            return self._decode_greedy(list(defects))
        return self._decode_blossom(list(defects))

    def _decode_blossom(self, defects: list[int]) -> int:
        dists, paths, b_dist, b_path = self.pairwise(defects)
        parity = 0
        for u, v in self.blossom_matching(defects, dists, b_dist):
            if u[0] == "d" and v[0] == "d":
                a, b = sorted((u[1], v[1]))
                parity ^= self.path_observable_parity(paths[(a, b)])
            elif u[0] != v[0]:
                defect = u[1] if u[0] == "d" else v[1]
                # Matched to a boundary copy (its own or another's):
                # either way the defect routes to the boundary.
                parity ^= self.path_observable_parity(b_path[defect])
        return parity

    def _decode_greedy(self, defects: list[int]) -> int:
        dists, paths, b_dist, b_path = self.pairwise(defects)
        remaining = set(defects)
        candidates: list[tuple[float, int, int | None]] = []
        for (a, b), w in dists.items():
            candidates.append((w, a, b))
        for d, w in b_dist.items():
            candidates.append((w, d, None))
        candidates.sort(key=lambda item: item[0])
        parity = 0
        for _w, a, b in candidates:
            if a not in remaining:
                continue
            if b is None:
                remaining.discard(a)
                parity ^= self.path_observable_parity(b_path[a])
            elif b in remaining:
                remaining.discard(a)
                remaining.discard(b)
                key = (a, b) if (a, b) in paths else (b, a)
                parity ^= self.path_observable_parity(paths[key])
        for d in remaining:  # unmatched leftovers go to the boundary
            if d in b_path:
                parity ^= self.path_observable_parity(b_path[d])
        return parity

    def seed_weight(self, defects: list[int]) -> float:
        """Total route weight of the ``2k``-node matching."""
        dists, _, b_dist, _ = self.pairwise(defects)
        total = 0.0
        for u, v in self.blossom_matching(defects, dists, b_dist):
            if u[0] == "d" and v[0] == "d":
                a, b = sorted((u[1], v[1]))
                total += dists[(a, b)]
            elif u[0] != v[0]:
                total += b_dist[u[1] if u[0] == "d" else v[1]]
        return total


class SerialMatrixDecoder(MatchingDecoder):
    """The serial per-shot matrix decoder (blossom method).

    One shot at a time on the whole-graph matrices: two exact
    reductions of the seed's ``2k``-node formulation — a complete
    graph over the ``k`` defects with pair cost ``min(d(a,b),
    b(a)+b(b))`` plus one virtual boundary node, decomposed into the
    connected components of the ``d ≤ b+b`` graph — then a scalar
    subset DP, the decoder's level-batched DP or its oversize engine
    per component.  Equal-weight ties between the pair route and the
    two-boundary route resolve to the pair route.
    """

    def _decode_misses(self, defect_sets):
        return np.fromiter(
            (self._decode_serial(d) for d in defect_sets),
            dtype=np.uint8,
            count=len(defect_sets),
        )

    def _decode_serial(self, defects: tuple[int, ...]) -> int:
        D, P, b_dist, b_par = self._lookup(defects)
        k = len(defects)
        if k == 1:
            return int(b_par[0]) if np.isfinite(b_dist[0]) else 0
        # Dijkstra rows are computed independently, so D is symmetric
        # only up to float rounding; symmetrise before comparing with
        # the boundary route.
        D = np.minimum(D, D.T)
        via_boundary = b_dist[:, None] + b_dist[None, :]
        W = np.minimum(D, via_boundary)
        use_pair = D <= via_boundary
        if k == 2:
            return self._match_component(
                [0, 1], W, use_pair, P, b_dist, b_par
            )
        if k <= DP_SCALAR_LIMIT:
            return dp_match(k, W, use_pair, P, b_dist, b_par)
        pairable = use_pair & np.isfinite(D)
        np.fill_diagonal(pairable, False)
        parity = 0
        unassigned = np.ones(k, dtype=bool)
        for start in range(k):
            if not unassigned[start]:
                continue
            # BFS one component of the pairable graph.
            members = np.zeros(k, dtype=bool)
            members[start] = True
            frontier = members
            while frontier.any():
                reached = pairable[frontier].any(axis=0) & ~members
                members |= reached
                frontier = reached
            unassigned &= ~members
            comp = np.nonzero(members)[0]
            if len(comp) == 1:
                i = int(comp[0])
                if np.isfinite(b_dist[i]):
                    parity ^= int(b_par[i])
            else:
                parity ^= self._match_component(
                    comp, W, use_pair, P, b_dist, b_par
                )
        return parity

    def _match_component(self, comp, W, use_pair, P, b_dist, b_par) -> int:
        """Optimal routing parity of one pairable component."""
        n = len(comp)
        if n == 2:
            i, j = int(comp[0]), int(comp[1])
            if not np.isfinite(W[i, j]):
                # Disconnected pair: each routes to the boundary alone
                # (or dangles, matching the seed's unmatched behaviour).
                parity = 0
                for a in (i, j):
                    if np.isfinite(b_dist[a]):
                        parity ^= int(b_par[a])
                return parity
            return int(P[i, j]) if use_pair[i, j] else int(b_par[i] ^ b_par[j])
        idx = np.asarray(comp, dtype=np.int64)
        sub = np.ix_(idx, idx)
        if n <= DP_SCALAR_LIMIT:
            matcher = dp_match
        elif n <= self._dp_cutoff:
            matcher = self._dp_match_vec
        else:
            matcher = self._match_oversize
        return matcher(
            n, W[sub], use_pair[sub], P[sub], b_dist[idx], b_par[idx]
        )


def dp_match(k, W, use_pair, P, b_dist, b_par) -> int:
    """Exact minimum-weight matching parity by scalar subset DP.

    ``f[mask]`` is the optimal cost of resolving the defect subset
    ``mask``; the lowest defect in the mask either pairs with another
    member (cost ``W``, the pair/boundary-route minimum) or routes to
    the boundary alone.  A dangling (unmatched) defect costs more than
    any achievable matching, reproducing the seed's
    max-cardinality-first objective.  Ties prefer the pair route, then
    the lowest partner index.
    """
    route_par = np.where(use_pair, P, b_par[:, None] ^ b_par[None, :])
    cost_rows = W.tolist()
    par_rows = route_par.tolist()
    bound_cost = [
        float(b_dist[i]) if np.isfinite(b_dist[i]) else np.inf
        for i in range(k)
    ]
    bound_par = [int(b_par[i]) for i in range(k)]
    finite_w = np.isfinite(W)
    dangle = 1.0 + float(W[finite_w].sum() if finite_w.any() else 0.0)
    dangle += float(sum(c for c in bound_cost if c < np.inf))
    size = 1 << k
    f = [0.0] * size
    g = [0] * size
    for mask in range(1, size):
        low_bit = mask & -mask
        i = low_bit.bit_length() - 1
        rest = mask ^ low_bit
        row_cost = cost_rows[i]
        row_par = par_rows[i]
        best = np.inf
        best_par = 0
        m = rest
        while m:
            j_bit = m & -m
            m ^= j_bit
            other = rest ^ j_bit
            cost = row_cost[j_bit.bit_length() - 1] + f[other]
            if cost < best:
                best = cost
                best_par = row_par[j_bit.bit_length() - 1] ^ g[other]
        cost = bound_cost[i] + f[rest]
        if cost < best:
            best = cost
            best_par = bound_par[i] ^ g[rest]
        cost = dangle + f[rest]
        if cost < best:
            best = cost
            best_par = g[rest]
        f[mask] = best
        g[mask] = best_par
    return g[size - 1]


def dp_weight(k, W, b_dist) -> float:
    """Total route weight by subset DP (same recurrence as
    :func:`dp_match`, tracking real cost instead of parity)."""
    cost_rows = W.tolist()
    bound_cost = [
        float(b_dist[i]) if np.isfinite(b_dist[i]) else np.inf
        for i in range(k)
    ]
    finite_w = np.isfinite(W)
    dangle = 1.0 + float(W[finite_w].sum() if finite_w.any() else 0.0)
    dangle += float(sum(c for c in bound_cost if c < np.inf))
    size = 1 << k
    f = [0.0] * size
    h = [0.0] * size  # real route weight of the optimum for mask
    for mask in range(1, size):
        low_bit = mask & -mask
        i = low_bit.bit_length() - 1
        rest = mask ^ low_bit
        row_cost = cost_rows[i]
        best = np.inf
        best_real = 0.0
        m = rest
        while m:
            j_bit = m & -m
            m ^= j_bit
            other = rest ^ j_bit
            w = row_cost[j_bit.bit_length() - 1]
            cost = w + f[other]
            if cost < best:
                best = cost
                best_real = w + h[other]
        cost = bound_cost[i] + f[rest]
        if cost < best:
            best = cost
            best_real = bound_cost[i] + h[rest]
        cost = dangle + f[rest]
        if cost < best:
            best = cost
            best_real = h[rest]
        f[mask] = best
        h[mask] = best_real
    return h[size - 1]


def matching_weight(
    decoder: MatchingDecoder, sample: np.ndarray, *, matcher: str = "blossom"
) -> float:
    """Optimal total route weight of one shot's matching.

    All exact backends optimise the same objective — the summed
    log-likelihood weight of every chosen route (defect–defect paths
    and boundary routes; unmatchable defects contribute nothing) — so
    this value is backend-independent even when the optimal matching
    itself is degenerate.  ``matcher`` selects the formulation:

    * ``"blossom"`` — the dense engine on the reduced defect graph (no
      component decomposition, so the value covers the whole defect
      set at once),
    * ``"sparse"`` — the region-growing engine on candidate edges grown
      over the decoding graph
      (:func:`repro.decode.sparse_match.region_candidates`), never
      materialising the dense defect graph,
    * ``"dp"`` — the scalar subset DP (exponential in the defect
      count; test-sized syndromes only),
    * ``"legacy"`` — the seed's ``2k``-node boundary-copy formulation
      on per-shot Dijkstra distances (:class:`SeedDecoder`).
    """
    if matcher not in ("blossom", "sparse", "dp", "legacy"):
        raise ValueError("matcher must be 'blossom', 'sparse', 'dp' or 'legacy'")
    nonzero = np.nonzero(np.asarray(sample))[0]
    defects = tuple(int(d) for d in nonzero if d < decoder.num_detectors)
    if not defects:
        return 0.0
    if matcher == "legacy":
        return SeedDecoder(decoder.graph.dem).seed_weight(list(defects))
    D, _, b_dist, _ = decoder._lookup(defects)
    k = len(defects)
    if k == 1:
        return float(b_dist[0]) if np.isfinite(b_dist[0]) else 0.0
    D = np.minimum(D, D.T)
    W = np.minimum(D, b_dist[:, None] + b_dist[None, :])
    if matcher == "dp":
        return dp_weight(k, W, b_dist)
    if matcher == "sparse":
        seeds = region_candidates(decoder.graph, np.asarray(defects))
        mate, total = sparse_match(W, b_dist, seeds=seeds)
    else:
        _, cost = MatchingDecoder._reduced_cost(k, W, b_dist)
        mate, total = min_weight_perfect_matching(cost)
    for i in range(k):  # disconnected leftovers route alone
        if mate[i] < 0 and np.isfinite(b_dist[i]):
            total += float(b_dist[i])
    return float(total)
