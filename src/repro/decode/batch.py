"""The blossom decode pipeline: every cache-missing syndrome runs here.

:meth:`MatchingDecoder._decode_misses` hands this module every list of
unique syndromes — a single shot from ``decode()`` as a batch of one,
a forked worker's whole shard, or a full batch — on any graph size.
The decoding graph supplies :class:`~repro.decode.graph.RouteTables`
per sub-batch (whole-graph tables at or under the matrix limit,
per-batch tables above it, see
:meth:`~repro.decode.graph.DecodingGraph.batch_tables`) and the
pipeline reads only those tables:

1. **Stacked lookups** — syndromes are grouped by defect count ``k``
   and their pair costs, parities and boundary routes gathered as
   ``(group, k, k)`` tensors in a handful of fancy-indexing calls.
2. **Batch component labelling** — the pairable edges of every
   syndrome are block-stacked into one sparse adjacency over all
   defect occurrences and labelled with a single
   :func:`scipy.sparse.csgraph.connected_components` call (edges never
   cross syndromes, so labels respect syndrome boundaries by
   construction).  A pair with ``d(a,b) > b(a)+b(b)`` is never matched
   directly (two boundary routes are at most as expensive), so
   components decode independently.
3. **Size-class bucketing** — components are bucketed by size:
   singletons and pairs resolve with pure array ops, mid-size
   components run the subset DP *stacked* (one gather + ``argmin`` per
   popcount level for every same-size component simultaneously), and
   only components beyond the decoder's DP cutoff
   (``MatchingDecoder._dp_cutoff`` — the stacked-DP ceiling for the
   sparse matcher, :data:`DP_DEFECT_LIMIT` for the dense one) fall
   through to the decoder's oversize matching engine
   (``MatchingDecoder._match_oversize``: the sparse region-growing
   engine by default, the dense blossom under ``matcher="dense"``).

Ties resolve deterministically: the DPs prefer the pair route and then
the lowest partner index, so repeated runs return the same matching.
The serial per-shot formulation of the same algorithm is a test oracle
(``tests/decode_oracles.py``) that pins these predictions bit for bit.
"""

from __future__ import annotations

import numpy as np

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.decode import blossom as _blossom
from repro.decode.blossom import kernel_backend

if TYPE_CHECKING:
    from repro.decode.graph import RouteTables
    from repro.decode.mwpm import MatchingDecoder

__all__ = [
    "DP_SCALAR_LIMIT",
    "DP_DEFECT_LIMIT",
    "decode_blossom_batch",
]

#: Sets of up to ``DP_SCALAR_LIMIT`` defects run one whole-set subset DP
#: without decomposition; the dense matcher keeps components up to
#: ``DP_DEFECT_LIMIT`` defects on the level-batched DP.
DP_SCALAR_LIMIT = 7
DP_DEFECT_LIMIT = 14

#: Cap on ``group × k²`` gather elements per edge-construction chunk;
#: bounds peak memory to tens of MB.
_BATCH_ELEMENT_LIMIT = 1 << 22

#: Largest component size the *stacked* DP handles; beyond it the
#: per-level gathers (``chunk × C(k, k/2) × k/2`` floats) overflow the
#: CPU cache and the per-component level-batched DP
#: (``MatchingDecoder._dp_match_vec``) — whose working set is one
#: component's ``2^k`` table — is measurably faster per component.
_DP_STACK_MAX = 11

#: Cap on ``chunk × 2**k`` stacked-DP table elements; keeps each
#: level's gather within cache (the sweet spot measured on the d=7
#: benchmark: chunks of 64–512 components depending on ``k``).
_DP_CHUNK_ELEMENTS = 1 << 16

# Per-defect-count transition tables for the vectorised subset DP,
# shared across decoders (built once per k, a few MB total).
_DP_TABLES: dict[int, list] = {}


def _dp_tables(k: int) -> list:
    """Level-batched transition tables for the k-defect subset DP.

    For every defect-subset mask, the lowest member ``i`` either pairs
    with another member ``j``, routes to the boundary, or dangles.  All
    masks of equal popcount ``c`` have exactly ``c + 1`` transitions,
    so each level is three dense ``(num_masks, c + 1)`` index arrays:

    * ``cost_idx`` into the flat cost vector ``[W (k²), boundary (k),
      dangle (1)]`` (parities share the same layout),
    * ``other_idx`` — the submask the transition recurses into,
    * ``masks`` — the DP slots this level writes.

    Transition order is pairs by ascending ``j``, then boundary, then
    dangle, so ``argmin`` tie-breaking matches the scalar DP.
    """
    tables = _DP_TABLES.get(k)
    if tables is not None:
        return tables
    from itertools import combinations

    tables = []
    boundary_base = k * k
    dangle_idx = k * k + k
    for c in range(1, k + 1):
        masks = []
        cost_idx = []
        other_idx = []
        for members in combinations(range(k), c):
            mask = 0
            for m in members:
                mask |= 1 << m
            i = members[0]
            rest = mask ^ (1 << i)
            row_cost = []
            row_other = []
            for j in members[1:]:
                row_cost.append(i * k + j)
                row_other.append(rest ^ (1 << j))
            row_cost.append(boundary_base + i)
            row_other.append(rest)
            row_cost.append(dangle_idx)
            row_other.append(rest)
            masks.append(mask)
            cost_idx.append(row_cost)
            other_idx.append(row_other)
        tables.append(
            (
                np.array(masks, dtype=np.int64),
                np.array(cost_idx, dtype=np.int64),
                np.array(other_idx, dtype=np.int64),
            )
        )
    _DP_TABLES[k] = tables
    return tables


def _gather(tables, det):
    """Stacked route arrays for ``(batch, k)`` defect index rows.

    Returns ``(W, use_pair, pairable, P, b_dist, b_par)`` for every
    row: distances symmetrised (Dijkstra rows round independently),
    pair cost floored by the two-boundary route, ``use_pair``
    preferring the pair on ties.  The arithmetic lives in the
    :class:`~repro.decode.graph.RouteTables` the graph handed out;
    this is four flat gathers sharing one index array, so the per-call
    cost is memory traffic only.
    """
    idx = det[:, :, None] * len(tables.b_dist) + det[:, None, :]
    return (
        tables.W.ravel()[idx],
        tables.use_pair.ravel()[idx],
        tables.pairable.ravel()[idx],
        tables.parity.ravel()[idx],
        tables.b_dist[det],
        tables.b_par[det],
    )


def _pairable(tables, det):
    """Just the pairable-adjacency mask of :func:`_gather`.

    Edge construction only needs ``d ≤ b(a)+b(b)`` and finiteness;
    gathering one bool table instead of six arrays keeps the
    decomposition stage's fancy-indexing volume minimal.
    """
    idx = det[:, :, None] * len(tables.b_dist) + det[:, None, :]
    return tables.pairable.ravel()[idx]


def _dp_flatten(k, W, use_pair, P, b_dist, b_par):
    """Flat ``[pair | boundary | dangle]`` transition vectors.

    The layout both DP backends index: ``cost_flat`` holds the k²
    route costs, the k boundary costs and the dangle penalty per
    component; ``par_flat`` the matching parities.  The dangle
    reduction happens *here*, in numpy, for both backends — its float
    summation order decides last-ulp values, and sharing the vectors
    is what makes the compiled DP bit-identical to the Python loop.
    """
    batch = W.shape[0]
    route_par = np.where(
        use_pair, P, b_par[:, :, None] ^ b_par[:, None, :]
    ).astype(np.uint8)
    finite_b = np.isfinite(b_dist)
    # The per-component DP reduces the finite entries with
    # differently-grouped sums; the value only needs to exceed every
    # achievable matching cost (it is selected solely for stranded
    # defects, where every alternative is +inf), so the vectorised
    # reduction's last-ulp differences cannot change predictions.
    dangle = (
        1.0
        + np.where(np.isfinite(W), W, 0.0).sum(axis=(1, 2))
        + np.where(finite_b, b_dist, 0.0).sum(axis=1)
    )
    cost_flat = np.concatenate(
        [
            W.reshape(batch, -1),
            np.where(finite_b, b_dist, np.inf),
            dangle[:, None],
        ],
        axis=1,
    )
    par_flat = np.concatenate(
        [
            route_par.reshape(batch, -1),
            b_par.astype(np.uint8),
            np.zeros((batch, 1), dtype=np.uint8),
        ],
        axis=1,
    )
    return cost_flat, par_flat


def _dp_match_batch(k, W, use_pair, P, b_dist, b_par) -> np.ndarray:
    """Stacked subset DP over ``(batch, k, k)`` component arrays.

    Identical recurrence, transition tables and tie-breaking as the
    per-component ``MatchingDecoder._dp_match_vec``; the only new axis
    is the leading batch dimension.  The flat transition vectors are
    always prepared by :func:`_dp_flatten`; the recurrence itself runs
    in ``_cblossom.dp_match_batch`` when the compiled kernel is loaded
    and in the pinned numpy fallback (:func:`_dp_match_batch_py`)
    otherwise — the C loop replicates the level loop's transition
    order and first-minimum ``argmin`` tie-breaking, so both backends
    return bit-identical parities.
    """
    cost_flat, par_flat = _dp_flatten(k, W, use_pair, P, b_dist, b_par)
    kernel = _blossom._KERNEL
    if kernel is not None:
        out = np.empty(len(cost_flat), dtype=np.uint8)
        kernel.dp_match_batch(
            len(cost_flat),
            int(k),
            np.ascontiguousarray(cost_flat, dtype=np.float64),
            np.ascontiguousarray(par_flat, dtype=np.uint8),
            out,
        )
        return out
    return _dp_match_batch_py(k, cost_flat, par_flat)


def _dp_match_batch_py(k, cost_flat, par_flat) -> np.ndarray:
    """The numpy level loop over pre-flattened transition vectors.

    Pinned fallback for the compiled DP (and the reference the
    identity tests compare it against): one gather + ``argmin`` per
    popcount level resolves every same-size component simultaneously.
    """
    batch = len(cost_flat)
    f = np.zeros((batch, 1 << k))
    g = np.zeros((batch, 1 << k), dtype=np.uint8)
    rows = None
    for masks, cost_idx, other_idx in _dp_tables(k):
        costs = cost_flat[:, cost_idx] + f[:, other_idx]
        choice = np.argmin(costs, axis=2)
        if rows is None or rows.shape[1] != len(masks):
            rows = np.arange(len(masks))[None, :]
        f[:, masks] = np.take_along_axis(costs, choice[:, :, None], axis=2)[
            :, :, 0
        ]
        g[:, masks] = np.take_along_axis(
            par_flat, cost_idx[rows, choice], axis=1
        ) ^ np.take_along_axis(g, other_idx[rows, choice], axis=1)
    return g[:, (1 << k) - 1]


def _dp_bucket(decoder, tables, out, syn_ids, det) -> None:
    """Run one same-size DP bucket (chunked) and XOR results into out.

    Sizes up to :data:`_DP_STACK_MAX` run the stacked DP in cache-sized
    chunks; larger ones loop the level-batched DP per component
    (identical recurrence — see :data:`_DP_STACK_MAX`).
    """
    k = det.shape[1]
    if k > _DP_STACK_MAX:
        W, use_pair, _, P, b_dist, b_par = _gather(tables, det)
        results = np.fromiter(
            (
                decoder._dp_match_vec(
                    k, W[i], use_pair[i], P[i], b_dist[i], b_par[i]
                )
                for i in range(len(det))
            ),
            dtype=np.uint8,
            count=len(det),
        )
        np.bitwise_xor.at(out, syn_ids, results)
        return
    chunk = max(1, _DP_CHUNK_ELEMENTS >> k)
    for start in range(0, len(det), chunk):
        sl = slice(start, start + chunk)
        W, use_pair, _, P, b_dist, b_par = _gather(tables, det[sl])
        np.bitwise_xor.at(
            out,
            syn_ids[sl],
            _dp_match_batch(k, W, use_pair, P, b_dist, b_par),
        )


def decode_blossom_batch(
    decoder: MatchingDecoder, defect_sets: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """Predictions for a list of unique nonempty defect tuples.

    The one blossom entry point, for any number of sets: the graph
    hands out route tables sub-batch by sub-batch
    (:meth:`~repro.decode.graph.DecodingGraph.batch_tables`) and each
    sub-batch runs the pipeline on its tables alone.
    """
    out = np.zeros(len(defect_sets), dtype=np.uint8)
    for rows, tables, local_sets in decoder.graph.batch_tables(defect_sets):
        out[rows] = _decode_on_tables(decoder, tables, local_sets)
        del tables  # one sub-batch's tables alive at a time
    return out


def _decode_on_tables(
    decoder: MatchingDecoder,
    tables: RouteTables,
    defect_sets: Sequence[tuple[int, ...]],
) -> np.ndarray:
    """The pipeline over defect sets given in ``tables``' local indices."""
    num = len(defect_sets)
    out = np.zeros(num, dtype=np.uint8)
    if num == 0:
        return out
    W_full, up_full, par = tables.W, tables.use_pair, tables.parity
    b_dist_all, b_par_all = tables.b_dist, tables.b_par
    counts = np.fromiter(
        (len(d) for d in defect_sets), dtype=np.int64, count=num
    )
    flat_det = np.fromiter(
        (d for ds in defect_sets for d in ds),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    offsets = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    # --- k == 1: lone defect routes to the boundary when reachable.
    ones = np.nonzero(counts == 1)[0]
    if ones.size:
        det = flat_det[offsets[ones]]
        out[ones] = np.where(np.isfinite(b_dist_all[det]), b_par_all[det], 0)

    # --- k == 2: pair route, two boundary routes, or stranded.
    twos = np.nonzero(counts == 2)[0]
    if twos.size:
        a = flat_det[offsets[twos]]
        b = flat_det[offsets[twos] + 1]
        pair_or_via = np.where(
            up_full[a, b], par[a, b], b_par_all[a] ^ b_par_all[b]
        )
        alone = np.where(np.isfinite(b_dist_all[a]), b_par_all[a], 0) ^ (
            np.where(np.isfinite(b_dist_all[b]), b_par_all[b], 0)
        )
        out[twos] = np.where(np.isfinite(W_full[a, b]), pair_or_via, alone)

    # --- 3 ≤ k ≤ DP_SCALAR_LIMIT: whole-set subset DP, no
    # decomposition (a small set gains nothing from it).
    for k in range(3, DP_SCALAR_LIMIT + 1):
        rows = np.nonzero(counts == k)[0]
        if rows.size:
            det = flat_det[offsets[rows, None] + np.arange(k)[None, :]]
            _dp_bucket(decoder, tables, out, rows, det)

    # --- k > DP_SCALAR_LIMIT: decompose every syndrome's pairable
    # graph in one block-stacked connected_components call, then
    # bucket the components by size class.
    dp_cutoff = decoder._dp_cutoff
    big = np.nonzero(counts > DP_SCALAR_LIMIT)[0]
    if big.size == 0:
        return out
    edge_u: list[np.ndarray] = []
    edge_v: list[np.ndarray] = []
    for k in np.unique(counts[big]):
        rows = np.nonzero(counts == k)[0]
        iu, ju = np.triu_indices(int(k), 1)
        chunk = max(1, _BATCH_ELEMENT_LIMIT // int(k * k))
        for start in range(0, rows.size, chunk):
            sub = rows[start : start + chunk]
            det = flat_det[offsets[sub, None] + np.arange(k)[None, :]]
            pairable = _pairable(tables, det)
            g, e = np.nonzero(pairable[:, iu, ju])
            base = offsets[sub][g]
            edge_u.append(base + iu[e])
            edge_v.append(base + ju[e])

    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    num_nodes = int(offsets[-1])
    us = np.concatenate(edge_u) if edge_u else np.zeros(0, dtype=np.int64)
    vs = np.concatenate(edge_v) if edge_v else np.zeros(0, dtype=np.int64)
    adjacency = coo_matrix(
        (np.ones(len(us), dtype=np.uint8), (us, vs)),
        shape=(num_nodes, num_nodes),
    )
    _, labels = connected_components(adjacency, directed=False)

    # Keep only nodes of the decomposed syndromes, grouped by label.
    big_counts = counts[big]
    big_total = int(big_counts.sum())
    run_starts = np.zeros(len(big), dtype=np.int64)
    np.cumsum(big_counts[:-1], out=run_starts[1:])
    big_nodes = (
        np.arange(big_total) + np.repeat(offsets[big] - run_starts, big_counts)
    )
    node_syn = np.repeat(big, big_counts)
    big_labels = labels[big_nodes]
    order = np.argsort(big_labels, kind="stable")
    sorted_nodes = big_nodes[order]  # ascending node id within a label
    sorted_syn = node_syn[order]
    sorted_labels = big_labels[order]
    comp_starts = np.concatenate(
        [[0], np.nonzero(np.diff(sorted_labels))[0] + 1, [len(sorted_nodes)]]
    )
    comp_sizes = np.diff(comp_starts)

    # Singleton components: boundary route (vectorised).
    single = np.nonzero(comp_sizes == 1)[0]
    if single.size:
        nodes = sorted_nodes[comp_starts[single]]
        det = flat_det[nodes]
        contrib = np.where(
            np.isfinite(b_dist_all[det]), b_par_all[det], 0
        ).astype(np.uint8)
        np.bitwise_xor.at(out, sorted_syn[comp_starts[single]], contrib)

    # Pair components: the pairable edge is the optimal route.
    pairs = np.nonzero(comp_sizes == 2)[0]
    if pairs.size:
        first = comp_starts[pairs]
        det_a = flat_det[sorted_nodes[first]]
        det_b = flat_det[sorted_nodes[first + 1]]
        np.bitwise_xor.at(
            out, sorted_syn[first], par[det_a, det_b].astype(np.uint8)
        )

    # Mid-size components: stacked subset DP per size class.
    for n in range(3, dp_cutoff + 1):
        comps = np.nonzero(comp_sizes == n)[0]
        if comps.size == 0:
            continue
        member_idx = comp_starts[comps, None] + np.arange(n)[None, :]
        det = flat_det[sorted_nodes[member_idx]]
        _dp_bucket(decoder, tables, out, sorted_syn[comp_starts[comps]], det)

    # Oversize components: stacked setup, then the matching engine —
    # sparse region-growing by default, dense blossom under
    # matcher="dense" (``MatchingDecoder._match_oversize``).  Same-size components share one gather
    # exactly as the DP buckets stack theirs; with the compiled sparse
    # matcher the whole chunk is matched in one C call, so there is no
    # per-component Python left at all.
    over = np.nonzero(comp_sizes > dp_cutoff)[0]
    if over.size == 0:
        return out
    sparse = getattr(decoder, "matcher", None) == "sparse"
    compiled = kernel_backend() == "compiled"
    # The compiled sparse matcher takes a whole same-size chunk per C
    # call (``sparse_match_batch``), amortising the per-call overhead
    # across the group; the pure-Python oracle keeps the per-component
    # loop — with one stacked kNN-seed pass per chunk, since the
    # compiled matcher recomputes its (identical) seeds in C.
    batch_entry = sparse and compiled
    need_seeds = sparse and not compiled
    if batch_entry:
        from repro.decode import sparse_match as sparse_mod
    if need_seeds:
        from repro.decode.sparse_match import knn_candidates_batch
    for size in np.unique(comp_sizes[over]):
        n = int(size)
        comps = over[comp_sizes[over] == size]
        member_idx = comp_starts[comps, None] + np.arange(n)[None, :]
        det_all = flat_det[sorted_nodes[member_idx]]
        syn_all = sorted_syn[comp_starts[comps]]
        chunk = max(1, _BATCH_ELEMENT_LIMIT // (n * n))
        for start in range(0, len(comps), chunk):
            sl = slice(start, start + chunk)
            det = det_all[sl]
            W, use_pair, _, P, b_dist, b_par = _gather(tables, det)
            if batch_entry:
                parities = sparse_mod.sparse_match_parity_batch(
                    n, W, use_pair, P, b_dist, b_par
                )
                np.bitwise_xor.at(out, syn_all[sl], parities)
                continue
            seeds = knn_candidates_batch(W) if need_seeds else None
            for i in range(det.shape[0]):
                parity = decoder._match_oversize(
                    n, W[i], use_pair[i], P[i], b_dist[i], b_par[i],
                    seeds=seeds[i] if need_seeds else None,
                )
                out[syn_all[sl][i]] ^= np.uint8(parity)
    return out
