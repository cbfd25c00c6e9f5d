"""Weight-equality and agreement suite for the sparse matching engine.

The sparse region-growing matcher (:mod:`repro.decode.sparse_match`)
must optimise the *identical* objective as the dense blossom path on
every input: hypothesis-randomized cost matrices (including degenerate
integer weights and ``inf`` non-edges) are cross-checked against the
dense engine, random DEMs against the networkx oracle, and dense
memory circuits — p = 3e-3 and untreated-defect runs, where >14-defect
components are the common case — against both.  On tie-free
(continuous-weight) instances the optimum is unique, so predictions
are pinned bit-identical to the dense matcher as well; on degenerate
instances the pinned quantities are the matching weight and the
matched cardinality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decode_oracles import SeedDecoder, SerialMatrixDecoder, matching_weight
from repro.decode import MatchingDecoder
from repro.decode.batch import _DP_STACK_MAX
from repro.decode.sparse_match import (
    SPARSE_MIN_DEFECTS,
    knn_candidates,
    region_candidates,
    sparse_match,
    sparse_match_parity,
)
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.surface import rotated_surface_code
from test_decode_agreement import (
    networkx_reduced_weight,
    random_dem,
    random_syndromes,
)


def dense_oracle(W, b_dist):
    """The dense reduced-component solve the sparse engine must equal."""
    from repro.decode.blossom import min_weight_perfect_matching

    k = W.shape[0]
    n, cost = MatchingDecoder._reduced_cost(k, W, b_dist)
    mate, total = min_weight_perfect_matching(cost)
    return mate, total


@st.composite
def component_case(draw):
    """A random reduced component: symmetric costs, optional non-edges.

    Integer weights provoke heavy ties (the max-cardinality and
    weight-equality guarantees must survive degeneracy); continuous
    weights make the optimum unique.
    """
    k = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    integral = draw(st.booleans())
    p_inf = draw(st.sampled_from([0.0, 0.15, 0.45]))
    rng = np.random.default_rng(seed)
    if integral:
        W = rng.integers(1, 8, size=(k, k)).astype(np.float64)
        b_dist = rng.integers(1, 8, size=k).astype(np.float64)
    else:
        W = rng.uniform(0.1, 10.0, size=(k, k))
        b_dist = rng.uniform(0.1, 10.0, size=k)
    W = np.minimum(W, W.T)
    blocked = rng.random((k, k)) < p_inf
    blocked |= blocked.T
    W[blocked] = np.inf
    np.fill_diagonal(W, np.inf)
    b_dist[rng.random(k) < 0.25] = np.inf
    return W, b_dist, integral


class TestEngineEquality:
    @given(component_case())
    @settings(max_examples=60, deadline=None)
    def test_weight_and_cardinality_match_dense(self, case):
        """Same optimum as the dense engine on arbitrary components.

        The pinned invariants are the matching *edge count* (every
        maximum-cardinality matching of the same reduced graph has the
        same number of edges) and the total weight (minimal among
        those, exactly).  The number of *defects* covered is
        deliberately not pinned: on exact weight ties a pair edge
        (two defects) and a boundary edge (one defect) can both be
        optimal, and the engines may legitimately resolve such ties
        differently.
        """
        W, b_dist, _ = case
        k = W.shape[0]
        mate_d, total_d = dense_oracle(W, b_dist)
        mate_s, total_s = sparse_match(W, b_dist)

        def edge_count(mate):
            pairs = sum(1 for i in range(k) if i < mate[i] < k)
            boundary = sum(1 for i in range(k) if mate[i] == k)
            return pairs + boundary

        assert edge_count(mate_s) == edge_count(mate_d)
        assert total_s == pytest.approx(total_d)

    @given(component_case())
    @settings(max_examples=40, deadline=None)
    def test_tie_free_matchings_identical(self, case):
        """Continuous weights: the unique optimum, so identical mates."""
        W, b_dist, integral = case
        if integral:
            return  # degenerate ties may legitimately differ
        mate_d, _ = dense_oracle(W, b_dist)
        mate_s, _ = sparse_match(W, b_dist)
        assert mate_s == mate_d[: W.shape[0]]

    @given(component_case())
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, case):
        W, b_dist, _ = case
        assert sparse_match(W, b_dist) == sparse_match(W, b_dist)

    def test_knn_candidates_contain_row_minima(self):
        rng = np.random.default_rng(3)
        W = rng.uniform(0.1, 5.0, size=(9, 9))
        W = np.minimum(W, W.T)
        np.fill_diagonal(W, np.inf)
        ei, ej = knn_candidates(W)
        pairs = set(zip(ei.tolist(), ej.tolist(), strict=True))
        assert all(i < j for i, j in pairs)
        masked = np.where(np.eye(9, dtype=bool), np.inf, W)
        for i in range(9):
            j = int(np.argmin(masked[i]))
            assert (min(i, j), max(i, j)) in pairs

    def test_starved_seed_graph_is_repaired(self):
        """An adversarial seed (one edge) still reaches the optimum:
        the dual certificate pulls in every withheld edge it needs."""
        rng = np.random.default_rng(11)
        W = rng.uniform(0.5, 4.0, size=(8, 8))
        W = np.minimum(W, W.T)
        np.fill_diagonal(W, np.inf)
        b_dist = np.full(8, np.inf)
        seeds = (np.array([0]), np.array([1]))
        mate_d, total_d = dense_oracle(W, b_dist)
        mate_s, total_s = sparse_match(W, b_dist, seeds=seeds)
        assert total_s == pytest.approx(total_d)
        assert mate_s == mate_d


class TestRandomDems:
    def test_sparse_decoder_matches_dense_on_tie_free_graphs(self):
        """Oversize components on continuous-weight DEMs: identical
        predictions and weights across sparse/dense/legacy/networkx."""
        rng = np.random.default_rng(207)
        hit = 0
        for _ in range(3):
            dem = random_dem(
                rng, max_detectors=22, min_detectors=18, max_mechanisms=110
            )
            sparse = MatchingDecoder(dem)
            dense = MatchingDecoder(dem, matcher="dense")
            legacy = SeedDecoder(dem)
            for s in random_syndromes(rng, dem.num_detectors, 20, 20):
                if s.sum() < SPARSE_MIN_DEFECTS:
                    continue
                hit += 1
                assert sparse.decode(s) == legacy.decode(s)
                assert sparse.decode(s) == dense.decode(s)
                w = matching_weight(sparse, s, matcher="sparse")
                assert w == pytest.approx(matching_weight(sparse, s))
                assert w == pytest.approx(networkx_reduced_weight(sparse, s))
        assert hit > 0

    def test_region_candidates_structure(self):
        dem = build_dem(
            memory_circuit(
                rotated_surface_code(5).code,
                "Z",
                10,
                NoiseModel.uniform(2e-3),
            )
        )
        dec = MatchingDecoder(dem)
        rng = np.random.default_rng(5)
        det_ids = np.sort(
            rng.choice(dem.num_detectors, size=16, replace=False)
        )
        ei, ej = region_candidates(dec.graph, det_ids)
        assert len(ei) > 0
        assert (ei < ej).all()
        assert ej.max() < len(det_ids)
        # Deterministic: the growth has no random state.
        ei2, ej2 = region_candidates(dec.graph, det_ids)
        assert (ei == ei2).all() and (ej == ej2).all()

    def test_region_seeded_weight_equals_dense(self):
        """Voronoi-grown candidates reach the exact optimum too."""
        circuit = memory_circuit(
            rotated_surface_code(5).code,
            "Z",
            15,
            NoiseModel.uniform(3e-3),
        )
        dem = build_dem(circuit)
        dec = MatchingDecoder(dem)
        detectors, _ = sample_detectors(circuit, 40, seed=13)
        rows = np.nonzero(detectors.sum(axis=1) >= SPARSE_MIN_DEFECTS)[0]
        assert rows.size > 0
        for row in rows[:10]:
            w_sparse = matching_weight(dec, detectors[row], matcher="sparse")
            assert w_sparse == pytest.approx(
                matching_weight(dec, detectors[row])
            )


class TestDecoderDispatch:
    def test_oversize_components_route_to_sparse(self, monkeypatch):
        import repro.decode.mwpm as mwpm

        calls = {"sparse": 0, "dense": 0}
        real_sparse = mwpm.sparse_match_parity
        real_dense = MatchingDecoder.__dict__["_blossom_match"].__get__(
            None, MatchingDecoder
        )

        def spy_sparse(k, W, use_pair, P, b_dist, b_par, **kw):
            calls["sparse"] += 1
            return real_sparse(k, W, use_pair, P, b_dist, b_par, **kw)

        def spy_dense(k, W, use_pair, P, b_dist, b_par):
            calls["dense"] += 1
            return real_dense(k, W, use_pair, P, b_dist, b_par)

        monkeypatch.setattr(mwpm, "sparse_match_parity", spy_sparse)
        monkeypatch.setattr(
            mwpm.MatchingDecoder, "_blossom_match", staticmethod(spy_dense)
        )
        rng = np.random.default_rng(41)
        dem = random_dem(
            rng, max_detectors=20, min_detectors=16, max_mechanisms=100
        )
        sample = np.ones(dem.num_detectors, dtype=np.uint8)
        MatchingDecoder(dem).decode(sample)
        assert calls["sparse"] >= 0  # dispatch reached (components vary)
        sparse_calls = calls["sparse"]
        MatchingDecoder(dem, matcher="dense").decode(sample)
        assert calls["sparse"] == sparse_calls  # dense decoder never routes here

    def test_cutoff_respects_stacked_dp_ceiling(self):
        rng = np.random.default_rng(43)
        dem = random_dem(rng)
        assert MatchingDecoder(dem)._dp_cutoff == _DP_STACK_MAX
        assert SPARSE_MIN_DEFECTS == _DP_STACK_MAX + 1

    def test_invalid_matcher_rejected(self):
        rng = np.random.default_rng(44)
        dem = random_dem(rng)
        with pytest.raises(ValueError):
            MatchingDecoder(dem, matcher="nope")
        with pytest.raises(ValueError):
            matching_weight(
                MatchingDecoder(dem),
                np.ones(dem.num_detectors, dtype=np.uint8),
                matcher="bogus",
            )


class TestDenseCircuits:
    @pytest.mark.parametrize(
        "p,rounds,defective",
        [
            (3e-3, 20, None),
            (1e-3, 10, {(3, 3), (5, 5)}),  # untreated-defect circuit
        ],
    )
    def test_serial_batch_identity_and_weights(self, p, rounds, defective):
        """Sparse default on dense circuits: the pipeline agrees
        bit-for-bit with the serial per-shot oracle, and the weight
        objective matches the dense engine and the networkx oracle on
        >cutoff rows."""
        patch = rotated_surface_code(5)
        circuit = memory_circuit(
            patch.code,
            "Z",
            rounds,
            NoiseModel.uniform(p),
            defective_data=defective,
        )
        dem = build_dem(circuit)
        detectors, _ = sample_detectors(circuit, 50, seed=23)
        dec = MatchingDecoder(dem)
        batch = dec.decode_batch(detectors)
        serial = SerialMatrixDecoder(dem)
        singles = np.array(
            [serial.decode(row) for row in detectors], dtype=np.uint8
        )
        assert (batch == singles).all()
        rows = np.nonzero(detectors.sum(axis=1) >= SPARSE_MIN_DEFECTS)[0]
        assert rows.size > 0
        for row in rows[:6]:
            w = matching_weight(dec, detectors[row], matcher="sparse")
            assert w == pytest.approx(matching_weight(dec, detectors[row]))
            assert w == pytest.approx(
                networkx_reduced_weight(dec, detectors[row])
            )

    def test_logical_error_rate_not_degraded(self):
        """Sparse and dense matchers are both exact MWPM: on a dense
        circuit their logical error rates can differ only through
        equal-weight tie resolution, which is noise, not bias."""
        patch = rotated_surface_code(3)
        circuit = memory_circuit(
            patch.code, "Z", 10, NoiseModel.uniform(4e-3)
        )
        dem = build_dem(circuit)
        detectors, observables = sample_detectors(circuit, 1500, seed=29)
        ler_sparse = MatchingDecoder(dem).logical_error_rate(
            detectors, observables
        )
        ler_dense = MatchingDecoder(dem, matcher="dense").logical_error_rate(
            detectors, observables
        )
        assert abs(ler_sparse - ler_dense) < 0.02


class TestParityConventions:
    def test_parity_matches_dense_on_tie_free_components(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            k = int(rng.integers(2, 14))
            W = rng.uniform(0.1, 6.0, size=(k, k))
            W = np.minimum(W, W.T)
            np.fill_diagonal(W, np.inf)
            b_dist = rng.uniform(0.1, 6.0, size=k)
            use_pair = rng.random((k, k)) < 0.7
            use_pair &= use_pair.T
            P = rng.integers(0, 2, size=(k, k)).astype(np.uint8)
            P = np.bitwise_xor(np.triu(P, 1), np.triu(P, 1).T)
            b_par = rng.integers(0, 2, size=k).astype(np.uint8)
            assert sparse_match_parity(
                k, W, use_pair, P, b_dist, b_par
            ) == MatchingDecoder._blossom_match(
                k, W, use_pair, P, b_dist, b_par
            )
