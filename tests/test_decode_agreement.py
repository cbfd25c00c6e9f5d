"""Agreement of the decode pipeline with the seed implementation.

The blossom pipeline (route tables, component decomposition,
subset-DP/native-blossom matching) must reproduce the seed's
per-shot-Dijkstra predictions (:class:`decode_oracles.SeedDecoder`)
exactly on tie-free graphs; greedy likewise.  The union-find decoder is
a different algorithm — it is validated for high agreement and equal
behaviour on unambiguous cases.

Beyond tie-free predictions, every exact backend optimises the same
objective, so :func:`decode_oracles.matching_weight` must return
identical totals for the native blossom, the subset DP and the legacy
formulation — and match a networkx reference fed the same reduced
graph (networkx stays available as a *test oracle*; the decode package
itself no longer imports it).  Dense syndromes (p ≥ 3e-3 and
untreated-defect circuits) force >14-defect components through the
native engine and are checked the same way.
"""

import itertools

import networkx as nx
import numpy as np
import pytest

from decode_oracles import SeedDecoder, SerialMatrixDecoder, matching_weight
from repro.decode import MatchingDecoder
from repro.decode import batch as batch_module
from repro.decode import graph as graph_module
from repro.decode.graph import DecodingGraph
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.sim.dem import DetectorErrorModel, ErrorMechanism
from repro.surface import rotated_surface_code


def random_dem(rng, max_detectors=9, max_mechanisms=20, min_detectors=2):
    """A random graphlike DEM with continuous (tie-free) weights."""
    n = int(rng.integers(min_detectors, max_detectors + 1))
    mechanisms = []
    for _ in range(int(rng.integers(2, max_mechanisms + 1))):
        p = float(rng.uniform(0.001, 0.3))
        obs = bool(rng.random() < 0.5)
        if rng.random() < 0.35:
            mechanisms.append(ErrorMechanism(p, (int(rng.integers(n)),), obs))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            mechanisms.append(ErrorMechanism(p, (int(a), int(b)), obs))
    return DetectorErrorModel(mechanisms, num_detectors=n, num_observables=1)


def all_syndromes(n):
    for bits in itertools.product([0, 1], repeat=n):
        yield np.array(bits, dtype=np.uint8)


class TestBlossomAgreement:
    def test_exhaustive_on_random_dems(self):
        """Pipeline blossom == seed blossom on every syndrome."""
        rng = np.random.default_rng(42)
        for _ in range(12):
            dem = random_dem(rng)
            new = MatchingDecoder(dem)
            legacy = SeedDecoder(dem)
            for s in all_syndromes(dem.num_detectors):
                assert new.decode(s) == legacy.decode(s)

    def test_exhaustive_exercises_vector_dp(self):
        """DEMs wide enough that components exceed the scalar-DP limit."""
        rng = np.random.default_rng(1)
        for _ in range(2):
            dem = random_dem(
                rng, max_detectors=11, max_mechanisms=40, min_detectors=10
            )
            new = MatchingDecoder(dem)
            legacy = SeedDecoder(dem)
            checked = 0
            for s in all_syndromes(dem.num_detectors):
                if s.sum() <= batch_module.DP_SCALAR_LIMIT:
                    continue  # the scalar DP is covered elsewhere
                assert new.decode(s) == legacy.decode(s)
                checked += 1
            assert checked > 0

    @pytest.mark.parametrize("distance,shots", [(3, 600), (5, 250)])
    def test_sampled_on_memory_circuits(self, distance, shots):
        """Identical predictions on real syndrome-circuit samples."""
        patch = rotated_surface_code(distance)
        circuit = memory_circuit(
            patch.code, "Z", distance, NoiseModel.uniform(3e-3)
        )
        dem = build_dem(circuit)
        new = MatchingDecoder(dem)
        legacy = SeedDecoder(dem)
        detectors, _ = sample_detectors(circuit, shots, seed=9)
        assert (new.decode_batch(detectors) == legacy.decode_batch(detectors)).all()

    def test_greedy_matrix_matches_legacy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dem = random_dem(rng)
            new = MatchingDecoder(dem, method="greedy")
            legacy = SeedDecoder(dem, method="greedy")
            for s in all_syndromes(dem.num_detectors):
                assert new.decode(s) == legacy.decode(s)


class TestUnionFindAgreement:
    def test_single_and_pair_defects_match_blossom(self):
        """≤2 defects leave no approximation room on tie-free graphs."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            dem = random_dem(rng)
            uf = MatchingDecoder(dem, method="uf")
            blossom = MatchingDecoder(dem)
            n = dem.num_detectors
            for s in all_syndromes(n):
                if s.sum() > 2:
                    continue
                assert uf.decode(s) == blossom.decode(s)

    def test_high_agreement_on_random_dems(self):
        rng = np.random.default_rng(23)
        agree = total = 0
        for _ in range(10):
            dem = random_dem(rng)
            uf = MatchingDecoder(dem, method="uf")
            blossom = MatchingDecoder(dem)
            for s in all_syndromes(dem.num_detectors):
                agree += uf.decode(s) == blossom.decode(s)
                total += 1
        assert agree / total > 0.9

    def test_memory_circuit_error_rate_close_to_blossom(self):
        patch = rotated_surface_code(3)
        circuit = memory_circuit(patch.code, "Z", 3, NoiseModel.uniform(2e-3))
        dem = build_dem(circuit)
        detectors, observables = sample_detectors(circuit, 3000, seed=17)
        uf = MatchingDecoder(dem, method="uf")
        blossom = MatchingDecoder(dem)
        ler_uf = uf.logical_error_rate(detectors, observables)
        ler_b = blossom.logical_error_rate(detectors, observables)
        assert ler_uf <= ler_b + 0.01
        agreement = (
            uf.decode_batch(detectors) == blossom.decode_batch(detectors)
        ).mean()
        assert agreement > 0.98


class TestBatchAndCache:
    def test_decode_batch_matches_per_shot(self):
        rng = np.random.default_rng(3)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        serial = SerialMatrixDecoder(dem)
        samples = rng.integers(0, 2, size=(40, dem.num_detectors), dtype=np.uint8)
        batch = dec.decode_batch(samples)
        singles = np.array([dec.decode(row) for row in samples], dtype=np.uint8)
        assert (batch == singles).all()
        reference = [serial.decode(row) for row in samples]
        assert (batch == np.array(reference, dtype=np.uint8)).all()

    def test_zero_syndrome_fast_path(self):
        rng = np.random.default_rng(3)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        out = dec.decode_batch(np.zeros((64, dem.num_detectors), dtype=np.uint8))
        assert not out.any()
        assert dec.cache_misses == 0  # never reached the matcher

    def test_syndrome_cache_hits_across_batches(self):
        rng = np.random.default_rng(3)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        sample = np.zeros(dem.num_detectors, dtype=np.uint8)
        sample[0] = 1
        dec.decode(sample)
        misses = dec.cache_misses
        dec.decode(sample)
        assert dec.cache_hits >= 1
        assert dec.cache_misses == misses

    def test_cache_bounded(self):
        rng = np.random.default_rng(3)
        dem = random_dem(rng, max_detectors=9)
        dec = MatchingDecoder(dem, cache_size=4)
        for s in all_syndromes(dem.num_detectors):
            dec.decode(s)
        assert len(dec._cache) <= 4

    def test_matrix_matches_lazy_threshold_fallback(self, monkeypatch):
        """Above the node limit the decoder transparently switches to
        per-batch route tables, with identical predictions."""
        rng = np.random.default_rng(8)
        dem = random_dem(rng)
        auto = MatchingDecoder(dem)
        monkeypatch.setattr(graph_module, "MATRIX_NODE_LIMIT", 3)
        forced = MatchingDecoder(dem)
        assert not forced.graph.uses_whole_tables
        for s in all_syndromes(dem.num_detectors):
            assert auto.decode(s) == forced.decode(s)
        assert forced.graph._matrices is None


class TestParallelMergeRule:
    def test_dominant_channel_wins_regardless_of_order(self):
        """Parallel mechanisms: parity comes from the likeliest channel.

        The seed compared each incoming channel against the *combined*
        running probability, so a pile of small same-parity channels
        could outvote one dominant channel depending on insertion
        order.  The rule is now order-independent.
        """
        channels = [
            ErrorMechanism(0.008, (0, 1), False),
            ErrorMechanism(0.008, (0, 1), False),
            ErrorMechanism(0.010, (0, 1), True),
        ]
        for order in itertools.permutations(channels):
            dem = DetectorErrorModel(list(order), num_detectors=2, num_observables=1)
            g = DecodingGraph(dem)
            assert g.edge_parities.tolist() == [1]
            # Channels combine by parity (an odd number must fire).
            expected = 0.5 * (1 - (1 - 2 * 0.008) ** 2 * (1 - 2 * 0.010))
            assert g.edge_weights[0] == pytest.approx(
                np.log((1 - expected) / expected)
            )

    def test_combined_probability_still_independent_or(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.01, (0, 1), False), ErrorMechanism(0.02, (0, 1), True)],
            num_detectors=2,
            num_observables=1,
        )
        g = DecodingGraph(dem)
        p = 0.01 * 0.98 + 0.02 * 0.99
        assert g.edge_weights[0] == pytest.approx(np.log((1 - p) / p))
        assert g.edge_parities.tolist() == [1]


class TestMemoryExperimentMethods:
    def test_uf_selectable_and_sane(self):
        from repro.eval import memory_experiment

        patch = rotated_surface_code(3)
        result = memory_experiment(
            patch.code,
            "Z",
            NoiseModel.uniform(1e-3),
            rounds=3,
            shots=400,
            seed=2,
            decoder_method="uf",
        )
        assert result.shots == 400
        assert result.per_shot < 0.05


def networkx_reduced_weight(decoder, sample):
    """Optimal route weight via networkx on the reduced defect graph.

    Mirrors the decoder's reduced formulation (pair weights
    ``min(d(a,b), b(a)+b(b))``, one virtual boundary node when the
    defect count is odd, leftovers routed alone) but solves it with
    ``networkx.max_weight_matching`` — the backend the native engine
    replaced — so totals can be compared across solvers.
    """
    sample = np.asarray(sample)
    limit = decoder.graph.num_detectors
    defects = tuple(int(d) for d in np.nonzero(sample)[0] if d < limit)
    if not defects:
        return 0.0
    D, _, b_dist, _ = decoder._lookup(defects)
    k = len(defects)
    if k == 1:
        return float(b_dist[0]) if np.isfinite(b_dist[0]) else 0.0
    D = np.minimum(D, D.T)
    W = np.minimum(D, b_dist[:, None] + b_dist[None, :])
    finite = np.isfinite(W).copy()
    np.fill_diagonal(finite, False)
    big = 1.0 + 2.0 * float(W[finite].max()) if finite.any() else 1.0
    graph = nx.Graph()
    graph.add_nodes_from(range(k))
    iu, ju = np.nonzero(np.triu(finite, 1))
    for i, j in zip(iu, ju, strict=True):
        graph.add_edge(int(i), int(j), weight=big - W[i, j])
    if k % 2:
        for i in range(k):
            if np.isfinite(b_dist[i]):
                graph.add_edge(int(i), -1, weight=big - b_dist[i])
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    total = 0.0
    matched = set()
    for u, v in matching:
        if u > v:
            u, v = v, u
        if u == -1:
            total += float(b_dist[v])
            matched.add(v)
        else:
            total += float(W[u, v])
            matched.update((u, v))
    for i in range(k):
        if i not in matched and np.isfinite(b_dist[i]):
            total += float(b_dist[i])
    return total


def random_syndromes(rng, num_detectors, count, max_defects):
    """Random nonzero syndromes with bounded defect counts."""
    for _ in range(count):
        weight = int(rng.integers(1, min(max_defects, num_detectors) + 1))
        sample = np.zeros(num_detectors, dtype=np.uint8)
        sample[rng.choice(num_detectors, size=weight, replace=False)] = 1
        yield sample


class TestMatchingWeights:
    """All exact backends agree on the objective value itself."""

    def test_weights_identical_across_backends(self):
        rng = np.random.default_rng(101)
        for _ in range(8):
            dem = random_dem(rng, max_detectors=9)
            dec = MatchingDecoder(dem)
            for s in all_syndromes(dem.num_detectors):
                if not s.any():
                    continue
                w_blossom = matching_weight(dec, s, matcher="blossom")
                w_dp = matching_weight(dec, s, matcher="dp")
                w_legacy = matching_weight(dec, s, matcher="legacy")
                w_sparse = matching_weight(dec, s, matcher="sparse")
                assert w_blossom == pytest.approx(w_dp)
                assert w_blossom == pytest.approx(w_legacy)
                assert w_blossom == pytest.approx(w_sparse)

    def test_weights_match_networkx_oracle(self):
        rng = np.random.default_rng(103)
        for _ in range(8):
            dem = random_dem(rng, max_detectors=9)
            dec = MatchingDecoder(dem)
            for s in all_syndromes(dem.num_detectors):
                if not s.any():
                    continue
                assert matching_weight(dec, s) == pytest.approx(
                    networkx_reduced_weight(dec, s)
                )

    def test_unknown_matcher_rejected(self):
        rng = np.random.default_rng(104)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        sample = np.ones(dem.num_detectors, dtype=np.uint8)
        with pytest.raises(ValueError):
            matching_weight(dec, sample, matcher="nope")


class TestLargeComponents:
    """Dense syndromes exercise the native engine beyond the DP limit."""

    def _force_native(self, monkeypatch):
        """Count native-engine calls and the component sizes they see."""
        import repro.decode.mwpm as mwpm

        seen = []
        orig = MatchingDecoder.__dict__["_blossom_match"].__get__(
            None, MatchingDecoder
        )

        def counting(k, W, use_pair, P, b_dist, b_par):
            seen.append(k)
            return orig(k, W, use_pair, P, b_dist, b_par)

        monkeypatch.setattr(
            mwpm.MatchingDecoder, "_blossom_match", staticmethod(counting)
        )
        return seen

    def test_dense_random_dems_weight_and_prediction(self, monkeypatch):
        """Randomized >14-defect syndromes: native vs DP-free legacy
        predictions and the networkx weight oracle.

        Weights here are continuous (tie-free), so the sparse
        region-growing matcher must reproduce the dense predictions
        bit-for-bit too — the optimum is unique.
        """
        seen = self._force_native(monkeypatch)
        rng = np.random.default_rng(105)
        for _ in range(3):
            dem = random_dem(
                rng, max_detectors=24, min_detectors=20, max_mechanisms=120
            )
            sparse = MatchingDecoder(dem)
            dense = MatchingDecoder(dem, matcher="dense")
            legacy = SeedDecoder(dem)
            for s in random_syndromes(rng, dem.num_detectors, 25, 22):
                if s.sum() <= batch_module.DP_DEFECT_LIMIT:
                    continue
                assert dense.decode(s) == legacy.decode(s)
                assert sparse.decode(s) == legacy.decode(s)
                assert matching_weight(dense, s) == pytest.approx(
                    networkx_reduced_weight(dense, s)
                )
                assert matching_weight(dense, s) == pytest.approx(
                    matching_weight(dense, s, matcher="legacy")
                )
                assert matching_weight(dense, s, matcher="sparse") == (
                    pytest.approx(matching_weight(dense, s))
                )
        assert max(seen, default=0) > batch_module.DP_DEFECT_LIMIT

    @pytest.mark.parametrize(
        "p,rounds,defective",
        [
            (3e-3, 25, None),
            (6e-3, 15, None),
            (1e-3, 10, {(3, 3), (5, 5)}),  # untreated-defect circuit
        ],
    )
    def test_dense_memory_circuits(self, monkeypatch, p, rounds, defective):
        """p ≥ 3e-3 and untreated-defect runs at d=5: the native engine
        handles >14-defect components and agrees with networkx on total
        weight (and with the legacy path on predictions).  Circuit
        weights are highly degenerate, so the sparse matcher is pinned
        on the weight objective (ties may legitimately resolve to a
        different equal-weight matching there)."""
        seen = self._force_native(monkeypatch)
        patch = rotated_surface_code(5)
        circuit = memory_circuit(
            patch.code,
            "Z",
            rounds,
            NoiseModel.uniform(p),
            defective_data=defective,
        )
        dem = build_dem(circuit)
        new = MatchingDecoder(dem, matcher="dense")
        legacy = SeedDecoder(dem)
        detectors, _ = sample_detectors(circuit, 60, seed=7)
        assert (
            new.decode_batch(detectors) == legacy.decode_batch(detectors)
        ).all()
        dense_rows = np.nonzero(
            detectors.sum(axis=1) > batch_module.DP_DEFECT_LIMIT
        )[0]
        assert dense_rows.size > 0
        for row in dense_rows[:10]:
            assert matching_weight(new, detectors[row]) == pytest.approx(
                networkx_reduced_weight(new, detectors[row])
            )
            assert matching_weight(
                new, detectors[row], matcher="sparse"
            ) == pytest.approx(matching_weight(new, detectors[row]))
        assert max(seen, default=0) > batch_module.DP_DEFECT_LIMIT


class TestShardedDecode:
    def test_workers_match_serial(self):
        rng = np.random.default_rng(71)
        dem = random_dem(rng, max_detectors=9)
        serial = MatchingDecoder(dem)
        sharded = MatchingDecoder(dem, workers=2)
        samples = rng.integers(
            0, 2, size=(300, dem.num_detectors), dtype=np.uint8
        )
        expected = serial.decode_batch(samples)
        assert (sharded.decode_batch(samples) == expected).all()
        # Per-call override beats the constructor setting.
        assert (
            MatchingDecoder(dem).decode_batch(samples, workers=2) == expected
        ).all()

    def test_sharded_batch_warms_parent_cache(self):
        rng = np.random.default_rng(72)
        dem = random_dem(rng, max_detectors=8)
        dec = MatchingDecoder(dem, workers=2)
        samples = rng.integers(
            0, 2, size=(200, dem.num_detectors), dtype=np.uint8
        )
        dec.decode_batch(samples)
        assert len(dec._cache) > 0
        hits_before = dec.cache_hits
        dec.decode_batch(samples)
        assert dec.cache_hits > hits_before

    def test_small_batches_stay_serial(self):
        rng = np.random.default_rng(73)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem, workers=4)
        # A handful of unique syndromes is below the sharding floor.
        assert not dec._can_shard(4, 4)

    def test_invalid_workers_rejected(self):
        rng = np.random.default_rng(74)
        dem = random_dem(rng)
        with pytest.raises(ValueError):
            MatchingDecoder(dem, workers=0)


class TestEmptyBatch:
    def test_zero_shots_error_rate_is_zero(self):
        """Regression: empty batches returned NaN with a RuntimeWarning."""
        rng = np.random.default_rng(75)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        detectors = np.zeros((0, dem.num_detectors), dtype=np.uint8)
        observables = np.zeros((0, 1), dtype=np.uint8)
        with np.errstate(invalid="raise"):
            rate = dec.logical_error_rate(detectors, observables)
        assert rate == 0.0


class TestSeedDerivation:
    def test_bases_sample_distinct_streams(self, monkeypatch):
        """logical_error_rate must not reuse one seed for both bases."""
        import repro.eval.montecarlo as mc

        seen = []
        real = mc.sample_detectors

        def recording(circuit, shots, *, seed=None, **kwargs):
            seen.append(seed)
            return real(circuit, shots, seed=seed, **kwargs)

        monkeypatch.setattr(mc, "sample_detectors", recording)
        patch = rotated_surface_code(3)
        mc.logical_error_rate(
            patch.code, NoiseModel.uniform(1e-3), rounds=2, shots=20, seed=123
        )
        assert len(seen) == 2
        assert seen[0] != seen[1]
        assert 123 not in seen

    def test_reproducible_for_fixed_seed(self):
        import repro.eval.montecarlo as mc

        patch = rotated_surface_code(3)
        kwargs = dict(rounds=2, shots=100, seed=7)
        a = mc.logical_error_rate(patch.code, NoiseModel.uniform(2e-3), **kwargs)
        b = mc.logical_error_rate(patch.code, NoiseModel.uniform(2e-3), **kwargs)
        assert a == b
