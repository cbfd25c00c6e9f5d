"""Tests for the MWPM decoder and decoding graph."""

import numpy as np
import pytest

from repro.decode import MatchingDecoder
from repro.decode.graph import DecodingGraph
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.sim.dem import DetectorErrorModel, ErrorMechanism
from repro.surface import rotated_surface_code


def toy_dem():
    """A 3-detector chain: boundary - d0 - d1 - d2 - boundary."""
    mechanisms = [
        ErrorMechanism(0.01, (0,), True),
        ErrorMechanism(0.01, (0, 1), False),
        ErrorMechanism(0.01, (1, 2), False),
        ErrorMechanism(0.01, (2,), False),
    ]
    return DetectorErrorModel(mechanisms, num_detectors=3, num_observables=1)


class TestDecodingGraph:
    def test_nodes_and_boundary(self):
        g = DecodingGraph(toy_dem())
        assert g.boundary_index == g.num_detectors == 3
        us, vs = g.edge_endpoints
        assert len(us) == len(vs) == len(g.edge_weights) == 4
        edges = set(zip(us.tolist(), vs.tolist(), strict=True))
        assert edges == {(0, 3), (0, 1), (1, 2), (2, 3)}

    def test_parallel_edges_merge(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.01, (0, 1), False), ErrorMechanism(0.02, (0, 1), True)],
            num_detectors=2,
            num_observables=1,
        )
        g = DecodingGraph(dem)
        assert len(g.edge_weights) == 1
        p = 0.01 * 0.98 + 0.02 * 0.99
        assert g.edge_weights[0] == pytest.approx(np.log((1 - p) / p))

    def test_observable_parity_along_path(self):
        # The chain with a less likely right-hand boundary, so every
        # shortest path is unique.
        mechanisms = list(toy_dem().mechanisms)
        mechanisms[-1] = ErrorMechanism(0.001, (2,), False)
        g = DecodingGraph(DetectorErrorModel(mechanisms, 3, 1))
        _, parity = g.ensure_matrices()
        b = g.boundary_index
        assert parity[0, b] == 1  # d0 - boundary crosses the observable
        assert parity[1, b] == 1  # d1 - d0 - boundary, two hops
        assert parity[0, 2] == 0  # d0 - d1 - d2 does not
        assert parity[2, 0] == 0


class TestObservableCount:
    """Decoding predicts one observable flip, so a DEM must have one."""

    @pytest.mark.parametrize("count", [0, 2])
    def test_rejects_other_observable_counts(self, count):
        dem = DetectorErrorModel(
            toy_dem().mechanisms, num_detectors=3, num_observables=count
        )
        with pytest.raises(ValueError, match=f"got {count}"):
            DecodingGraph(dem)
        with pytest.raises(ValueError, match="exactly one observable"):
            MatchingDecoder(dem)

    def test_build_dem_stays_general(self):
        """The check lives in the decoder, not in DEM extraction."""
        from repro.sim.circuit import Circuit

        c = Circuit()
        c.append("X_ERROR", [0, 1], 0.01)
        c.append("M", [0, 1])
        c.detector([1])
        c.observable([1])
        c.observable([0])
        dem = build_dem(c)
        assert dem.num_observables == 2
        with pytest.raises(ValueError, match="got 2"):
            MatchingDecoder(dem)


class TestMatchingDecoder:
    def test_empty_syndrome(self):
        dec = MatchingDecoder(toy_dem())
        assert dec.decode(np.zeros(3, dtype=np.uint8)) == 0

    def test_single_defect_matches_to_boundary(self):
        dec = MatchingDecoder(toy_dem())
        # Defect at detector 0: nearest boundary path crosses the
        # observable edge.
        assert dec.decode(np.array([1, 0, 0])) == 1
        # Defect at detector 2: boundary on the other side, no flip.
        assert dec.decode(np.array([0, 0, 1])) == 0

    def test_pair_matches_internally(self):
        dec = MatchingDecoder(toy_dem())
        assert dec.decode(np.array([1, 1, 0])) == 0

    def test_greedy_agrees_on_simple_cases(self):
        exact = MatchingDecoder(toy_dem())
        greedy = MatchingDecoder(toy_dem(), method="greedy")
        for syndrome in ([1, 0, 0], [0, 1, 1], [1, 1, 1], [0, 0, 0]):
            s = np.array(syndrome)
            assert exact.decode(s) == greedy.decode(s)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            MatchingDecoder(toy_dem(), method="magic")

    def test_decode_batch_shape(self):
        dec = MatchingDecoder(toy_dem())
        out = dec.decode_batch(np.zeros((5, 3), dtype=np.uint8))
        assert out.shape == (5,)


class TestEndToEndDecoding:
    def test_distance_scaling(self):
        """d=5 must beat d=3 at p well below threshold."""
        rates = {}
        for d in (3, 5):
            patch = rotated_surface_code(d)
            c = memory_circuit(patch.code, "Z", d, NoiseModel.uniform(3e-3))
            dem = build_dem(c)
            dec = MatchingDecoder(dem)
            det, obs = sample_detectors(c, 4000, seed=3)
            rates[d] = dec.logical_error_rate(det, obs)
        assert rates[5] < rates[3]

    def test_decoder_beats_majority_noise(self):
        """At low p the decoder corrects nearly everything."""
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, "Z", 3, NoiseModel.uniform(1e-3))
        dem = build_dem(c)
        dec = MatchingDecoder(dem)
        det, obs = sample_detectors(c, 2000, seed=5)
        raw_flip_rate = (obs.sum(axis=1) % 2).mean()
        assert dec.logical_error_rate(det, obs) <= raw_flip_rate + 1e-9

    def test_x_memory_symmetric(self):
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, "X", 3, NoiseModel.uniform(3e-3))
        dem = build_dem(c)
        dec = MatchingDecoder(dem)
        det, obs = sample_detectors(c, 2000, seed=6)
        assert dec.logical_error_rate(det, obs) < 0.05
