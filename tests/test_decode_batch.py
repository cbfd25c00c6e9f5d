"""The batch-native decode front-end and vectorised component pipeline.

Covers the :class:`repro.decode.base.Decoder` batching contract shared
by every decoder (edge-case inputs, packed bitplane input, sharding
floor), bit-identity of the vectorised blossom pipeline against the
serial per-shot oracle (``decode_oracles.SerialMatrixDecoder``),
determinism of repeated batches despite tie-ambiguous matchings, and
union-find batch agreement on untreated-defect circuits.
"""

import numpy as np
import pytest

from decode_oracles import SerialMatrixDecoder
from repro.decode import DecodingGraph, MatchingDecoder, UnionFindDecoder
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.sim.dem import DetectorErrorModel, ErrorMechanism
from repro.surface import rotated_surface_code
from repro.utils.gf2 import PackedBits, gf2_pack


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


def defective_d5_samples(shots=120, seed=13):
    """Samples from an untreated-defect d=5 circuit (dense syndromes)."""
    patch = rotated_surface_code(5)
    circuit = memory_circuit(
        patch.code,
        "Z",
        10,
        NoiseModel.uniform(1e-3),
        defective_data={(3, 3), (5, 5)},
    )
    dem = build_dem(circuit)
    detectors, observables = sample_detectors(circuit, shots, seed=seed)
    return dem, detectors, observables


class TestBatchEdgeCases:
    def test_zero_shot_input(self):
        rng = np.random.default_rng(1)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        out = dec.decode_batch(np.zeros((0, dem.num_detectors), dtype=np.uint8))
        assert out.shape == (0,) and out.dtype == np.uint8
        assert dec.logical_error_rate(
            np.zeros((0, dem.num_detectors), dtype=np.uint8),
            np.zeros((0, 1), dtype=np.uint8),
        ) == 0.0

    def test_all_zero_batch(self):
        rng = np.random.default_rng(2)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        out = dec.decode_batch(np.zeros((17, dem.num_detectors), dtype=np.uint8))
        assert out.shape == (17,) and not out.any()
        assert dec.cache_misses == 0  # the fast path never decoded

    def test_one_dimensional_single_shot(self):
        rng = np.random.default_rng(3)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        sample = np.zeros(dem.num_detectors, dtype=np.uint8)
        sample[0] = 1
        out = dec.decode_batch(sample)
        assert out.shape == (1,)
        assert out[0] == dec.decode(sample)

    def test_workers_exceeding_unique_count_stay_serial(self):
        rng = np.random.default_rng(4)
        dem = random_dem(rng)
        serial = MatchingDecoder(dem)
        wide = MatchingDecoder(dem, workers=64)
        samples = rng.integers(0, 2, size=(40, dem.num_detectors), dtype=np.uint8)
        assert not wide._can_shard(40, 64)
        assert (wide.decode_batch(samples) == serial.decode_batch(samples)).all()

    def test_columns_beyond_detector_count_ignored(self):
        """Rows wider than the graph (e.g. appended observables) decode."""
        rng = np.random.default_rng(5)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        samples = rng.integers(0, 2, size=(30, dem.num_detectors), dtype=np.uint8)
        widened = np.concatenate(
            [samples, rng.integers(0, 2, size=(30, 3), dtype=np.uint8)], axis=1
        )
        assert (dec.decode_batch(widened) == dec.decode_batch(samples)).all()


class TestVectorisedAgreement:
    def test_batch_matches_per_shot_on_random_dems(self):
        """The stacked pipeline is bit-identical to serial decoding."""
        rng = np.random.default_rng(21)
        for _ in range(6):
            dem = random_dem(rng, max_detectors=12, max_mechanisms=40)
            batch_dec = MatchingDecoder(dem)
            serial_dec = SerialMatrixDecoder(dem, cache_size=0)
            samples = rng.integers(
                0, 2, size=(200, dem.num_detectors), dtype=np.uint8
            )
            batch = batch_dec.decode_batch(samples)
            singles = np.fromiter(
                (serial_dec.decode(row) for row in samples),
                dtype=np.uint8,
                count=len(samples),
            )
            assert (batch == singles).all()

    def test_batch_matches_per_shot_on_defective_circuit(self):
        dem, detectors, _ = defective_d5_samples()
        batch_dec = MatchingDecoder(dem)
        serial_dec = SerialMatrixDecoder(dem, cache_size=0)
        batch = batch_dec.decode_batch(detectors)
        singles = np.fromiter(
            (serial_dec.decode(row) for row in detectors),
            dtype=np.uint8,
            count=len(detectors),
        )
        assert (batch == singles).all()
        # Dense syndromes force decomposition and oversize components.
        assert detectors.sum(axis=1).max() > 14


class TestDeterminism:
    def test_repeated_batches_identical(self):
        """Fresh decoders re-decoding the same batch agree bit-for-bit
        even where the optimal matching is degenerate."""
        dem, detectors, _ = defective_d5_samples()
        reference = MatchingDecoder(dem).decode_batch(detectors)
        for _ in range(2):
            again = MatchingDecoder(dem).decode_batch(detectors)
            assert (again == reference).all()
        # A cache-disabled decoder re-decodes every shot from scratch.
        uncached = MatchingDecoder(dem, cache_size=0).decode_batch(detectors)
        assert (uncached == reference).all()

    def test_uf_repeated_batches_identical(self):
        dem, detectors, _ = defective_d5_samples()
        reference = MatchingDecoder(dem, method="uf").decode_batch(detectors)
        again = MatchingDecoder(dem, method="uf").decode_batch(detectors)
        assert (again == reference).all()


class TestUnionFindBatch:
    def test_standalone_batch_matches_per_shot_defective(self):
        """UnionFindDecoder inherits the full batching contract."""
        dem, detectors, _ = defective_d5_samples()
        uf = UnionFindDecoder(DecodingGraph(dem))
        batch = uf.decode_batch(detectors)
        singles = np.fromiter(
            (UnionFindDecoder(DecodingGraph(dem), cache_size=0).decode(row)
             for row in detectors),
            dtype=np.uint8,
            count=len(detectors),
        )
        assert (batch == singles).all()

    def test_standalone_matches_mwpm_front_end(self):
        dem, detectors, _ = defective_d5_samples()
        uf = UnionFindDecoder(DecodingGraph(dem))
        via_mwpm = MatchingDecoder(dem, method="uf")
        assert (uf.decode_batch(detectors) == via_mwpm.decode_batch(detectors)).all()

    def test_error_rate_sane_on_defective_circuit(self):
        dem, detectors, observables = defective_d5_samples()
        uf = MatchingDecoder(dem, method="uf")
        blossom = MatchingDecoder(dem)
        # Union-find approximates matching; on untreated-defect noise it
        # must stay in the same regime, not collapse to coin-flipping.
        assert uf.logical_error_rate(detectors, observables) <= (
            blossom.logical_error_rate(detectors, observables) + 0.15
        )


class TestPackedInput:
    @pytest.mark.parametrize("method", ["blossom", "uf", "greedy"])
    def test_packed_rows_equal_uint8_rows(self, method):
        dem, detectors, _ = defective_d5_samples(shots=80)
        packed = PackedBits(gf2_pack(detectors.T), len(detectors))
        a = MatchingDecoder(dem, method=method).decode_batch(packed)
        b = MatchingDecoder(dem, method=method).decode_batch(detectors)
        assert (a == b).all()

    def test_packed_zero_and_empty_batches(self):
        rng = np.random.default_rng(31)
        dem = random_dem(rng)
        dec = MatchingDecoder(dem)
        empty = PackedBits(np.zeros((dem.num_detectors, 0), dtype=np.uint64), 0)
        assert dec.decode_batch(empty).shape == (0,)
        zeros = PackedBits(np.zeros((dem.num_detectors, 2), dtype=np.uint64), 70)
        assert not dec.decode_batch(zeros).any()
