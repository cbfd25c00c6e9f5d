"""Packed-engine equivalence tests: layered programs, bitplane frames,
backward-pass DEMs, and the eval-layer decoder cache.

The fast paths must be *exactly* interchangeable with their references:
DEMs identical mechanism-for-mechanism to the per-mechanism oracle in
``tests/dem_oracle.py`` (on hand-built, random and deformed-code
circuits), layered samples bit-identical to the per-instruction engine
of ``tests/sim_oracle.py`` at equal seeds, that engine's packed and
unpacked forms bit-identical under a shared pre-drawn noise mask, and
correct round-trips for ragged shot counts (shots % 64 != 0).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deform_oracles import deformed_corpus
from dem_oracle import per_mechanism_dem
from repro.deform import data_q_rm, syndrome_q_rm
from repro.eval import montecarlo as mc
from repro.sim import (
    Circuit,
    FrameSampler,
    NoiseModel,
    build_dem,
    memory_circuit,
    sample_detectors,
)
from repro.surface import rotated_surface_code
from repro.utils.gf2 import PackedBits
from sim_oracle import OracleSampler


def toy_circuit(p=3e-3):
    """Every instruction kind, including multi-target noise channels."""
    c = Circuit()
    c.reset(0, 1, 2, 3)
    c.x_error(p, 0, 1, 2, 3)
    c.h(0)
    c.depolarize1(2 * p, 0, 1, 2)
    c.cx(0, 1, 2, 3)
    c.depolarize2(p, 0, 1, 2, 3)
    c.h(0)
    c.z_error(p, 0, 2)
    c.reset_x(3)
    c.z_error(p, 3)
    recs = c.measure(0, 1, 2)
    recs += c.measure_x(3)
    c.detector([recs[0]])
    c.detector([recs[1], recs[2]])
    c.detector([recs[3]])
    c.detector([])  # empty detector exercises the dummy-record wiring
    c.observable([recs[1]])
    return c


def deformed_patch():
    """d=5 patch with a removed syndrome qubit (direct gauge
    measurements via weight-1 gauge operators) and a removed data qubit."""
    patch = rotated_surface_code(5)
    syndrome_q_rm(patch, (4, 6))
    data_q_rm(patch, (7, 7))
    return patch


def assert_same_dem(circuit, merge=True):
    want_dem = per_mechanism_dem(circuit, merge=merge)
    got_dem = build_dem(circuit, merge=merge)
    assert got_dem.num_detectors == want_dem.num_detectors
    assert got_dem.num_observables == want_dem.num_observables
    assert got_dem.dropped_hyperedges == want_dem.dropped_hyperedges
    assert len(got_dem.mechanisms) == len(want_dem.mechanisms)
    for got, want in zip(got_dem.mechanisms, want_dem.mechanisms, strict=True):
        assert got.detectors == want.detectors
        assert got.observable_flip == want.observable_flip
        assert got.probability == pytest.approx(want.probability, abs=1e-12)


_GATES = ("H", "CX", "R", "RX", "M", "MX")
_CHANNELS = ("X_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2")


@st.composite
def random_circuits(draw):
    """Every instruction kind in runs of 1–3 (so one layer op merges
    several instructions), single- and multi-target forms, measure/reset
    targets that repeat, p = 0 channels, empty detectors, repeated
    records and 0–2 observables.  Every qubit is read out at the end,
    so most faults reach a record."""
    n = draw(st.integers(2, 5))
    qubit = st.integers(0, n - 1)
    c = Circuit()

    def annotate(kind):
        records = []
        if c.num_measurements:
            record = st.integers(0, c.num_measurements - 1)
            records = draw(st.lists(record, max_size=4))
        c.append(kind, records)

    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from((*_GATES, *_CHANNELS, "DETECTOR", "OBSERVABLE")))
        for _ in range(draw(st.integers(1, 3))):
            if kind in ("DETECTOR", "OBSERVABLE"):
                if kind == "DETECTOR" or c.num_observables < 2:
                    annotate(kind)
                continue
            if kind in ("CX", "DEPOLARIZE2"):
                qs = draw(st.lists(qubit, min_size=2, max_size=n, unique=True))
                qs = qs[: len(qs) - len(qs) % 2]
            elif kind in ("R", "RX", "M", "MX"):
                qs = draw(st.lists(qubit, min_size=1, max_size=n + 2))
            else:
                qs = draw(st.lists(qubit, min_size=1, max_size=n, unique=True))
            arg = 0.0
            if kind in _CHANNELS:
                arg = draw(st.sampled_from((0.0, 1e-3, 0.02, 0.1, 0.5)))
            c.append(kind, qs, arg)
    for q in range(n):
        c.append(draw(st.sampled_from(("M", "MX"))), [q])
    for _ in range(draw(st.integers(1, 5))):
        annotate("DETECTOR")
    for _ in range(draw(st.integers(0, 2 - c.num_observables))):
        annotate("OBSERVABLE")
    return c


class TestDEMAgreement:
    """Backward-pass DEMs == the per-mechanism propagation oracle."""

    def test_toy_circuit(self):
        assert_same_dem(toy_circuit())

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("distance", [3, 5])
    def test_memory_circuits(self, distance, basis):
        patch = rotated_surface_code(distance)
        circuit = memory_circuit(patch.code, basis, 3, NoiseModel.uniform(1e-3))
        assert_same_dem(circuit)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_deformed_code_with_direct_gauge_measurements(self, basis):
        patch = deformed_patch()
        assert any(ch.ancilla is None for ch in patch.code.checks.values()), (
            "deformation should leave directly-measured weight-1 gauges"
        )
        circuit = memory_circuit(patch.code, basis, 3, NoiseModel.uniform(1e-3))
        assert_same_dem(circuit)

    def test_defective_qubits(self):
        patch = rotated_surface_code(3)
        ancilla = next(
            ch.ancilla for ch in patch.code.checks.values() if ch.ancilla
        )
        circuit = memory_circuit(
            patch.code,
            "Z",
            3,
            NoiseModel.uniform(1e-3),
            defective_data={(2, 2)},
            defective_ancillas={ancilla},
        )
        assert_same_dem(circuit)

    def test_merge_false_sums_probabilities(self):
        assert_same_dem(toy_circuit(), merge=False)

    def test_noiseless_circuit(self):
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, "Z", 2, NoiseModel.uniform(0.0))
        assert build_dem(c).mechanisms == []

    def test_qubit_measured_twice_in_a_row(self):
        """A qubit measured again takes the next layer; an ``M`` op that
        names a qubit twice (one instruction) feeds both records."""
        c = Circuit()
        c.reset(0, 1)
        c.x_error(0.1, 0)
        c.depolarize1(0.01, 1)
        recs = c.measure(0, 1)
        recs += c.measure(0)
        recs += c.measure(1, 1)
        c.detector([recs[0]])
        c.detector([recs[2]])
        c.detector([recs[1], recs[0]])
        c.detector([recs[3], recs[1]])
        c.detector([recs[3], recs[4]])
        meas = [
            (op.layer, op.targets.tolist(), op.records.tolist())
            for op in c.compiled().ops
            if op.kind == "M"
        ]
        assert meas == [(2, [0, 1], [0, 1]), (3, [0, 1, 1], [2, 3, 4])]
        dem = build_dem(c)
        assert dem.mechanisms[0].detectors == (0, 1, 2)
        assert_same_dem(c)

    @given(circuit=random_circuits(), merge=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_circuits(self, circuit, merge):
        assert_same_dem(circuit, merge=merge)

    @pytest.mark.parametrize("merge", [True, False])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_deformed_corpus(self, basis, merge):
        """d = 3/5 codes of the cosmic-ray corpus (removal, full
        deformation unit, ASC-S), 2 rounds at p = 1e-3."""
        codes = [
            patch.code
            for name, patch in deformed_corpus()
            if name.startswith(("d3-", "d5-"))
        ]
        assert len(codes) == 43
        for code in codes:
            circuit = memory_circuit(code, basis, 2, NoiseModel.uniform(1e-3))
            assert_same_dem(circuit, merge=merge)


class TestSamplerAgreement:
    """The per-instruction oracle's packed and unpacked engines agree
    exactly under a shared mask."""

    @staticmethod
    def assert_engines_agree(c, shots, seed):
        oracle = OracleSampler(c, seed=seed)
        masks = oracle.draw_masks(shots)
        det_p, obs_p = oracle.sample_masked(masks, shots)
        det_u, obs_u = oracle.sample_masked(masks, shots, packed=False)
        assert det_p.shape == det_u.shape == (shots, c.num_detectors)
        assert obs_p.shape == obs_u.shape == (shots, c.num_observables)
        assert (det_p == det_u).all()
        assert (obs_p == obs_u).all()

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 128, 1000])
    def test_toy_circuit_shared_mask(self, shots):
        self.assert_engines_agree(toy_circuit(p=0.05), shots, seed=5)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_memory_circuit_shared_mask(self, basis):
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, basis, 3, NoiseModel.uniform(3e-3))
        self.assert_engines_agree(c, 130, seed=7)

    def test_deformed_defective_shared_mask(self):
        """Defect noise (p≈0.5) exercises the dense packed-noise path."""
        patch = deformed_patch()
        ancilla = next(
            ch.ancilla for ch in patch.code.checks.values() if ch.ancilla
        )
        c = memory_circuit(
            patch.code,
            "Z",
            3,
            NoiseModel.uniform(1e-3),
            defective_data={(3, 3)},
            defective_ancillas={ancilla},
        )
        self.assert_engines_agree(c, 90, seed=11)

    def test_deterministic_circuit_packed(self):
        """p=1.0 channels (dense path) propagate exactly."""
        c = Circuit()
        c.reset(0, 1)
        c.append("X_ERROR", (0,), 1.0)
        c.cx(0, 1)
        recs = c.measure(0, 1)
        c.detector([recs[0]])
        c.detector([recs[1]])
        det, _ = FrameSampler(c, seed=0).sample(100)
        assert det.all()

    def test_ragged_shots_statistics(self):
        """shots % 64 != 0 must not leak tail bits or drop shots."""
        c = Circuit()
        c.reset(0)
        c.x_error(0.5, 0)
        (rec,) = c.measure(0)
        c.detector([rec])
        det, _ = FrameSampler(c, seed=3).sample(9999)
        assert det.shape == (9999, 1)
        assert abs(det.mean() - 0.5) < 0.03

    def test_sparse_noise_statistics(self):
        """The Binomial+scatter path reproduces Bernoulli(p) exactly."""
        c = Circuit()
        c.reset(0)
        c.x_error(0.01, 0)
        (rec,) = c.measure(0)
        c.detector([rec])
        det, _ = FrameSampler(c, seed=13).sample(200_000)
        se = (0.01 * 0.99 / 200_000) ** 0.5
        assert abs(det.mean() - 0.01) < 5 * se

    def test_unpacked_reference_still_default_free(self):
        """The unpacked (shots, qubits) reference loop draws its own noise."""
        c = toy_circuit()
        det, obs = OracleSampler(c, seed=1).sample_unpacked(10)
        assert det.shape == (10, c.num_detectors)
        assert obs.shape == (10, c.num_observables)


class TestLayeredSampler:
    """The layered sampler draws the per-instruction engine's bits."""

    @staticmethod
    def assert_same_samples(c, shots, seed):
        layered = FrameSampler(c, seed=seed)
        oracle = OracleSampler(c, seed=seed)
        for _ in range(2):  # the second draw continues the same stream
            det, obs = layered.sample_packed(shots)
            want_det, want_obs = oracle.sample_packed(shots)
            np.testing.assert_array_equal(det.words, want_det)
            np.testing.assert_array_equal(obs.words, want_obs)

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 1000])
    @given(circuit=random_circuits(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_circuits(self, shots, circuit, seed):
        self.assert_same_samples(circuit, shots, seed)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_memory_circuit_with_collisions(self, basis):
        """p = 0.02 over 1,000 shots: channels of more and fewer than 25
        flips, and positions that collide and are redrawn."""
        c = memory_circuit(
            rotated_surface_code(3).code, basis, 4, NoiseModel.uniform(0.02)
        )
        self.assert_same_samples(c, 1000, seed=3)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_small_resolution_blocks(self, monkeypatch, block):
        """Blocks far smaller than a run's flips: channels resolve over
        many blocks, some ahead of the layer that applies them, with
        dense channels (p ≥ 0.05) in between."""
        monkeypatch.setattr("repro.sim.frame._FLIP_BLOCK", block)
        noise = NoiseModel(p1=0.1, p2=0.02, p_meas=0.0, p_reset=1e-3, p_data_round=0.5)
        c = memory_circuit(rotated_surface_code(3).code, "X", 3, noise)
        self.assert_same_samples(c, 700, seed=4)

    def test_zero_shots(self):
        c = toy_circuit(p=0.1)
        det, obs = FrameSampler(c, seed=2).sample(0)
        assert det.shape == (0, c.num_detectors)
        assert obs.shape == (0, c.num_observables)
        self.assert_same_samples(c, 0, seed=2)


class TestSampleOutputContract:
    """``output=`` picks the sample container: rows or bitplanes."""

    def test_output_rows_is_default(self):
        det, obs = sample_detectors(toy_circuit(), 8, seed=1)
        assert isinstance(det, np.ndarray)
        assert isinstance(obs, np.ndarray)

    def test_output_packed(self):
        det, obs = sample_detectors(toy_circuit(), 8, seed=1, output="packed")
        assert isinstance(det, PackedBits)
        assert isinstance(obs, PackedBits)
        rows, _ = sample_detectors(toy_circuit(), 8, seed=1)
        np.testing.assert_array_equal(det.transposed().unpack(), rows)

    def test_unknown_output_is_an_error(self):
        with pytest.raises(ValueError, match="packed"):
            sample_detectors(toy_circuit(), 8, seed=1, output="bitplane")


class TestCompiledCircuit:
    def test_compile_is_cached(self):
        c = toy_circuit()
        assert c.compiled() is c.compiled()

    def test_compile_cache_invalidated_by_append(self):
        c = toy_circuit()
        first = c.compiled()
        c.h(0)
        second = c.compiled()
        assert first is not second
        assert len(second.ops) == len(first.ops) + 1

    def test_fusion_preserves_measurement_wiring(self):
        """Measurements merged into one layer op keep their records."""
        c = Circuit()
        c.reset(0, 1, 2)
        c.measure(2)
        c.measure(0)
        c.h(1)
        c.measure(1)
        meas = [
            (op.layer, op.targets.tolist(), op.records.tolist())
            for op in c.compiled().ops
            if op.kind == "M"
        ]
        assert meas == [(1, [2, 0], [0, 1]), (2, [1], [2])]


class TestDecoderCacheKeying:
    def test_content_identical_codes_hit_cache(self):
        """Fresh but content-identical SubsystemCodes must share a decoder."""
        mc.clear_decoder_cache()
        noise = NoiseModel.uniform(1e-3)
        code_a = rotated_surface_code(3).code
        code_b = rotated_surface_code(3).code
        assert code_a is not code_b
        dec_a = mc._cached_decoder(code_a, "Z", 3, noise, None, None, "blossom")
        dec_b = mc._cached_decoder(code_b, "Z", 3, noise, None, None, "blossom")
        assert dec_a is dec_b
        assert len(mc._DECODER_CACHE) == 1
        mc.clear_decoder_cache()

    def test_different_content_misses_cache(self):
        mc.clear_decoder_cache()
        noise = NoiseModel.uniform(1e-3)
        dec3 = mc._cached_decoder(
            rotated_surface_code(3).code, "Z", 3, noise, None, None, "blossom"
        )
        dec5 = mc._cached_decoder(
            rotated_surface_code(5).code, "Z", 3, noise, None, None, "blossom"
        )
        assert dec3 is not dec5
        assert len(mc._DECODER_CACHE) == 2
        mc.clear_decoder_cache()
