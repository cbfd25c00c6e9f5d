"""Tests for the circuit IR, Pauli-frame sampler and DEM extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dem_oracle import expand_channels
from repro.sim import Circuit, FrameSampler, NoiseModel, build_dem, memory_circuit
from repro.surface import rotated_surface_code


class TestCircuit:
    def test_measure_returns_record_indices(self):
        c = Circuit()
        assert c.measure(0, 1) == [0, 1]
        assert c.measure(2) == [2]
        assert c.num_measurements == 3

    def test_detector_validates_records(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.detector([0])

    def test_unknown_gate_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.append("CZ", (0, 1))

    def test_cx_needs_pairs(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.append("CX", (0, 1, 2))

    def test_qubit_count_tracks_max(self):
        c = Circuit()
        c.h(7)
        assert c.num_qubits == 8

    def test_zero_probability_noise_skipped(self):
        c = Circuit()
        c.x_error(0.0, 0)
        assert len(c) == 0

    def test_replay_equals_appending_each_copy(self):
        """Each copy's detector and observable records move by the
        records one copy writes."""
        replayed = Circuit()
        replayed.reset(0, 1)
        first = replayed.measure(0, 1)
        start = len(replayed)
        replayed.cx(0, 1)
        recs = replayed.measure(0, 1)
        replayed.detector([recs[0], first[0]])
        replayed.observable([recs[1]])
        replayed.replay(start, 2)

        built = Circuit()
        built.reset(0, 1)
        prev = built.measure(0, 1)
        for _ in range(3):
            built.cx(0, 1)
            recs = built.measure(0, 1)
            built.detector([recs[0], prev[0]])
            built.observable([recs[1]])
            prev = recs
        assert replayed == built

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_out_of_range_probability_rejected(self, p):
        c = Circuit()
        with pytest.raises(ValueError, match="X_ERROR probability"):
            c.x_error(p, 0)
        with pytest.raises(ValueError, match="X_ERROR probability"):
            c.x_error(p)  # no qubits: still checked
        with pytest.raises(ValueError, match="DEPOLARIZE2 probability"):
            c.append("DEPOLARIZE2", (0, 1), p)
        assert len(c) == 0

    def test_probability_bounds_accepted(self):
        c = Circuit()
        c.x_error(1.0, 0)
        c.append("Z_ERROR", (0,), 0.0)
        assert [i.arg for i in c.instructions] == [1.0, 0.0]

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: NoiseModel.uniform(-0.2), "p1"),
            (lambda: NoiseModel(p_defect=float("nan")), "p_defect"),
            (lambda: NoiseModel().with_correlated(1.5), "p2"),
        ],
    )
    def test_noise_model_rejects_out_of_range(self, make, field):
        with pytest.raises(ValueError, match=f"NoiseModel.{field} "):
            make()

    @pytest.mark.parametrize(
        "name, targets, repeated",
        [
            ("H", (3, 3), 3),
            ("CX", (0, 1, 0, 2), 0),  # control reused by a second pair
            ("CX", (0, 1, 1, 2), 1),  # target of one pair, control of the next
            ("CX", (2, 2), 2),
            ("X_ERROR", (1, 2, 1), 1),
            ("Z_ERROR", (1, 1), 1),
            ("DEPOLARIZE1", (0, 4, 4), 4),
            ("DEPOLARIZE2", (0, 1, 2, 1), 1),
            ("DEPOLARIZE2", (5, 5), 5),
        ],
    )
    def test_repeated_qubit_rejected(self, name, targets, repeated):
        """Targets act in parallel: a qubit named twice would lose an update."""
        c = Circuit()
        with pytest.raises(ValueError, match=f"{name} names qubit {repeated} "):
            c.append(name, targets, 1e-3)
        assert len(c) == 0

    @pytest.mark.parametrize("name", ["M", "MX", "R", "RX"])
    def test_measure_and_reset_accept_repeated_qubit(self, name):
        c = Circuit()
        c.append(name, (0, 1, 0))
        assert len(c) == 1

    def test_split_cnots_apply_sequentially(self):
        """``CX 0 1 0 2`` as two instructions: Z errors on 1 and 2 both
        reach the control, as in sequential (Stim) order."""

        def fan_in(p):
            c = Circuit()
            c.reset_x(0)
            c.reset(1, 2)
            c.append("Z_ERROR", (1, 2), p)
            c.cx(0, 1)
            c.cx(0, 2)
            (rec,) = c.measure_x(0)
            c.detector([rec])
            return c

        det, _ = FrameSampler(fan_in(1.0), seed=0).sample(64)
        assert not det.any()  # the two Z errors cancel on the control
        (m,) = build_dem(fan_in(1e-3)).mechanisms
        assert m.probability == pytest.approx(2 * 1e-3 * (1 - 1e-3), abs=1e-15)


class TestFrameSampler:
    def test_deterministic_bell_detector(self):
        """CX-propagated X error flips both qubits' Z measurements."""
        c = Circuit()
        c.reset(0, 1)
        c.append("X_ERROR", (0,), 1.0)  # always flip
        c.cx(0, 1)
        recs = c.measure(0, 1)
        c.detector([recs[0]])
        c.detector([recs[1]])
        det, _ = FrameSampler(c, seed=0).sample(8)
        assert det.all()

    def test_z_error_invisible_to_z_measurement(self):
        c = Circuit()
        c.reset(0)
        c.append("Z_ERROR", (0,), 1.0)
        (rec,) = c.measure(0)
        c.detector([rec])
        det, _ = FrameSampler(c, seed=0).sample(8)
        assert not det.any()

    def test_hadamard_converts_z_to_x(self):
        c = Circuit()
        c.reset(0)
        c.append("Z_ERROR", (0,), 1.0)
        c.h(0)
        (rec,) = c.measure(0)
        c.detector([rec])
        det, _ = FrameSampler(c, seed=0).sample(8)
        assert det.all()

    def test_mx_sees_z_frame(self):
        c = Circuit()
        c.reset_x(0)
        c.append("Z_ERROR", (0,), 1.0)
        (rec,) = c.measure_x(0)
        c.detector([rec])
        det, _ = FrameSampler(c, seed=0).sample(8)
        assert det.all()

    def test_reset_clears_frame(self):
        c = Circuit()
        c.reset(0)
        c.append("X_ERROR", (0,), 1.0)
        c.reset(0)
        (rec,) = c.measure(0)
        c.detector([rec])
        det, _ = FrameSampler(c, seed=0).sample(8)
        assert not det.any()

    @given(st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=10, deadline=None)
    def test_x_error_rate_statistics(self, p):
        c = Circuit()
        c.reset(0)
        c.x_error(p, 0)
        (rec,) = c.measure(0)
        c.detector([rec])
        det, _ = FrameSampler(c, seed=42).sample(4000)
        assert abs(det.mean() - p) < 0.05

    def test_depolarize2_marginal(self):
        """Each qubit of a DEPOLARIZE2 sees an X-component 8/15 p of the time."""
        c = Circuit()
        c.reset(0, 1)
        c.depolarize2(0.3, 0, 1)
        recs = c.measure(0, 1)
        c.detector([recs[0]])
        det, _ = FrameSampler(c, seed=11).sample(20000)
        assert abs(det.mean() - 0.3 * 8 / 15) < 0.02


class TestDEM:
    def test_channel_expansion_counts(self):
        c = Circuit()
        c.reset(0, 1)
        c.x_error(0.1, 0)
        c.depolarize1(0.1, 0)
        c.depolarize2(0.1, 0, 1)
        c.measure(0, 1)
        assert len(expand_channels(c)) == 1 + 3 + 15

    def test_mechanism_probabilities_merge(self):
        c = Circuit()
        c.reset(0)
        c.x_error(0.1, 0)
        c.x_error(0.1, 0)
        (rec,) = c.measure(0)
        c.detector([rec])
        dem = build_dem(c)
        assert len(dem.mechanisms) == 1
        assert dem.mechanisms[0].probability == pytest.approx(0.1 * 0.9 + 0.9 * 0.1)

    def test_noiseless_circuit_empty_dem(self):
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, "Z", 2, NoiseModel.uniform(0.0))
        assert build_dem(c).mechanisms == []

    def test_surface_code_dem_is_graphlike(self):
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, "Z", 3, NoiseModel.uniform(1e-3))
        dem = build_dem(c)
        assert dem.dropped_hyperedges == 0
        assert all(len(m.detectors) <= 2 for m in dem.mechanisms)

    def test_mechanisms_match_sampling(self):
        """Single fault injection matches the DEM's predicted signature."""
        c = Circuit()
        c.reset(0, 1)
        c.x_error(0.2, 0)
        c.cx(0, 1)
        recs = c.measure(0, 1)
        c.detector([recs[0]])
        c.detector([recs[1]])
        c.observable([recs[1]])
        dem = build_dem(c)
        (m,) = dem.mechanisms
        assert m.detectors == (0, 1)
        assert m.observable_flip


class TestMemoryCircuit:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_noiseless_deterministic(self, basis):
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, basis, 3, NoiseModel.uniform(0.0))
        det, obs = FrameSampler(c, seed=0).sample(4)
        assert not det.any() and not obs.any()

    def test_deformed_code_noiseless_deterministic(self):
        """Super-stabilizer detectors stay deterministic (gauge products)."""
        from repro.deform import data_q_rm, syndrome_q_rm

        patch = rotated_surface_code(5)
        syndrome_q_rm(patch, (4, 6))
        data_q_rm(patch, (7, 7))
        for basis in ("Z", "X"):
            c = memory_circuit(patch.code, basis, 3, NoiseModel.uniform(0.0))
            det, obs = FrameSampler(c, seed=0).sample(4)
            assert not det.any() and not obs.any()

    def test_detector_count(self):
        patch = rotated_surface_code(3)
        c = memory_circuit(patch.code, "Z", 4, NoiseModel.uniform(1e-3))
        z_gens = sum(1 for g in patch.code.stabilizers.values() if g.basis == "Z")
        assert c.num_detectors == z_gens * (4 + 1)

    def test_rejects_bad_basis(self):
        patch = rotated_surface_code(3)
        with pytest.raises(ValueError):
            memory_circuit(patch.code, "Y", 2, NoiseModel.uniform(0))
