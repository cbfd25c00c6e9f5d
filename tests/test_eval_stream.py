"""Chunked-streaming evaluation harnesses on the unified batch API."""

import pytest

from repro.compiler.programs import Program
from repro.eval import (
    calibrate_lambda_model,
    decoding_throughput,
    evaluate_program,
    memory_experiment,
)
from repro.eval.montecarlo import chunk_plan
from repro.sim import NoiseModel
from repro.surface import rotated_surface_code


class TestChunkPlan:
    def test_single_chunk_passes_seed_through(self):
        assert chunk_plan(100, None, 5) == [(5, 100)]
        assert chunk_plan(100, 200, 5) == [(5, 100)]
        assert chunk_plan(100, 0, 5) == [(5, 100)]

    def test_chunks_cover_all_shots(self):
        plan = chunk_plan(100, 30, None)
        assert [n for _, n in plan] == [30, 30, 30, 10]
        assert all(seed is None for seed, _ in plan)

    def test_seeded_chunks_draw_distinct_streams(self):
        plan = chunk_plan(100, 30, 7)
        seeds = [seed for seed, _ in plan]
        assert len(set(seeds)) == len(seeds)
        assert 7 not in seeds
        assert chunk_plan(100, 30, 7) == plan  # deterministic


class TestChunkedMemoryExperiment:
    def test_reproducible_and_counts_all_shots(self):
        patch = rotated_surface_code(3)
        noise = NoiseModel.uniform(2e-3)
        kwargs = dict(rounds=3, shots=500, seed=11, chunk_shots=128)
        a = memory_experiment(patch.code, "Z", noise, **kwargs)
        b = memory_experiment(patch.code, "Z", noise, **kwargs)
        assert a.shots == 500
        assert a.errors == b.errors

    def test_chunked_rate_statistically_consistent(self):
        patch = rotated_surface_code(3)
        noise = NoiseModel.uniform(5e-3)
        whole = memory_experiment(
            patch.code, "Z", noise, rounds=3, shots=3000, seed=3
        )
        chunked = memory_experiment(
            patch.code, "Z", noise, rounds=3, shots=3000, seed=3,
            chunk_shots=512,
        )
        # Different streams, same distribution: rates agree loosely.
        assert abs(whole.per_shot - chunked.per_shot) < 0.05


class TestDecodingThroughput:
    def test_reports_rates_and_errors(self):
        patch = rotated_surface_code(3)
        result = decoding_throughput(
            patch.code,
            NoiseModel.uniform(2e-3),
            rounds=3,
            shots=600,
            chunk_shots=200,
            seed=5,
        )
        assert result.shots == 600
        assert result.decode_shots_per_sec > 0
        assert result.sample_shots_per_sec > 0
        assert 0.0 <= result.logical_error_rate < 0.2

    def test_takes_workers(self):
        """The same ``workers=`` keyword as every pool-fronting API."""
        result = decoding_throughput(
            rotated_surface_code(3).code,
            NoiseModel.uniform(1e-3),
            rounds=3,
            shots=200,
            seed=2,
            workers=1,
        )
        assert result.shots == 200


class TestCalibratedEndToEnd:
    def test_calibrated_lambda_model_accepted(self):
        program = Program(name="toy", num_qubits=4, cx_count=20, t_count=4)
        result = evaluate_program(
            program,
            "surf_deformer",
            5,
            lambda_model="calibrated",
            calibration={"shots": 300, "distances": (3, 5), "chunk_shots": 128},
        )
        assert result.physical_qubits > 0
        assert 0.0 <= result.retry_risk <= 1.0

    def test_unknown_lambda_string_rejected(self):
        program = Program(name="toy", num_qubits=4, cx_count=20, t_count=4)
        with pytest.raises(ValueError):
            evaluate_program(program, "surf_deformer", 5, lambda_model="magic")

    def test_calibration_without_calibrated_rejected(self):
        program = Program(name="toy", num_qubits=4, cx_count=20, t_count=4)
        with pytest.raises(ValueError):
            evaluate_program(
                program, "surf_deformer", 5, calibration={"shots": 10}
            )

    def test_calibrate_with_chunking_fits_sane_lambda(self):
        model = calibrate_lambda_model(
            noise=NoiseModel.uniform(1e-3),
            distances=(3, 5),
            shots=2000,
            seed=7,
            chunk_shots=512,
        )
        assert model.lam > 1.0  # below threshold: rates fall with d
        assert 0.0 < model.A < 1.0
