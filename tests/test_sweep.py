"""Checkpointed sweep runner: resume, bit-identity, retries, journal."""

import json
import time

import pytest

import repro.sweep.runner as runner_mod
from repro.eval.montecarlo import chunk_plan, memory_experiment
from repro.sim import NoiseModel
from repro.surface import rotated_surface_code
from repro.sweep import (
    ChunkTimeout,
    SweepCell,
    SweepError,
    SweepSpec,
    SweepSpecMismatch,
    cell_seed,
    read_journal,
    run_sweep,
)

pytestmark = pytest.mark.fault_injection

ROUNDS = 3


def small_spec(seed=11, shots=240, chunk_shots=80):
    """Two d=3 cells, three chunks each — fast but error-bearing."""
    return SweepSpec(
        cells=(
            SweepCell(distance=3, p=0.02, rounds=ROUNDS, shots=shots),
            SweepCell(distance=3, p=0.04, rounds=ROUNDS, shots=shots),
        ),
        seed=seed,
        chunk_shots=chunk_shots,
    )


def reference_errors(spec, index):
    """What an uninterrupted chunked run of cell ``index`` produces."""
    cell = spec.cells[index]
    return memory_experiment(
        rotated_surface_code(cell.distance).code,
        cell.basis,
        NoiseModel.uniform(cell.p),
        rounds=cell.rounds,
        shots=cell.shots,
        seed=cell_seed(spec, index),
        chunk_shots=spec.chunk_shots,
    ).errors


class TestChunkPlan:
    def test_single_chunk_passes_seed_through(self):
        assert chunk_plan(100, None, 7) == [(7, 100)]
        assert chunk_plan(100, 100, 7) == [(7, 100)]

    def test_sizes_cover_shots_with_remainder(self):
        plan = chunk_plan(250, 100, 3)
        assert [n for _, n in plan] == [100, 100, 50]
        assert len({seed for seed, _ in plan}) == 3  # decorrelated

    def test_deterministic(self):
        assert chunk_plan(250, 100, 3) == chunk_plan(250, 100, 3)

    def test_cell_seeds_decorrelated_and_stable(self):
        spec = small_spec()
        assert cell_seed(spec, 0) != cell_seed(spec, 1)
        assert cell_seed(spec, 0) == cell_seed(small_spec(), 0)


class TestRunSweep:
    def test_matches_uninterrupted_memory_experiment(self, tmp_path):
        spec = small_spec()
        result = run_sweep(spec, tmp_path / "sweep")
        assert result.executed_chunks == 6
        assert result.resumed_chunks == 0
        for i in range(len(spec.cells)):
            assert result.cells[i].errors == reference_errors(spec, i)
            assert result.cells[i].shots == spec.cells[i].shots
        # The interesting case is a nonzero count on at least one cell.
        assert any(r.errors > 0 for r in result.cells)

    def test_rerun_resumes_every_chunk(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, tmp_path / "sweep")
        second = run_sweep(spec, tmp_path / "sweep")
        assert second.executed_chunks == 0
        assert second.resumed_chunks == 6
        assert [r.errors for r in second.cells] == [
            r.errors for r in first.cells
        ]

    def test_partial_journal_resumes_only_missing_chunks(self, tmp_path):
        spec = small_spec()
        full = run_sweep(spec, tmp_path / "full")

        # Rebuild a journal holding the header and only the first two
        # chunk records — a sweep killed mid-cell-0.
        records, _ = read_journal(full.journal_path)
        kept = [
            records[0],
            *[r for r in records if r.get("type") == "chunk"][:2],
        ]
        partial_dir = tmp_path / "partial"
        partial_dir.mkdir()
        (partial_dir / "journal.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in kept)
        )

        resumed = run_sweep(spec, partial_dir)
        assert resumed.resumed_chunks == 2
        assert resumed.executed_chunks == 4
        assert [r.errors for r in resumed.cells] == [
            r.errors for r in full.cells
        ]

    def test_resume_false_refuses_existing_journal(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, tmp_path / "sweep")
        with pytest.raises(SweepError, match="already holds"):
            run_sweep(spec, tmp_path / "sweep", resume=False)

    def test_different_spec_refused(self, tmp_path):
        run_sweep(small_spec(seed=11), tmp_path / "sweep")
        with pytest.raises(SweepSpecMismatch):
            run_sweep(small_spec(seed=12), tmp_path / "sweep")

    def test_tampered_chunk_record_refused(self, tmp_path):
        spec = small_spec()
        result = run_sweep(spec, tmp_path / "sweep")
        records, _ = read_journal(result.journal_path)
        for r in records:
            if r.get("type") == "chunk":
                r["seed"] = r["seed"] ^ 1
                break
        result.journal_path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        with pytest.raises(SweepSpecMismatch, match="chunk plan"):
            run_sweep(spec, tmp_path / "sweep")

    def test_torn_tail_tolerated(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, tmp_path / "sweep")
        # A crash mid-append leaves a truncated final line.
        with open(first.journal_path, "a") as f:
            f.write('{"type":"chunk","cell":1,"chu')
        records, corrupt = read_journal(first.journal_path)
        assert corrupt == 1
        assert len(records) == 7  # header + 6 chunks survive
        second = run_sweep(spec, tmp_path / "sweep")
        assert second.executed_chunks == 0
        assert [r.errors for r in second.cells] == [
            r.errors for r in first.cells
        ]

    def test_results_json_published(self, tmp_path):
        spec = small_spec()
        result = run_sweep(spec, tmp_path / "sweep")
        payload = json.loads(result.results_path.read_text())
        assert payload["fingerprint"] == spec.fingerprint()
        assert [c["label"] for c in payload["cells"]] == [
            "d3_p0.02_Z",
            "d3_p0.04_Z",
        ]
        assert [c["errors"] for c in payload["cells"]] == [
            r.errors for r in result.cells
        ]
        assert all(not c["failed"] for c in payload["cells"])

    def test_chunk_hook_runs_after_commit(self, tmp_path):
        spec = small_spec()
        seen = []
        run_sweep(spec, tmp_path / "sweep", chunk_hook=seen.append)
        assert len(seen) == 6
        assert all(r["type"] == "chunk" for r in seen)
        # Every hooked record was already durable when the hook ran.
        records, _ = read_journal(tmp_path / "sweep" / "journal.jsonl")
        journaled = [r for r in records if r.get("type") == "chunk"]
        assert seen == journaled

    def test_hook_crash_loses_no_journaled_work(self, tmp_path):
        spec = small_spec()

        def hook(record):
            if record["cell"] == 1:
                raise RuntimeError("observer crashed")

        with pytest.raises(RuntimeError, match="observer crashed"):
            run_sweep(spec, tmp_path / "sweep", chunk_hook=hook)
        resumed = run_sweep(spec, tmp_path / "sweep")
        # Chunks 0-2 of cell 0 and chunk 0 of cell 1 were committed
        # before the hook raised.
        assert resumed.resumed_chunks == 4
        assert resumed.executed_chunks == 2
        assert [r.errors for r in resumed.cells] == [
            reference_errors(spec, i) for i in range(2)
        ]


class TestRetryAndTimeout:
    def test_with_retry_backs_off_exponentially(self):
        sleeps = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ValueError("transient")
            return "ok"

        value, used = runner_mod._with_retry(
            flaky, max_attempts=5, backoff_base=0.25, sleep=sleeps.append
        )
        assert (value, used) == ("ok", 3)
        assert sleeps == [0.25, 0.5]

    def test_with_retry_raises_after_budget(self):
        sleeps = []

        def always():
            raise ValueError("permanent")

        with pytest.raises(ValueError, match="permanent"):
            runner_mod._with_retry(
                always, max_attempts=3, backoff_base=1.0, sleep=sleeps.append
            )
        assert sleeps == [1.0, 2.0]

    def test_transient_chunk_failure_retried(self, tmp_path, monkeypatch):
        spec = small_spec()
        real = memory_experiment
        state = {"failures_left": 2, "calls": 0}

        def flaky(*args, **kwargs):
            state["calls"] += 1
            if state["failures_left"] > 0:
                state["failures_left"] -= 1
                raise OSError("transient worker loss")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "memory_experiment", flaky)
        sleeps = []
        result = run_sweep(
            spec,
            tmp_path / "sweep",
            max_attempts=3,
            backoff_base=0.125,
            sleep=sleeps.append,
        )
        assert sleeps == [0.125, 0.25]
        assert [r.errors for r in result.cells] == [
            reference_errors(spec, i) for i in range(2)
        ]
        records, _ = read_journal(result.journal_path)
        first_chunk = next(r for r in records if r.get("type") == "chunk")
        assert first_chunk["attempts"] == 3

    def test_permanent_failure_isolated_to_cell(self, tmp_path, monkeypatch):
        spec = small_spec()
        real = memory_experiment

        def broken_cell0(code, basis, noise, **kwargs):
            if kwargs["seed"] in dict(
                chunk_plan(
                    spec.cells[0].shots,
                    spec.chunk_shots,
                    cell_seed(spec, 0),
                )
            ):
                raise RuntimeError("decoder exploded")
            return real(code, basis, noise, **kwargs)

        monkeypatch.setattr(runner_mod, "memory_experiment", broken_cell0)
        result = run_sweep(
            spec,
            tmp_path / "sweep",
            max_attempts=2,
            sleep=lambda s: None,
            strict=False,
        )
        assert result.cells[0].failed
        assert "decoder exploded" in result.cells[0].error
        assert result.cells[0].chunks == 0
        # The healthy cell still ran to completion.
        assert not result.cells[1].failed
        assert result.cells[1].errors == reference_errors(spec, 1)
        records, _ = read_journal(result.journal_path)
        assert any(r.get("type") == "cell_failed" for r in records)
        # results.json records the partial outcome.
        payload = json.loads(result.results_path.read_text())
        assert payload["cells"][0]["failed"]

        # strict=True raises instead, naming the failed cell...
        with pytest.raises(SweepError, match="d3_p0.02_Z"):
            run_sweep(
                spec,
                tmp_path / "strict",
                max_attempts=2,
                sleep=lambda s: None,
            )
        # ...and once the cause is fixed, resuming the journal completes
        # the failed cell bit-identically.
        monkeypatch.setattr(runner_mod, "memory_experiment", real)
        healed = run_sweep(spec, tmp_path / "sweep")
        assert healed.resumed_chunks == 3
        assert healed.executed_chunks == 3
        assert [r.errors for r in healed.cells] == [
            reference_errors(spec, i) for i in range(2)
        ]

    def test_chunk_timeout_counts_as_failure(self, tmp_path, monkeypatch):
        spec = small_spec()

        def stuck(*args, **kwargs):
            time.sleep(5.0)
            raise AssertionError("unreachable")  # pragma: no cover

        monkeypatch.setattr(runner_mod, "memory_experiment", stuck)
        t0 = time.monotonic()
        with pytest.raises(SweepError, match="failed permanently"):
            run_sweep(
                spec,
                tmp_path / "sweep",
                max_attempts=1,
                chunk_timeout=0.1,
                sleep=lambda s: None,
            )
        assert time.monotonic() - t0 < 4.0  # the budget interrupted sleep
        records, _ = read_journal(tmp_path / "sweep" / "journal.jsonl")
        failed = [r for r in records if r.get("type") == "cell_failed"]
        assert failed and "ChunkTimeout" in failed[0]["error"]

    def test_chunk_guard_noop_off_main_thread(self):
        import threading

        outcome = {}

        def worker():
            with runner_mod._chunk_guard(0.001) as guard:
                outcome["active"] = guard.active
                time.sleep(0.05)
            outcome["survived"] = True

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert outcome == {"active": False, "survived": True}

    def test_chunk_timeout_exception_type(self):
        with pytest.raises(ChunkTimeout):
            with runner_mod._chunk_guard(0.05):
                time.sleep(2.0)


class TestSpecPlumbing:
    def test_label(self):
        assert SweepCell(3, 1e-3).label() == "d3_p0.001_Z"
        assert (
            SweepCell(5, 0.02, basis="X", scenario="untreated").label()
            == "d5_p0.02_X_untreated"
        )

    def test_fingerprint_sensitive_to_every_field(self):
        base = small_spec()
        assert base.fingerprint() == small_spec().fingerprint()
        assert base.fingerprint() != small_spec(seed=99).fingerprint()
        assert base.fingerprint() != small_spec(shots=241).fingerprint()
        assert (
            base.fingerprint() != small_spec(chunk_shots=81).fingerprint()
        )

    def test_fingerprint_pinned_digest(self):
        """A spec's digest is part of the journal contract: resuming
        needs it unchanged across releases (value recorded before the
        ``decoder_workers`` alias was retired)."""
        spec = SweepSpec(
            cells=(
                SweepCell(distance=3, p=1e-3, rounds=3, shots=64),
                SweepCell(distance=5, p=2e-3),
            ),
            seed=7,
            chunk_shots=100,
            workers=2,
        )
        assert spec.fingerprint() == (
            "d79a20af3a7063ec77134b4a7fbd30e57fed84da11b96234323abcd57f5d945f"
        )

    def test_defect_sets_order_independent(self):
        a = SweepSpec(
            cells=(SweepCell(3, 1e-3, defective_data=frozenset({1, 5, 9})),)
        )
        b = SweepSpec(
            cells=(SweepCell(3, 1e-3, defective_data=frozenset({9, 1, 5})),)
        )
        assert a.fingerprint() == b.fingerprint()

    def test_artifact_store_auto_populates_sweep_dir(self, tmp_path):
        import repro.eval.montecarlo as mc

        # A warm in-process decoder memo skips the build (and thus the
        # store); clear it to exercise the cold path a fresh resume
        # process would take.
        mc._DECODER_CACHE.clear()
        run_sweep(small_spec(), tmp_path / "sweep")
        objects = tmp_path / "sweep" / "artifacts" / "objects"
        kinds = sorted(p.name for p in objects.iterdir())
        assert kinds == ["dem", "path_matrices"]

    def test_artifact_store_none_disables_cache(self, tmp_path):
        run_sweep(small_spec(), tmp_path / "sweep", artifact_store=None)
        assert not (tmp_path / "sweep" / "artifacts").exists()
