"""Checkpointed, resumable Monte-Carlo sweeps.

A sweep is a grid of ``(distance, p, basis, scenario)`` cells, each a
memory experiment of ``cell.shots`` shots.  The runner shards every
cell into chunk-level work units using the *same* chunk plan the
streaming evaluator uses (:func:`repro.eval.montecarlo.chunk_plan`):
chunk ``j`` of a cell runs standalone as ``memory_experiment(shots=n,
seed=chunk_seed)``, drawing exactly the bits chunk ``j`` of an
uninterrupted ``chunk_shots``-streamed run would draw.  Completed
chunks are durably journaled (:mod:`repro.sweep.journal`) — counts
plus the chunk's derived RNG seed — so a sweep killed at any instant
resumes by replaying only the missing chunks, and the merged
logical-error counts are **bit-identical** to a run that was never
interrupted.

Robustness around each chunk:

* retry with exponential backoff (``max_attempts``, ``backoff_base``);
* an optional per-chunk wall-clock budget (``chunk_timeout``,
  SIGALRM-based, skipped off the main thread) whose expiry counts as a
  failed attempt;
* a cell whose retry budget is exhausted is recorded as failed and the
  sweep *continues* with the remaining cells — by default the failure
  is raised only after everything else completed (``strict=True``).

Builds are shared two ways: the in-process decoder and circuit memos of
:mod:`repro.eval.montecarlo` (a cell's chunks build its circuit once),
and — when an artifact store is active — the on-disk store, so a
resumed sweep (a fresh process) skips the DEM/matrix builds its
predecessor already paid for.  By default each sweep keeps a store
under ``<sweep_dir>/artifacts``; pass ``artifact_store=`` a shared
:class:`~repro.store.ArtifactStore` (or path) to pool builds across
sweeps, or ``None`` to disable.
"""

from __future__ import annotations

import signal
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import json
import os

import numpy as np

from repro.eval.montecarlo import chunk_plan, memory_experiment, resolved_rounds
from repro.sim import NoiseModel
from repro.store import ArtifactStore, atomic_write_text, key_digest, using_store
from repro.surface import rotated_surface_code
from repro.sweep.journal import JOURNAL_FORMAT, append_record, read_journal

__all__ = [
    "SweepCell",
    "SweepSpec",
    "CellResult",
    "SweepResult",
    "SweepError",
    "SweepSpecMismatch",
    "ChunkTimeout",
    "cell_seed",
    "run_sweep",
]


class SweepError(RuntimeError):
    """A sweep-level failure (cells exhausted their retry budget)."""


class SweepSpecMismatch(SweepError):
    """A journal belongs to a different sweep than the one resuming."""


class ChunkTimeout(SweepError):
    """A chunk attempt exceeded its wall-clock budget."""


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a code distance, noise level and scenario."""

    distance: int
    p: float
    basis: str = "Z"
    rounds: int | None = None
    shots: int = 2000
    defective_data: frozenset = frozenset()
    defective_ancillas: frozenset = frozenset()
    decoder_method: str = "blossom"
    decoder_aware_of_defects: bool = False
    #: Free-form scenario tag carried into results (e.g. "memory",
    #: "untreated_defect"); part of the content fingerprint.
    scenario: str = "memory"

    def label(self) -> str:
        tag = "" if self.scenario == "memory" else f"_{self.scenario}"
        return f"d{self.distance}_p{self.p:g}_{self.basis}{tag}"


@dataclass(frozen=True)
class SweepSpec:
    """The full, content-fingerprinted definition of a sweep.

    ``workers`` is the worker-count field (it names the ``workers=``
    kwarg handed to ``decode_batch``).
    """

    cells: tuple[SweepCell, ...]
    seed: int = 0
    chunk_shots: int | None = None
    workers: int | None = None

    def fingerprint(self) -> str:
        """Content digest; must match for a journal to be resumable."""
        return key_digest(("sweep-spec", JOURNAL_FORMAT, self))


@dataclass(frozen=True)
class CellResult:
    """Merged outcome of one cell (possibly across several runs)."""

    cell: SweepCell
    rounds: int
    shots: int
    errors: int
    chunks: int
    failed: bool = False
    error: str | None = None

    @property
    def per_shot(self) -> float:
        return self.errors / self.shots if self.shots else 0.0

    @property
    def per_round(self) -> float:
        p = min(self.per_shot, 0.5)
        if p <= 0:
            return 0.0
        return (1 - (1 - 2 * p) ** (1.0 / self.rounds)) / 2


@dataclass
class SweepResult:
    """Everything a finished (or partially failed) sweep produced."""

    spec: SweepSpec
    cells: list[CellResult]
    journal_path: Path
    results_path: Path
    resumed_chunks: int = 0
    executed_chunks: int = 0
    failures: list[CellResult] = field(default_factory=list)

    def cell(self, label: str) -> CellResult:
        for result in self.cells:
            if result.cell.label() == label:
                return result
        raise KeyError(label)


def cell_seed(spec: SweepSpec, index: int) -> int:
    """The derived RNG seed of cell ``index`` — one independent
    ``SeedSequence`` child per cell, so cells are decorrelated and a
    cell's sample stream is independent of every other cell's."""
    children = np.random.SeedSequence(spec.seed).spawn(len(spec.cells))
    return int(children[index].generate_state(1)[0])


def _cell_plan(spec: SweepSpec, index: int) -> list[tuple[int, int]]:
    """``(chunk_seed, shots)`` work units of cell ``index``."""
    cell = spec.cells[index]
    return chunk_plan(cell.shots, spec.chunk_shots, cell_seed(spec, index))


# -- retry / timeout ----------------------------------------------------
def _chunk_guard(seconds: float | None):
    """SIGALRM-based wall-clock budget; a no-op where unusable.

    Only the main thread of the main interpreter can own SIGALRM; in
    worker threads (or on platforms without it) the budget silently
    degrades to "no timeout" — retries and journaling still protect
    the sweep, only runaway-chunk interruption is lost.
    """

    class _Guard:
        def __enter__(self):
            self.active = bool(seconds) and hasattr(signal, "SIGALRM") and (
                threading.current_thread() is threading.main_thread()
            )
            if not self.active:
                return self

            def _raise(signum, frame):
                raise ChunkTimeout(f"chunk exceeded {seconds:g}s budget")

            self._old = signal.signal(signal.SIGALRM, _raise)
            signal.setitimer(signal.ITIMER_REAL, seconds)
            return self

        def __exit__(self, *exc):
            if self.active:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, self._old)
            return False

    return _Guard()


def _with_retry(
    fn,
    *,
    max_attempts: int,
    backoff_base: float,
    sleep=time.sleep,
):
    """``(result, attempts)`` of ``fn``, retrying with exponential
    backoff; the final failure propagates to the caller."""
    for attempt in range(1, max_attempts + 1):
        try:
            return fn(), attempt
        except Exception:
            if attempt >= max_attempts:
                raise
            sleep(backoff_base * (2.0 ** (attempt - 1)))


# -- the runner ---------------------------------------------------------
def run_sweep(
    spec: SweepSpec,
    sweep_dir: str | os.PathLike,
    *,
    resume: bool = True,
    max_attempts: int = 3,
    backoff_base: float = 0.25,
    chunk_timeout: float | None = None,
    chunk_hook: Callable[[dict], object] | None = None,
    artifact_store: ArtifactStore | str | os.PathLike | None = "auto",
    strict: bool = True,
    sleep: Callable[[float], None] = time.sleep,
) -> SweepResult:
    """Run (or resume) a sweep, checkpointing after every chunk.

    ``sweep_dir`` owns the sweep's persistent state: the append-only
    ``journal.jsonl`` checkpoint log, the atomically-published
    ``results.json`` summary, and (with the default
    ``artifact_store="auto"``) an ``artifacts/`` build cache.  Calling
    again with the same spec and directory skips every journaled chunk
    and merges bit-identically with the uninterrupted run;
    ``resume=False`` refuses to touch an existing journal instead.

    ``chunk_hook(record)`` — if given — runs after each chunk commits
    (progress reporting, throttling); a hook exception is *not*
    retried, it propagates after the chunk was already journaled.
    """
    sweep_dir = Path(sweep_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    journal_path = sweep_dir / "journal.jsonl"
    results_path = sweep_dir / "results.json"
    fingerprint = spec.fingerprint()

    records, _corrupt = read_journal(journal_path)
    header = next((r for r in records if r.get("type") == "header"), None)
    if header is not None and not resume:
        raise SweepError(
            f"{journal_path} already holds a sweep journal; pass "
            "resume=True to continue it or use a fresh directory"
        )
    if header is not None and header.get("fingerprint") != fingerprint:
        raise SweepSpecMismatch(
            f"journal {journal_path} was written by a different sweep "
            f"spec (journal {header.get('fingerprint')!r:.20} != "
            f"spec {fingerprint!r:.20}); refusing to merge"
        )
    if header is None:
        append_record(
            journal_path,
            {
                "type": "header",
                "format": JOURNAL_FORMAT,
                "fingerprint": fingerprint,
                "cells": len(spec.cells),
                "seed": spec.seed,
                "chunk_shots": spec.chunk_shots,
            },
        )

    done: dict[tuple[int, int], dict] = {}
    for r in records:
        if r.get("type") == "chunk":
            done[(int(r["cell"]), int(r["chunk"]))] = r

    if artifact_store == "auto":
        store: ArtifactStore | None = ArtifactStore(sweep_dir / "artifacts")
    elif artifact_store is None or isinstance(artifact_store, ArtifactStore):
        store = artifact_store
    else:
        store = ArtifactStore(Path(artifact_store))

    codes: dict[int, object] = {}
    results: list[CellResult] = []
    failures: list[CellResult] = []
    resumed = executed = 0

    with using_store(store):
        for i, cell in enumerate(spec.cells):
            code = codes.get(cell.distance)
            if code is None:
                code = rotated_surface_code(cell.distance).code
                codes[cell.distance] = code
            rounds = resolved_rounds(code, cell.rounds)
            noise = NoiseModel.uniform(cell.p)
            plan = _cell_plan(spec, i)
            errors = 0
            completed = 0
            merged_shots = 0
            failure: str | None = None
            for j, (chunk_seed, n) in enumerate(plan):
                prior = done.get((i, j))
                if prior is not None:
                    # A journaled chunk must describe the same work unit
                    # the spec derives, or the journal is not ours.
                    if prior.get("seed") != chunk_seed or prior.get("shots") != n:
                        raise SweepSpecMismatch(
                            f"journaled chunk ({i}, {j}) of {journal_path} "
                            "disagrees with the spec's chunk plan "
                            f"(seed {prior.get('seed')} != {chunk_seed} or "
                            f"shots {prior.get('shots')} != {n})"
                        )
                    errors += int(prior["errors"])
                    completed += 1
                    merged_shots += n
                    resumed += 1
                    continue

                # Loop state is bound through default args so the
                # closure can never see a later iteration's values
                # (flake8-bugbear B023).
                def run_chunk(cell=cell, code=code, noise=noise,
                              rounds=rounds, n=n, chunk_seed=chunk_seed):
                    with _chunk_guard(chunk_timeout):
                        return memory_experiment(
                            code,
                            cell.basis,
                            noise,
                            rounds=rounds,
                            shots=n,
                            seed=chunk_seed,
                            defective_data=set(cell.defective_data) or None,
                            defective_ancillas=(
                                set(cell.defective_ancillas) or None
                            ),
                            decoder_method=cell.decoder_method,
                            decoder_aware_of_defects=(
                                cell.decoder_aware_of_defects
                            ),
                            workers=spec.workers,
                        )
                try:
                    t0 = time.perf_counter()
                    result, attempts = _with_retry(
                        run_chunk,
                        max_attempts=max_attempts,
                        backoff_base=backoff_base,
                        sleep=sleep,
                    )
                except Exception as exc:
                    failure = f"{type(exc).__name__}: {exc}"
                    append_record(
                        journal_path,
                        {
                            "type": "cell_failed",
                            "cell": i,
                            "chunk": j,
                            "error": failure,
                        },
                    )
                    break
                record = append_record(
                    journal_path,
                    {
                        "type": "chunk",
                        "cell": i,
                        "chunk": j,
                        "seed": chunk_seed,
                        "shots": n,
                        "errors": int(result.errors),
                        "attempts": attempts,
                        "elapsed": round(time.perf_counter() - t0, 6),
                    },
                )
                errors += int(result.errors)
                completed += 1
                merged_shots += n
                executed += 1
                if chunk_hook is not None:
                    chunk_hook(record)

            cell_result = CellResult(
                cell=cell,
                rounds=rounds,
                shots=merged_shots,
                errors=errors,
                chunks=completed,
                failed=failure is not None,
                error=failure,
            )
            results.append(cell_result)
            if cell_result.failed:
                failures.append(cell_result)

    _write_results(results_path, spec, fingerprint, results)
    outcome = SweepResult(
        spec=spec,
        cells=results,
        journal_path=journal_path,
        results_path=results_path,
        resumed_chunks=resumed,
        executed_chunks=executed,
        failures=failures,
    )
    if failures and strict:
        labels = ", ".join(f.cell.label() for f in failures)
        raise SweepError(
            f"{len(failures)} cell(s) failed permanently ({labels}); "
            f"completed work is journaled in {journal_path} and the "
            "sweep can be resumed after the cause is fixed"
        )
    return outcome


def _write_results(
    results_path: Path,
    spec: SweepSpec,
    fingerprint: str,
    results: list[CellResult],
) -> None:
    """Publish the merged summary atomically (temp + rename)."""
    payload = {
        "format": JOURNAL_FORMAT,
        "fingerprint": fingerprint,
        "seed": spec.seed,
        "chunk_shots": spec.chunk_shots,
        "cells": [
            {
                "label": r.cell.label(),
                "distance": r.cell.distance,
                "p": r.cell.p,
                "basis": r.cell.basis,
                "scenario": r.cell.scenario,
                "decoder_method": r.cell.decoder_method,
                "rounds": r.rounds,
                "shots": r.shots,
                "errors": r.errors,
                "chunks": r.chunks,
                "per_shot": r.per_shot,
                "per_round": r.per_round,
                "failed": r.failed,
                "error": r.error,
            }
            for r in results
        ],
    }
    text = json.dumps(payload, indent=2, allow_nan=False)
    atomic_write_text(results_path, text + "\n")
