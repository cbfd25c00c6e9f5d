"""Shared batch-first decoder contract.

Every decoder in the package — exact matching, greedy and union-find —
decodes *defect sets* (the tuple of fired detector indices below the
graph's detector count).  :class:`Decoder` owns everything around that
core, so a backend implements :meth:`Decoder._decode_misses` (decode a
list of cache-missing unique sets at once) or, for a per-set
algorithm, just :meth:`Decoder._decode_defects`:

* **canonicalisation** — ``decode_batch`` accepts a ``(shots,
  detectors)`` uint8 array, a 1-D single shot, or a
  :class:`~repro.utils.gf2.PackedBits` bitplane straight from the
  packed sampler (rows = detectors, bits = shots).  Every flavour is
  brought to bit-packed per-shot rows — uint8 input is packed into
  uint64 words up front, packed input reuses its cached transpose —
  and only the *unique* syndromes are ever unpacked.
* **zero-syndrome fast path** — one ``any``-reduction over the packed
  words drops the all-zero shots that dominate low-error-rate batches.
* **deduplication** — ``np.unique`` collapses the batch to its unique
  nonzero syndromes on the packed words (~64× less data per row
  comparison than byte rows); predictions scatter back through the
  inverse map.
* **syndrome LRU** — decoded predictions are cached keyed on the
  defect tuple; repeat syndromes across batches are dictionary hits.
* **sharding** — ``workers=N`` forks one worker process per shard of
  the unique syndromes, dealt round-robin (copy-on-write graph data,
  results absorbed into the parent's cache); see
  :meth:`Decoder._decode_unique_parallel`.
  The pool is *fault-tolerant*: a worker that crashes, is killed, or
  exceeds :attr:`Decoder.pool_timeout` only forfeits its own shard —
  the parent detects the dead pipe and decodes that shard serially,
  so predictions are identical to the serial path whatever happens to
  the workers, and every forked process is joined on every exit path.

Single-shot :meth:`Decoder.decode` is a batch of one through the same
machinery, and each forked worker decodes its whole shard with one
:meth:`Decoder._decode_misses` call, so every path reaches the
backend's batch entry point — for matching, the vectorised component
pipeline (:mod:`repro.decode.batch`).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
from collections import OrderedDict

import numpy as np

from typing import TYPE_CHECKING

from repro.utils.gf2 import PackedBits, gf2_pack_rows, gf2_unpack

if TYPE_CHECKING:
    from repro.decode.graph import DecodingGraph

__all__ = ["Decoder", "DEFAULT_CACHE_SIZE"]

#: Default maximum number of cached syndromes per decoder.
DEFAULT_CACHE_SIZE = 65536

#: Minimum number of unique syndromes per worker before decode_batch
#: bothers forking: below this the pool start-up cost dominates.
_MIN_SYNDROMES_PER_WORKER = 32

#: Decoder a forked pool worker decodes against (inherited copy-on-write
#: from the parent at fork time; never set in the parent's own workers).
#: Guarded by ``_POOL_LOCK`` for the set→fork window so concurrent
#: ``decode_batch`` calls from different threads cannot fork against
#: the wrong decoder.
_POOL_DECODER: "Decoder | None" = None
_POOL_LOCK = threading.Lock()

#: Fault-injection seam for the crash-safety tests: when set to a
#: callable, every shard worker invokes it with its shard index right
#: after forking (before decoding).  Tests install e.g. a SIGKILL of
#: the worker's own pid for one shard to exercise the serial-fallback
#: path; production never sets it.
_WORKER_FAULT = None

#: Seconds between liveness/pipe polls while collecting a shard.
_POOL_POLL_INTERVAL = 0.02


def _shard_worker(shard_index: int, defect_sets, conn) -> None:
    """Decode one shard in a forked child and pipe the bytes back.

    The decoder (whole-graph route tables included) is inherited
    copy-on-write via ``_POOL_DECODER`` and decodes the shard in one
    batch call; only the result bytes cross the pipe.  Any abnormal
    end — crash, kill, unpickleable state — simply closes the pipe,
    which the parent observes as EOF and treats as shard loss.
    """
    if _WORKER_FAULT is not None:
        _WORKER_FAULT(shard_index)
    out = _POOL_DECODER._decode_misses(defect_sets)
    conn.send_bytes(np.asarray(out, dtype=np.uint8).tobytes())
    conn.close()


class Decoder:
    """Batched, cached, shardable front-end over ``_decode_defects``."""

    #: Per-shard wall-clock budget for forked workers, in seconds
    #: (``None`` = unbounded).  A shard whose worker is still running
    #: past the budget is terminated and decoded serially in the
    #: parent; crashes are detected immediately via pipe EOF and never
    #: wait for this.  Settable per instance.
    pool_timeout: float | None = None

    #: Minimum unique syndromes per worker before ``decode_batch``
    #: bothers forking a pool — below it start-up cost dominates.
    #: Settable per instance; the scaling benchmark lowers it so a
    #: fixed workload shards at every pool width it sweeps.
    min_shard_syndromes: int = _MIN_SYNDROMES_PER_WORKER

    def __init__(
        self,
        graph: DecodingGraph,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        workers: int | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        self.graph = graph
        self.num_detectors = graph.num_detectors
        self.workers = workers
        self.cache_size = cache_size
        self._cache: OrderedDict[tuple[int, ...], int] | None = (
            OrderedDict() if cache_size > 0 else None
        )
        self.cache_hits = 0
        self.cache_misses = 0
        #: Shards recovered serially after a worker crash/kill/timeout.
        self.pool_failures = 0

    # -- the backend contract ------------------------------------------
    def _decode_defects(self, defects: tuple[int, ...]) -> int:
        """Predicted observable flip for one nonempty defect set."""
        raise NotImplementedError

    def _decode_misses(self, defect_sets: list[tuple[int, ...]]) -> np.ndarray:
        """Decode cache-missing unique syndromes; the one entry point
        every front door reaches (override to vectorise)."""
        return np.fromiter(
            (self._decode_defects(d) for d in defect_sets),
            dtype=np.uint8,
            count=len(defect_sets),
        )

    # -- single-shot front door ----------------------------------------
    def decode(self, detector_sample: np.ndarray) -> int:
        """Predicted observable flip (0/1) for one shot's detector bits.

        Decoded as a batch of one, through the syndrome LRU and
        :meth:`_decode_misses`.
        """
        sample = np.asarray(detector_sample)
        nonzero = np.nonzero(sample)[0]
        limit = self.num_detectors
        defects = tuple(int(d) for d in nonzero if d < limit)
        return int(self._decode_unique([defects])[0])

    # -- batch front door ----------------------------------------------
    def decode_batch(
        self,
        detector_samples: np.ndarray | PackedBits,
        *,
        workers: int | None = None,
    ) -> np.ndarray:
        """Vector of predictions, one per shot.

        ``detector_samples`` is a ``(shots, detectors)`` uint8 array, a
        1-D single shot, or a :class:`PackedBits` detector bitplane
        (rows = detectors, bits = shots) from the packed sampler.
        ``workers=N`` (or the constructor default) shards the unique
        nonzero syndromes across ``N`` forked processes; serial,
        sharded, and packed decoding produce identical predictions.
        """
        if isinstance(detector_samples, PackedBits):
            # The transpose is memoised on the bitplane (the wire
            # format is write-once), so re-decoding one sample —
            # benchmark reps, streamed throughput loops — pays for the
            # full-plane transpose exactly once.
            packed = detector_samples.transposed().words
            num_shots = detector_samples.num_bits
            row_width = detector_samples.num_rows
        else:
            rows = np.asarray(detector_samples, dtype=np.uint8)
            if rows.ndim == 1:
                rows = rows.reshape(1, -1)
            num_shots = len(rows)
            row_width = rows.shape[1]
            # Pack before deduplicating: the axis-0 np.unique then
            # compares ~row_width/64 words per row instead of row_width
            # bytes, and only the unique survivors are ever unpacked —
            # the same shape the packed input path has always had.
            packed = gf2_pack_rows(rows)
        predictions = np.zeros(num_shots, dtype=np.uint8)
        if num_shots == 0:
            return predictions
        nonzero_rows, unique, inverse = _packed_dedup(packed, row_width)
        if nonzero_rows.size == 0:
            return predictions
        defect_sets = _defect_tuples(unique, self.num_detectors)
        if workers is None:
            workers = self.workers
        if (
            workers is not None
            and workers > 1
            and self._can_shard(len(defect_sets), workers)
        ):
            unique_predictions = self._decode_unique_parallel(
                defect_sets, workers
            )
        else:
            unique_predictions = self._decode_unique(defect_sets)
        predictions[nonzero_rows] = unique_predictions[inverse]
        return predictions

    def logical_error_rate(
        self,
        detector_samples: np.ndarray | PackedBits,
        observable_samples: np.ndarray | PackedBits,
    ) -> float:
        """Fraction of shots where the prediction misses the actual flip.

        An empty batch has no misses: zero shots return 0.0 instead of
        propagating a ``mean of empty slice`` NaN.
        """
        predictions = self.decode_batch(detector_samples)
        if len(predictions) == 0:
            return 0.0
        if isinstance(observable_samples, PackedBits):
            actual = observable_samples.column_parity()
        else:
            actual = np.asarray(observable_samples).reshape(
                len(predictions), -1
            )
            actual = (actual.sum(axis=1) % 2).astype(np.uint8)
        return float((predictions != actual).mean())

    # -- unique-syndrome decoding --------------------------------------
    def _cache_scan(
        self, defect_sets: list[tuple[int, ...]], out: np.ndarray
    ) -> list[int]:
        """Resolve cache hits into ``out``; return the miss indices.

        Empty defect sets decode to 0 and never touch the cache.
        """
        cache = self._cache
        if cache is None:
            return [i for i, d in enumerate(defect_sets) if d]
        misses: list[int] = []
        for i, defects in enumerate(defect_sets):
            if not defects:
                continue
            cached = cache.get(defects)
            if cached is not None:
                cache.move_to_end(defects)
                self.cache_hits += 1
                out[i] = cached
            else:
                misses.append(i)
        return misses

    def _decode_unique(self, defect_sets: list[tuple[int, ...]]) -> np.ndarray:
        """Cache-aware decoding of the batch's unique defect sets."""
        out = np.zeros(len(defect_sets), dtype=np.uint8)
        misses = self._cache_scan(defect_sets, out)
        if misses:
            results = self._decode_misses([defect_sets[i] for i in misses])
            self._absorb_results(out, defect_sets, misses, results)
        return out

    def _absorb_results(self, out, defect_sets, misses, results) -> None:
        """Scatter miss results into ``out`` and warm the cache."""
        cache = self._cache
        for i, result in zip(misses, results, strict=True):
            out[i] = result
            if cache is not None:
                self.cache_misses += 1
                cache[defect_sets[i]] = int(result)
                if len(cache) > self.cache_size:
                    cache.popitem(last=False)

    # -- forked-pool sharding ------------------------------------------
    def _can_shard(self, num_unique: int, workers: int) -> bool:
        """Whether forking a pool is worthwhile (and safe) here."""
        if workers <= 1:
            # ``workers=1`` means serial, no fork — explicitly, not
            # merely because one shard happens to fall below the
            # per-worker floor.  Serial decoding never touches
            # ``pool_failures``.
            return False
        if num_unique < workers * self.min_shard_syndromes:
            return False
        # macOS advertises fork but aborts forked children that touch
        # Apple-framework state; only Linux fork is trusted here.
        return sys.platform.startswith("linux") and (
            "fork" in multiprocessing.get_all_start_methods()
        )

    def _prepare_fork(self) -> None:
        """Build anything workers should inherit copy-on-write (hook)."""

    def _decode_unique_parallel(
        self, defect_sets: list[tuple[int, ...]], workers: int
    ) -> np.ndarray:
        """Shard unique-syndrome decoding across forked worker processes.

        The decoder (whole-graph route tables included) is inherited by
        each worker copy-on-write at fork time, so nothing large is
        pickled; only the defect tuples and the uint8 results cross the
        pipe.  Cache hits are resolved in the parent first, and the
        parent's syndrome LRU absorbs the workers' results afterwards,
        so a sharded batch warms the cache exactly like a serial one.

        Fault tolerance: each shard has its own worker and pipe.  A
        worker that dies (crash, OOM kill, SIGKILL) closes its pipe,
        which the parent sees as EOF; a worker still running past
        :attr:`pool_timeout` is terminated.  Either way only that shard
        falls back to serial decoding in the parent
        (``pool_failures`` counts the recoveries) — predictions are
        always exactly the serial path's.  The ``finally`` block
        terminates and joins every worker on every exit path, so no
        forked process outlives the call even when the caller's side
        raises.

        Above the matrix limit each worker builds the per-batch route
        tables of its own shard.
        """
        self._prepare_fork()
        out = np.zeros(len(defect_sets), dtype=np.uint8)
        misses = self._cache_scan(defect_sets, out)
        if len(misses) < workers * self.min_shard_syndromes:
            # A warm cache can shrink a shard-worthy batch to a handful
            # of misses; forking a pool for those loses to the serial
            # loop, so the floor is re-checked on the actual work.
            results = self._decode_misses([defect_sets[i] for i in misses])
            self._absorb_results(out, defect_sets, misses, results)
            return out
        global _POOL_DECODER
        ctx = multiprocessing.get_context("fork")
        miss_sets = [defect_sets[i] for i in misses]
        # Deal the sets out round-robin: unique syndromes arrive in
        # packed-word order, and contiguous blocks of that order differ
        # in cost (2.5x between the halves of a d = 9, p = 1e-3 batch).
        shards = [
            np.arange(k, len(miss_sets), workers) for k in range(workers)
        ]
        results = np.zeros(len(miss_sets), dtype=np.uint8)
        procs: list[tuple] = []
        # The lock spans the workers' whole lifetime: every shard forks
        # against this decoder.  Concurrent sharded batches from other
        # threads serialise here — overlapping process pools would only
        # fight for the same cores.
        with _POOL_LOCK:
            _POOL_DECODER = self
            try:
                for k, shard in enumerate(shards):
                    if len(shard) == 0:
                        continue
                    recv, send = ctx.Pipe(duplex=False)
                    proc = ctx.Process(
                        target=_shard_worker,
                        args=(k, [miss_sets[i] for i in shard], send),
                        daemon=True,
                    )
                    proc.start()
                    # Close the parent's copy of the write end so a dead
                    # worker's pipe reads as EOF instead of blocking.
                    send.close()
                    procs.append((proc, recv, shard))
                for proc, recv, shard in procs:
                    shard_results = self._collect_shard(proc, recv, len(shard))
                    if shard_results is None:
                        self.pool_failures += 1
                        if proc.is_alive():
                            proc.terminate()
                        shard_results = self._decode_misses(
                            [miss_sets[i] for i in shard]
                        )
                    results[shard] = shard_results
            finally:
                _POOL_DECODER = None
                for proc, recv, _ in procs:
                    if proc.is_alive():
                        proc.terminate()
                    proc.join()
                    recv.close()
        self._absorb_results(out, defect_sets, misses, results)
        return out

    def _collect_shard(self, proc, conn, expected: int) -> np.ndarray | None:
        """One shard's result bytes, or ``None`` if the worker was lost.

        Polls the pipe (so a result sent just before an abnormal exit
        is still honoured) and the process liveness; EOF on the pipe —
        the immediate consequence of any worker death — reports loss
        without waiting for a timeout.
        """
        deadline = (
            time.monotonic() + self.pool_timeout
            if self.pool_timeout is not None
            else None
        )
        while True:
            if conn.poll(_POOL_POLL_INTERVAL):
                try:
                    data = conn.recv_bytes()
                except (EOFError, OSError):
                    return None
                if len(data) != expected:
                    return None
                return np.frombuffer(data, dtype=np.uint8).copy()
            if not proc.is_alive() and not conn.poll(0):
                return None
            if deadline is not None and time.monotonic() > deadline:
                return None


def _packed_dedup(
    packed: np.ndarray, row_width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word-packed dedup: ``(nonzero shot ids, unique rows, inverse)``.

    ``packed`` holds one bit-packed syndrome row per shot (64 detectors
    per ``uint64`` word) — both input flavours of ``decode_batch``
    arrive here, uint8 rows via :func:`~repro.utils.gf2.gf2_pack_rows`
    and ``PackedBits`` bitplanes via the cached transpose.  The
    zero-shot ``any`` reduction and the axis-0 ``np.unique`` both run
    on the words; only the unique survivors are unpacked back to uint8
    rows for defect extraction.
    """
    nonzero_rows = np.nonzero(packed.any(axis=1))[0]
    if nonzero_rows.size == 0:
        return (
            nonzero_rows,
            np.zeros((0, row_width), dtype=np.uint8),
            np.zeros(0, dtype=np.intp),
        )
    unique_words, inverse = np.unique(
        packed[nonzero_rows], axis=0, return_inverse=True
    )
    return (
        nonzero_rows,
        gf2_unpack(unique_words, row_width),
        inverse.reshape(-1),
    )


def _defect_tuples(
    unique_rows: np.ndarray, limit: int
) -> list[tuple[int, ...]]:
    """Defect tuples of every unique syndrome row, in one vector pass.

    One global ``np.nonzero`` plus a ``searchsorted`` split replaces the
    per-row Python ``np.nonzero`` loop; only the tuple materialisation
    (needed as cache keys and fork payloads) stays per-row.
    """
    width = unique_rows.shape[1]
    clipped = unique_rows[:, :limit] if limit < width else unique_rows
    rows, cols = np.nonzero(clipped)
    if len(unique_rows) == 1:
        return [tuple(cols.tolist())]
    # Slice one Python list at per-row bounds: np.split would build an
    # ndarray (plus a tolist) per row, which dominates d = 9 batches
    # where every row is unique.
    bounds = np.zeros(len(unique_rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(unique_rows)), out=bounds[1:])
    flat = cols.tolist()
    return [
        tuple(flat[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
    ]
