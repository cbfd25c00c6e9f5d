"""Span recorder for the benchmark's traced run.

Layers are timed from outside the program: :func:`instrument` replaces
each layer function, at the module or class attribute its caller looks
it up through, with a wrapper that records a span around the call.
``repro.deform.removal`` imports ``graph_distance`` into its own
namespace, for example, so that binding is wrapped as well as the one
in ``repro.codes.distance``.  Nothing is wrapped in the untraced run.

A span records its name, thread, start, end and parent.  Parents are
tracked per thread, so a span opened on a pool thread gets its parent
within that thread (or none).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

#: ``(owner, attribute, span)``.  ``owner`` is a module path, or
#: ``module:Class`` for a method looked up through its class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.deform.unit", "defect_removal", "deform.removal"),
    ("repro.deform.enlargement", "defect_removal", "deform.removal"),
    ("repro.deform.unit", "adaptive_enlargement", "deform.enlargement"),
    ("repro.deform.removal", "data_q_rm", "deform.instructions"),
    ("repro.deform.removal", "patch_q_rm", "deform.instructions"),
    ("repro.deform.removal", "syndrome_q_rm", "deform.instructions"),
    ("repro.deform.enlargement", "patch_q_add_layer", "deform.instructions"),
    ("repro.surface.patch:SurfacePatch", "copy", "surface.copy"),
    ("repro.codes.distance", "graph_distance", "codes.distance"),
    ("repro.deform.removal", "graph_distance", "codes.distance"),
    ("repro.deform.enlargement", "graph_distance", "codes.distance"),
    ("repro.codes.validity", "check_code", "codes.validity"),
    ("repro.eval.montecarlo", "memory_circuit", "sim.circuit"),
    ("repro.decode.window", "memory_circuit", "sim.circuit"),
    ("repro.eval.montecarlo", "prime_compiled", "sim.compile"),
    ("repro.eval.montecarlo", "compile_circuit", "sim.compile"),
    ("repro.sim.circuit", "compile_circuit", "sim.compile"),
    ("repro.eval.montecarlo", "sample_detectors", "sim.sample"),
    ("repro.eval.montecarlo", "build_dem", "sim.dem"),
    ("repro.decode.window", "build_dem", "sim.dem"),
    ("repro.decode.mwpm:MatchingDecoder", "__init__", "decode.build"),
    ("repro.decode.base:Decoder", "decode_batch", "decode.batch"),
    ("repro.decode.window:WindowStream", "push", "decode.window_push"),
    ("repro.decode.window:WindowStream", "finish", "decode.window_finish"),
    ("repro.eval", "memory_experiment", "eval.memory"),
    ("repro.sweep.runner", "memory_experiment", "eval.memory"),
    ("repro.store.artifacts:ArtifactStore", "get", "store.get"),
    ("repro.store.artifacts:ArtifactStore", "put", "store.put"),
    ("repro.sweep.runner", "append_record", "sweep.journal"),
)

#: Every span name the traced run reports, in report order.  ``op`` is
#: the benchmark's own span around one timed operation and ``setup``
#: its span around building fresh program state for the traced pass.
SPAN_NAMES: tuple[str, ...] = (
    *dict.fromkeys(span for _, _, span in TARGETS),
    "op",
    "setup",
)

#: Self times must reconcile with the traced wall time to within this
#: share (see :meth:`Recorder.reconcile`).
RECONCILE_TOLERANCE = 0.05


@dataclass
class Span:
    name: str
    thread: int
    start_ns: int
    end_ns: int = 0
    #: Index of the enclosing span on the same thread, if any.
    parent: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """In-memory spans plus counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: Start time of each ``WindowStream.push``, keyed by the id of
        #: the chunk it was handed (the caller keeps chunks alive).
        self.push_start_ns: dict[int, int] = {}
        #: Artifact stores seen by ``store.get``/``store.put``, by id.
        self.stores: dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack: list[int] = self._local.__dict__.setdefault("stack", [])
        span = Span(
            name,
            threading.get_ident(),
            time.perf_counter_ns(),
            parent=stack[-1] if stack else None,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``name -> (self seconds, calls)``; self time is a span's
        duration minus the time its child spans cover."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration_ns
        totals: dict[str, tuple[float, int]] = {
            name: (0.0, 0) for name in SPAN_NAMES
        }
        for span, child_ns in zip(self.spans, covered, strict=True):
            self_s, calls = totals.get(span.name, (0.0, 0))
            totals[span.name] = (
                self_s + (span.duration_ns - child_ns) / 1e9,
                calls + 1,
            )
        return totals

    def reconcile(self, caller: int, wall_s: float) -> float:
        """Share of ``wall_s`` by which the self times fail to reconcile.

        The self times of a span tree sum to its root's duration, so the
        caller thread's self times reconcile with the traced wall when
        its root spans (``setup`` and ``op``) cover it; the uncovered
        rest is the benchmark loop's own work.  A pool thread runs its
        spans one after another, so its self times may not sum past the
        wall either.
        """
        roots: defaultdict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.parent is None:
                roots[s.thread] += s.duration_ns
        gap = abs(wall_s - roots.pop(caller, 0) / 1e9) / wall_s
        overrun = max(
            (ns / 1e9 - wall_s) / wall_s for ns in roots.values()
        ) if roots else 0.0
        return max(gap, overrun)

    def write(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, s in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": s.name,
                            "thread": s.thread,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "parent": s.parent,
                        },
                        allow_nan=False,
                    )
                    + "\n"
                )


def _owner(path: str) -> object:
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _observe_removal(rec: Recorder, args, kwargs, before, result) -> None:
    rec.count("deform.handled", len(result.handled))


def _decoder_counters(args, kwargs) -> tuple[int, int, int]:
    decoder = args[0]
    return decoder.cache_hits, decoder.cache_misses, decoder.pool_failures


def _observe_decode(rec: Recorder, args, kwargs, before, result) -> None:
    hits, misses, failures = (
        now - then
        for now, then in zip(_decoder_counters(args, kwargs), before, strict=True)
    )
    rec.count("decode.cache_hits", hits)
    rec.count("decode.cache_misses", misses)
    rec.count("decode.pool_failures", failures)


def _observe_sample(rec: Recorder, args, kwargs, before, result) -> None:
    rec.count("sim.sample.shots", args[1] if len(args) > 1 else kwargs["shots"])


def _observe_store(rec: Recorder, args, kwargs, before, result) -> None:
    rec.stores[id(args[0])] = args[0]


#: ``span -> (before(args, kwargs), after(rec, args, kwargs, before, result))``.
OBSERVERS: dict[str, tuple[Callable | None, Callable]] = {
    "deform.removal": (None, _observe_removal),
    "decode.batch": (_decoder_counters, _observe_decode),
    "sim.sample": (None, _observe_sample),
    "store.get": (None, _observe_store),
    "store.put": (None, _observe_store),
}


def _wrap(rec: Recorder, fn: Callable, name: str) -> Callable:
    before_fn, after_fn = OBSERVERS.get(name, (None, None))
    is_push = name == "decode.window_push"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            if is_push:
                rec.push_start_ns[id(args[1])] = span.start_ns
            before = before_fn(args, kwargs) if before_fn else None
            result = fn(*args, **kwargs)
        if after_fn is not None:
            after_fn(rec, args, kwargs, before, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every :data:`TARGETS` binding for the duration of the block.

    A missing target raises: a renamed layer function must fail the
    traced run loudly rather than silently drop out of the report.
    """
    originals: list[tuple[object, str, object]] = []
    try:
        for owner_path, attr, name in TARGETS:
            owner = _owner(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, original, name))
        yield rec
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
