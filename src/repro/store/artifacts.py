"""Content-keyed on-disk artifact cache with corruption quarantine.

A decoder's build products — its detector error model and all-pairs
path matrices — are pure functions of the experiment configuration's
content key (the tuple ``repro.eval.montecarlo`` keys its decoder memo
on).  :class:`ArtifactStore` persists them across processes, so a
resumed sweep pays the d = 9 build once per machine, not once per run.
Compiled circuits are not stored: keyed on their instruction stream,
they cost more to find and load than to compile again.

Layout under the store root::

    objects/<kind>/<dd>/<digest>.art     committed entries
    quarantine/<kind>-<digest>-<pid>...  corrupt entries, moved aside

Entry format (one file): a JSON header line carrying the payload's
length and SHA-256, then the pickled payload bytes.  Writes go through
:func:`repro.store.atomic.atomic_write_bytes`, so a crash mid-write
never publishes a partial entry.  Loads verify length and checksum
*before* unpickling; any mismatch — truncation, bit flip, a foreign
file — quarantines the entry (``os.replace`` into ``quarantine/``) and
reports a miss, so the caller rebuilds and re-persists.  Corruption is
therefore never a crash and never poisons later runs.

Keys are arbitrary content tuples; :func:`key_digest` canonicalises
nested tuples / frozensets / dataclasses into a stable representation
and hashes it, so unordered collections (the check/stabilizer
frozensets of a code fingerprint) digest identically across processes
(``hash()`` randomisation never enters the key path).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import uuid
from pathlib import Path

from collections.abc import Callable

from repro.store.atomic import atomic_write_bytes

__all__ = ["ArtifactStore", "key_digest", "STORE_FORMAT"]

#: Bumped whenever the entry format or canonicalisation changes;
#: participates in every digest so incompatible entries simply miss.
STORE_FORMAT = 1

_MAGIC = "repro-artifact"


def _canonical(obj: object) -> str:
    """Deterministic textual form of a content key.

    Unordered collections are sorted by their canonical forms and
    dataclasses flattened to ``(class, field=value, ...)``, so two
    processes building the same key tuple — in any construction order —
    produce the same digest.  Unknown types fall back to ``repr``,
    which keys like the code fingerprints never hit.
    """
    if isinstance(obj, (frozenset, set)):
        return "{" + ",".join(sorted(_canonical(x) for x in obj)) + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_canonical(x) for x in obj) + ")"
    if isinstance(obj, dict):
        items = sorted((_canonical(k), _canonical(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips doubles exactly
    if isinstance(obj, (int, str, bytes, bool)) or obj is None:
        return repr(obj)
    return repr(obj)


def key_digest(key: object) -> str:
    """Stable SHA-256 hex digest of a content key."""
    text = f"v{STORE_FORMAT}:{_canonical(key)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Content-addressed pickle store with verify-on-load.

    ``get``/``put`` never raise on a *bad entry*: corruption is
    quarantined and surfaces as a miss.  Real environment failures of
    the store itself (permission errors creating the root, disk full
    on write) degrade to misses too when ``strict=False`` (default) —
    an artifact cache must never take the experiment down with it.
    """

    def __init__(self, root: str | os.PathLike, *, strict: bool = False) -> None:
        self.root = Path(root)
        self.strict = strict
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.write_errors = 0

    # -- paths ----------------------------------------------------------
    def _entry_path(self, kind: str, digest: str) -> Path:
        return self.root / "objects" / kind / digest[:2] / f"{digest}.art"

    def _quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- core API -------------------------------------------------------
    def get(self, kind: str, key: object) -> object | None:
        """The stored value, or ``None`` on miss/corruption."""
        digest = key_digest(key)
        path = self._entry_path(kind, digest)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            if self.strict:
                raise
            self.misses += 1
            return None
        value, reason = self._decode_entry(raw, kind, digest)
        if reason is not None:
            self._quarantine(path, kind, digest, reason)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, kind: str, key: object, value: object) -> bool:
        """Persist ``value``; returns whether the write committed."""
        digest = key_digest(key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {
                "magic": _MAGIC,
                "format": STORE_FORMAT,
                "kind": kind,
                "digest": digest,
                "payload_len": len(payload),
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
            },
            sort_keys=True,
            allow_nan=False,
        )
        try:
            atomic_write_bytes(
                self._entry_path(kind, digest),
                header.encode("utf-8") + b"\n" + payload,
            )
        except OSError:
            if self.strict:
                raise
            self.write_errors += 1
            return False
        self.writes += 1
        return True

    def get_or_build(
        self, kind: str, key: object, builder: Callable[[], object]
    ) -> object:
        """Load ``(kind, key)``, or build, persist, and return it."""
        value = self.get(kind, key)
        if value is not None:
            return value
        value = builder()
        self.put(kind, key, value)
        return value

    def __contains__(self, kind_key: tuple[str, object]) -> bool:
        kind, key = kind_key
        return self._entry_path(kind, key_digest(key)).exists()

    # -- verification & quarantine --------------------------------------
    def _decode_entry(
        self, raw: bytes, kind: str, digest: str
    ) -> tuple[object | None, str | None]:
        """``(value, None)`` for a healthy entry, ``(None, reason)`` else."""
        newline = raw.find(b"\n")
        if newline < 0:
            return None, "no header line"
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None, "unparseable header"
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            return None, "bad magic"
        if header.get("format") != STORE_FORMAT:
            return None, f"format {header.get('format')!r}"
        if header.get("kind") != kind or header.get("digest") != digest:
            return None, "entry/key mismatch"
        payload = raw[newline + 1 :]
        if len(payload) != header.get("payload_len"):
            return None, (
                f"truncated payload ({len(payload)} of "
                f"{header.get('payload_len')} bytes)"
            )
        if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
            return None, "checksum mismatch"
        try:
            return pickle.loads(payload), None
        except Exception:
            # Checksummed bytes that still fail to unpickle mean the
            # artifact was written by an incompatible code version.
            return None, "unpicklable payload"

    def _quarantine(self, path: Path, kind: str, digest: str, reason: str) -> None:
        """Move a corrupt entry aside (never delete: it is evidence)."""
        self.corrupt += 1
        qdir = self._quarantine_dir()
        dest = qdir / (
            f"{kind}-{digest[:16]}-{os.getpid()}-{uuid.uuid4().hex[:8]}.art"
        )
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
            (dest.with_suffix(".reason")).write_text(reason + "\n")
        except OSError:
            if self.strict:
                raise
            # Even quarantine failing must not crash the caller; the
            # corrupt entry will be retried (and overwritten) later.

    # -- bookkeeping ----------------------------------------------------
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "write_errors": self.write_errors,
        }
