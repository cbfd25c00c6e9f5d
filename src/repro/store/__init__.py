"""Crash-safe persistence: atomic writes + content-keyed artifact cache.

Two layers:

* :mod:`repro.store.atomic` — write-temp-then-rename file publication
  and fsynced append-only logging; every persistent file the runtime
  commits goes through these.
* :mod:`repro.store.artifacts` — :class:`ArtifactStore`, the
  content-keyed on-disk cache for decoder build products (DEMs,
  all-pairs path matrices) with checksum verification on load and
  quarantine-and-rebuild on corruption.

A process-wide default store wires the cache into the evaluation layer
without threading a handle through every call: :func:`set_store`
installs one (``None`` disables), :func:`get_store` reads it, and
:func:`using_store` scopes one to a ``with`` block.  When nothing is
installed, the ``REPRO_STORE`` environment variable (a directory path)
enables it for a whole process tree — which is how sweep worker
processes inherit the parent's store.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.store.artifacts import STORE_FORMAT, ArtifactStore, key_digest
from repro.store.atomic import atomic_write_bytes, atomic_write_text, durable_append
from repro.utils.env import env_str

__all__ = [
    "ArtifactStore",
    "key_digest",
    "STORE_FORMAT",
    "atomic_write_bytes",
    "atomic_write_text",
    "durable_append",
    "get_store",
    "set_store",
    "using_store",
]

#: Sentinel distinguishing "never configured" from "explicitly None".
_UNSET = object()
_ACTIVE_STORE: object = _UNSET
#: Memoised env-configured store: (path, ArtifactStore), so repeated
#: ``get_store()`` calls share one instance (and its hit/miss stats).
_ENV_STORE: tuple[str, ArtifactStore] | None = None


def set_store(store: ArtifactStore | str | os.PathLike | None) -> None:
    """Install the process-wide artifact store (a path builds one)."""
    global _ACTIVE_STORE
    if store is None or isinstance(store, ArtifactStore):
        _ACTIVE_STORE = store
    else:
        _ACTIVE_STORE = ArtifactStore(Path(store))


def get_store() -> ArtifactStore | None:
    """The active store: explicit ``set_store`` wins, else ``REPRO_STORE``."""
    global _ENV_STORE
    if _ACTIVE_STORE is not _UNSET:
        return _ACTIVE_STORE  # type: ignore[return-value]
    env = env_str("REPRO_STORE")
    if env is None:
        return None
    if _ENV_STORE is None or _ENV_STORE[0] != env:
        _ENV_STORE = (env, ArtifactStore(Path(env)))
    return _ENV_STORE[1]


@contextmanager
def using_store(
    store: ArtifactStore | str | os.PathLike | None,
) -> Iterator[ArtifactStore | None]:
    """Scope the process-wide store to a ``with`` block."""
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    set_store(store)
    try:
        yield get_store()
    finally:
        _ACTIVE_STORE = previous
