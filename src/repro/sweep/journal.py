"""Append-only checkpoint journal for resumable sweeps.

One JSON record per line.  Appends are fsynced
(:func:`repro.store.atomic.durable_append`), so a record returned from
:func:`append_record` survives a SIGKILL of the writer; the only
possible damage is a *torn tail* — the final line cut mid-record by a
crash mid-append — which :func:`read_journal` skips (along with any
other unparseable line) instead of failing the resume.

Record types written by the sweep runner
(:mod:`repro.sweep.runner`):

``header``
    First record of a journal: the sweep spec's content fingerprint
    plus bookkeeping.  Resume refuses a journal whose fingerprint does
    not match the spec being resumed — a checkpoint must never be
    silently merged into a *different* sweep.
``chunk``
    One completed work unit: ``(cell, chunk)`` indices, the chunk's
    derived RNG seed, its shot count and logical-error count.
``cell_failed``
    A cell abandoned after exhausting its retry budget.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.store.atomic import durable_append

__all__ = ["JOURNAL_FORMAT", "append_record", "read_journal"]

#: Bumped on incompatible journal-record changes.  Format 2: the
#: ``SweepSpec.decoder_workers`` field became ``workers`` (field names
#: enter the spec fingerprint).
JOURNAL_FORMAT = 2


def append_record(path: str | os.PathLike, record: dict) -> dict:
    """Durably append one record; returns it for convenience."""
    line = json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if "\n" in line:
        raise ValueError("journal records must serialise to one line")
    durable_append(path, line)
    return record


def read_journal(path: str | os.PathLike) -> tuple[list[dict], int]:
    """All parseable records plus the count of skipped corrupt lines.

    A missing journal reads as empty.  Unparseable lines — the torn
    tail a crash mid-append leaves, or any other damage — are counted
    and skipped; whatever chunks *were* durably recorded still resume.
    """
    records: list[dict] = []
    corrupt = 0
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return records, corrupt
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            corrupt += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            corrupt += 1
    return records, corrupt
