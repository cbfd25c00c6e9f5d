"""Every layer function the benchmark's traced run wraps still exists.

``perfbench/tracing.py`` wraps each binding in its ``TARGETS`` by name
and raises on one that is missing, so renaming a layer function (or
dropping an import it is looked up through) would otherwise fail only
a traced benchmark run.  Entering and leaving ``instrument`` here runs
no workload.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)

    def bindings():
        return [vars(tracing._owner(o))[attr] for o, attr, _ in tracing.TARGETS]

    with tracing.instrument(tracing.Recorder()):  # raises on a missing one
        wrapped = bindings()
    restored = bindings()
    assert all(w is not r for w, r in zip(wrapped, restored, strict=True))
