"""Every function the benchmark's tracer wraps still exists under the name it wraps.

perfbench/tracing.py replaces taxocat attributes by name; after a rename
it would otherwise fail only in a traced benchmark run.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    """A perfbench module, imported from its file without touching sys.path.

    It is listed in sys.modules for the test only: dataclasses look it up there.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_a_callable(monkeypatch):
    tracing, hosted = _load("tracing", monkeypatch), _load("hosted", monkeypatch)
    targets = tracing.setup_targets() + tracing.batch_targets(hosted.SimulatedProvider)
    # Tracer.patch reads the attribute from the owner's own namespace.
    missing = [f"{owner.__name__}.{name}" for owner, name, *_ in targets
               if not callable(vars(owner).get(name))]
    assert not missing
