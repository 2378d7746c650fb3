"""The benchmark's tracer wraps package attributes by name, so a renamed
or deleted function makes every traced call fail. Check that each one
it names still resolves, without running the tracer."""

import importlib
import importlib.util
import sys
from pathlib import Path

from listcontract import pram

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_site_resolves_to_a_callable(monkeypatch):
    # load the file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    missing = [(module, attr) for _, module, attr in tracing.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing
    assert callable(pram.Engine.step)
