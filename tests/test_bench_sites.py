"""The benchmark's tracer wraps package attributes by name, so a renamed
or deleted function makes every traced call fail. Check that each one
it names still resolves, without running the tracer, and that one
untraced and one traced benchmark run still end correct."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from listcontract import pram

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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


# geo_rows runs the two-row steps, fixed64 the columns-layout pack; the
# geo_rows runs are named by the trace flag alone
@pytest.mark.parametrize("workload, trace", [
    pytest.param("geo_rows", 0, id="0"), pytest.param("geo_rows", 1, id="1"),
    pytest.param("fixed64", 0, id="fixed64-0"), pytest.param("fixed64", 1, id="fixed64-1")])
def test_benchmark_run_ends_correct(workload, trace):
    # --seconds 0 times one call after the set-up
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                           workload, "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
