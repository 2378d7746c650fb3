"""Tests of the benchmark itself: the correctness gate, the traced
run's completeness, determinism and the printed metric names.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import listcontract.pram  # noqa: E402
import listcontract.ranking  # noqa: E402
from listcontract.ranking import sequential_rank  # noqa: E402

import measure  # noqa: E402
from cases import CASES, make_forest, rank  # noqa: E402
from tracing import COUNTED_LAYERS, SITES, Tracer, layer_metrics, layer_totals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = 13


def _traced_and_plain(case, log2n, seed=0):
    forest = make_forest(case, seed, log2n)
    plain = rank(case, forest)
    traced, spans = Tracer().call(case.algo, rank, case, forest)
    return forest, plain, traced, spans


@pytest.mark.parametrize("name", sorted(CASES))
def test_layer_self_counts_add_up_to_the_call_totals(name):
    forest, plain, traced, spans = _traced_and_plain(CASES[name], SMALL)
    tot = layer_totals(spans)
    assert set(tot) == set(COUNTED_LAYERS)
    assert sum(d["rounds"] for d in tot.values()) == traced.metrics.rounds
    assert sum(d["work"] for d in tot.values()) == traced.metrics.total_work
    # tracing must not change the program
    assert traced.metrics.rounds == plain.metrics.rounds
    assert traced.metrics.total_work == plain.metrics.total_work
    assert traced.result.same_as(plain.result)
    assert traced.result.same_as(sequential_rank(forest))


@pytest.mark.parametrize("name", sorted(CASES))
def test_self_seconds_and_step_closes_cover_the_call(name):
    _, _, traced, spans = _traced_and_plain(CASES[name], SMALL)
    m = layer_metrics(spans, traced, 2 ** SMALL)
    covered = sum(d["self_s"] for d in layer_totals(spans).values()) + m["pram.close_s"]
    assert covered == pytest.approx(spans[0].seconds, rel=1e-9)
    assert all(sp.self_s >= 0 for sp in spans)


def test_fixed64_reproduces_the_roadmap_baseline():
    case = CASES["fixed64"]
    forest, plain, traced, spans = _traced_and_plain(case, case.log2n, seed=2)
    assert plain.metrics.rounds == 453
    assert round(plain.metrics.total_work / forest.n, 2) == 58.09
    assert sum(d["rounds"] for d in layer_totals(spans).values()) == 453


def test_wyllie_touches_no_contraction_layer():
    case = CASES["wyllie256"]
    _, _, traced, spans = _traced_and_plain(case, SMALL)
    tot = layer_totals(spans)
    assert tot["ranking"]["rounds"] == traced.metrics.rounds
    assert {sp.layer for sp in spans} == {"ranking", "model"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_seed_gives_same_counts_and_ranks(name):
    case = CASES[name]
    a = rank(case, make_forest(case, 5, SMALL))
    b = rank(case, make_forest(case, 5, SMALL))
    assert (a.metrics.rounds, a.metrics.total_work) == (b.metrics.rounds, b.metrics.total_work)
    assert a.result.same_as(b.result)


def test_tracer_restores_every_site_even_when_the_call_raises():
    originals = [getattr(sys.modules[mod], attr) for _, mod, attr in SITES]
    step = listcontract.pram.Engine.step

    def boom():
        listcontract.ranking.pointer_jump(None)

    with pytest.raises(AttributeError):
        Tracer().call("boom", boom)
    assert [getattr(sys.modules[mod], attr) for _, mod, attr in SITES] == originals
    assert listcontract.pram.Engine.step is step


def test_gate_counts_exceptions_and_wrong_ranks_as_failures():
    case = CASES["fixed64"]
    forest = make_forest(case, 0, 10)
    oracle = sequential_rank(forest)
    tally = measure.Tally()
    assert tally.timed(lambda: 1 // 0, oracle) == (None, None)
    good = rank(case, forest)
    assert tally.check(good, oracle) is good
    bad = rank(case, forest)
    bad.result.rank = np.roll(bad.result.rank, 1)
    assert tally.check(bad, oracle) is None
    assert (tally.attempted, tally.failed) == (1, 2)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_lists_every_declared_metric(trace, section):
    proc = _run_cli("--workload", "wyllie256", "--seed", "3", "--seconds", "0",
                    "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] is not None for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "fixed64", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
