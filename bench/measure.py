"""Measurement of one workload in one process: set-up, the closed loop
of ranking calls, the correctness gate and the traced run.

Every call is checked against the ``sequential_rank`` oracle and
against ``erew_violations == 0``; a call that raises counts as failed.
The untraced and traced loops are separate functions, and the traced
calls are never used for ``rank_ref`` or ``rank_s``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from listcontract.ranking import sequential_rank

from cases import make_forest, rank
from tracing import Tracer, layer_metrics, layer_totals

SETUPS = 3
REF_CELLS = 2 ** 18


@dataclass
class Tally:
    """Calls attempted and failed, and the metered counts they gave."""

    attempted: int = 0
    failed: int = 0
    counts: set = field(default_factory=set)

    def timed(self, call, oracle):
        """One checked ranking call; returns (run, seconds), both None
        when the call failed."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            run = call()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        seconds = time.perf_counter() - t0
        if self.check(run, oracle) is None:
            return None, None
        return run, seconds

    def check(self, run, oracle):
        m = run.metrics
        if m.erew_violations or not run.result.same_as(oracle):
            print(f"wrong output: erew_violations={m.erew_violations}", file=sys.stderr)
            self.failed += 1
            return None
        self.counts.add((m.rounds, m.total_work))
        return run

    def metered(self):
        """The (rounds, work) every successful call gave; a second
        distinct pair means the program is not deterministic, which
        counts as a failure."""
        if len(self.counts) > 1:
            print(f"metered counts differ between calls: {sorted(self.counts)}",
                  file=sys.stderr)
            self.failed += 1
        return next(iter(self.counts)) if len(self.counts) == 1 else (None, None)


@dataclass
class Setup:
    forest: object
    oracle: object
    seconds: float      # median set-up, import excluded
    generate_s: float
    sequential_s: float


def set_up(case, seed, tally):
    """Generate, run the oracle and one warm-up call, SETUPS times;
    returns the last inputs and the median times."""
    totals, gens, seqs = [], [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        forest = make_forest(case, seed)
        t1 = time.perf_counter()
        oracle = sequential_rank(forest)
        t2 = time.perf_counter()
        tally.timed(lambda: rank(case, forest), oracle)
        totals.append(time.perf_counter() - t0)
        gens.append(t1 - t0)
        seqs.append(t2 - t1)
    med = statistics.median
    return Setup(forest, oracle, med(totals), med(gens), med(seqs))


class Reference:
    """A fixed numpy kernel timed just before every ranking call: stable
    argsort, gather, select and scatter over 2^18 cells, the operations
    an engine step is made of. It depends on neither the program nor the
    seed. The machine's speed drifts by 20% and more over minutes; each
    call's time over the kernel time next to it drifts far less (see
    README.md)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.perm = rng.permutation(REF_CELLS)
        self.keys = rng.integers(0, 2 ** 40, REF_CELLS)

    def seconds(self):
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(3):
            np.argsort(self.keys, kind="stable")
            moved = self.keys[self.perm]
            out = np.full(REF_CELLS, -1, dtype=np.int64)
            out[self.perm] = np.where(moved > self.keys, moved, self.keys)
        return time.perf_counter() - t0


def _loop(seconds, body):
    t0 = time.perf_counter()
    body()
    while time.perf_counter() - t0 < seconds:
        body()


def end_to_end(case, seed, seconds, import_s):
    """Untraced run: returns (metrics, tally, notes)."""
    tally = Tally()
    setup = set_up(case, seed, tally)
    reference = Reference()
    times, refs, ratios = [], [], []

    def body():
        ref = reference.seconds()
        dt = tally.timed(lambda: rank(case, setup.forest), setup.oracle)[1]
        if dt is not None:
            times.append(dt)
            refs.append(ref)
            ratios.append(dt / ref)
    _loop(seconds, body)

    rounds, work = tally.metered()
    metrics = {
        "rank_ref": statistics.median(ratios) if ratios else None,
        "setup_s": import_s + setup.seconds,
        "rounds": rounds,
        "work_per_n": work / setup.forest.n if work is not None else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"failed_frac {tally.failed / tally.attempted:.4f} "
             f"({tally.failed} of {tally.attempted} calls)"]
    for name, values, unit in (("rank_s", times, "s"), ("ref_s", refs, "s"),
                               ("rank_ref", ratios, "ref")):
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4)
            notes.append(f"{name} over {len(values)} calls: p25 {q1:.4f} "
                         f"median {med:.4f} p75 {q3:.4f} {unit}")
    return metrics, tally, notes


def traced(case, seed, seconds):
    """Traced run: untraced and traced calls alternate so the overhead
    compares like with like. Returns (metrics, tally, notes, spans)."""
    tally = Tally()
    setup = set_up(case, seed, tally)
    n = setup.forest.n
    tracer = Tracer()
    plain_s, traced_s, per_call, last_spans = [], [], [], []

    def traced_call():
        run, spans = tracer.call(case.algo, rank, case, setup.forest)
        last_spans[:] = spans
        return run

    def plain():
        dt = tally.timed(lambda: rank(case, setup.forest), setup.oracle)[1]
        if dt is not None:
            plain_s.append(dt)

    def traced_one():
        run, dt = tally.timed(traced_call, setup.oracle)
        if run is None:
            return
        tot = layer_totals(last_spans)
        if (sum(d["rounds"] for d in tot.values()) != run.metrics.rounds
                or sum(d["work"] for d in tot.values()) != run.metrics.total_work):
            print("layer self counts do not add up to the call's totals",
                  file=sys.stderr)
            tally.failed += 1
            return
        traced_s.append(dt)
        per_call.append(layer_metrics(last_spans, run, n))

    def body():
        # the order flips every pair, and no result outlives its call, so
        # both kinds of call start from the same heap equally often
        pair = (plain, traced_one) if len(per_call) % 2 else (traced_one, plain)
        for call in pair:
            call()
    _loop(seconds, body)

    tally.metered()
    metrics = {}
    for name in per_call[0] if per_call else ():
        values = [m[name] for m in per_call]
        # counts repeat exactly; times are medians
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["workloads.generate_s"] = setup.generate_s
    metrics["ranking.sequential_s"] = setup.sequential_s
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1
        if traced_s and plain_s else None)
    notes = [f"{len(traced_s)} traced calls, {len(plain_s)} untraced calls",
             f"failed_frac {tally.failed / tally.attempted:.4f} "
             f"({tally.failed} of {tally.attempted} calls)"]
    return metrics, tally, notes, tracer.spans
