"""Acceptance suite: one test per criterion, printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the report.
"""

import itertools

import numpy as np
import pytest

from listcontract import (Machine, PramConfig, UncoveredCaseError, Workload,
                          generate, layout, list_rank, sequential_rank,
                          wyllie_rank)
from listcontract import benchmarks, measured, orientation, ranking
from listcontract.coloring import three_color
from listcontract.errors import OrientationError
from listcontract.orientation import derive_orientation, fold_array
from listcontract.pram import NONE
from listcontract.ranking import contract_to_threshold
from listcontract.steps import restricted_neighbors
from listcontract.uniform import enforce_uniformity, merge_pairs, opposite_pair_shortcut
from conftest import enumerated_states, marked_pairs, paired_state, read_both


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def mixed_workloads(count, max_n, seed0=0):
    rng = np.random.default_rng(seed0)
    for i in range(count):
        dist = ("SINGLE", "FIXED", "GEOMETRIC")[i % 3]
        n = int(rng.integers(4, max_n + 1))
        fixed = 0
        if dist == "FIXED":
            fixed = int(rng.integers(1, 65))
            n = fixed * max(1, n // fixed)
        yield Workload(n=n, num_lists=max(1, n // int(rng.integers(3, 50))),
                       length_distribution=dist, fixed_length=fixed,
                       seed=seed0 * 100_000 + i, layout_shuffle=bool(i % 2)), \
            int(rng.integers(1, 65))


def test_criterion_1_oracle_equivalence():
    failures = 0
    violations = 0
    count = 0
    for w, p in mixed_workloads(850, 4096, seed0=1):
        forest = generate(w)
        run = list_rank(forest, p=p)
        if not run.result.same_as(sequential_rank(forest)):
            failures += 1
        violations += run.metrics.erew_violations
        count += 1
    # row-major split placement with small kept runs drives the full
    # two-row machinery through the same oracle comparison
    for w, p in mixed_workloads(150, 1024, seed0=2):
        forest = generate(w)
        run = list_rank(forest, p=p, min_run=4, layout_mode="rows")
        if not run.result.same_as(sequential_rank(forest)):
            failures += 1
        violations += run.metrics.erew_violations
        count += 1
    # the contraction pipeline and plain pointer jumping over the
    # original lists must both match the oracle on small instances
    for w, p in mixed_workloads(80, 512, seed0=3):
        forest = generate(w)
        contracted = list_rank(forest, p=p)
        jumped = wyllie_rank(forest, p=p)
        oracle = sequential_rank(forest)
        if not (contracted.result.same_as(oracle) and jumped.result.same_as(oracle)):
            failures += 1
        violations += contracted.metrics.erew_violations + jumped.metrics.erew_violations
        count += 1
    report("criterion 1 (oracle equivalence)", failures == 0 and violations == 0,
           f"{count} workloads, {failures} mismatches, {violations} EREW violations")


def test_lone_nodes_over_a_bottom_pair_are_pooled_not_claimed_twice():
    # criterion 1's columns input 571: FIXED l=4, n=3224, shuffled ids,
    # p=62. Placed by id, pass 0's localization leaves a one-node list
    # in the top cell over each column of a bottom pair; kept in the
    # array, the two would survive into the pair's bottom slots with it,
    # claiming columns 313 and 730 twice
    w, p = next(itertools.islice(mixed_workloads(850, 4096, seed0=1), 571, None))
    assert (w.n, w.length_distribution, w.fixed_length, w.layout_shuffle, p) == \
        (3224, "FIXED", 4, True, 62)
    forest = generate(w)
    run = list_rank(forest, p=p)
    assert run.result.same_as(sequential_rank(forest))
    assert run.metrics.erew_violations == 0
    # the lists of four are too long for the pool at the pass start
    assert run.metrics.phase_breakdown["contract/p0/localize/lone/out_wr"] == 4
    assert "contract/p0/pool/out_wr" not in run.metrics.phase_breakdown
    assert run.passes[0].pooled > 0


def test_criterion_2_uniform_packing(monkeypatch):
    bad = []
    checked = 0
    cases = []
    for l in (4, 8, 16, 64):
        cases.append((Workload(n=1024, length_distribution="FIXED",
                               fixed_length=l, seed=l), "columns", 100))
    cases.append((Workload(n=4096, length_distribution="SINGLE", seed=9),
                  "columns", 100))
    for s in range(6):
        cases.append((Workload(n=512 + 128 * s, length_distribution="FIXED",
                               fixed_length=(4, 8, 32)[s % 3], seed=40 + s,
                               layout_shuffle=True), "rows", 4))
    contract_pass, fold = ranking.uniform_contraction_pass, orientation.fold_array
    placed, columns = [], []

    def packed(machine, ids, cols):
        # the survivors are exactly the in-array nodes, each alone in
        # the column the plan gives it, on either row
        col = machine.peek("col")
        return (np.array_equal(np.sort(ids), machine.in_array_ids())
                and np.array_equal(col[ids], cols) and np.unique(cols).size == ids.size)

    def checked_fold(machine, ids, cols, *args, **kwargs):
        columns.append(packed(machine, ids, cols))
        return fold(machine, ids, cols, *args, **kwargs)

    def checked_pass(machine, *args, **kwargs):
        # after it the occupied cells are exactly the in-array nodes,
        # each at its own row and column, and the weights still add up
        # to n
        rep = contract_pass(machine, *args, **kwargs)
        grid, ids = machine.grid(), machine.in_array_ids()
        r, c = np.nonzero(grid != NONE)
        order = np.argsort(grid[r, c])
        placed.append(np.array_equal(grid[r, c][order], ids)
                      and np.count_nonzero(machine.peek("slot") != NONE) == ids.size
                      and np.array_equal(machine.peek("row")[ids], r[order])
                      and np.array_equal(machine.peek("col")[ids], c[order])
                      and int(machine.peek("weight")[machine.active_ids()].sum()) == machine.n)
        return rep

    monkeypatch.setattr(ranking, "uniform_contraction_pass", checked_pass)
    monkeypatch.setattr(orientation, "fold_array", checked_fold)
    for w, mode, min_run in cases:
        forest = generate(w)
        m = Machine(forest, PramConfig(num_processors=64))
        layout(m, mode=mode)
        placed.clear()
        columns.clear()
        reports, _ = contract_to_threshold(m, threshold=0, max_passes=6,
                                           min_run=min_run)
        # the next pass folds a pass's survivors, and no pass follows
        # the last one, whose plan is still pending; a pass that pools
        # every list leaves none
        if m.pending_fold is not None:
            columns.append(packed(m, *m.pending_fold[:2]))
        folded = iter(columns)
        for i, (rep, ok) in enumerate(zip(reports, placed)):
            checked += 1
            if rep.pre_active and not next(folded):
                bad.append((w.seed, i, "two survivors share a column"))
            if rep.pre_active and rep.survivors > rep.pre_active / 2:
                bad.append((w.seed, i, "survivors exceed half"))
            if not ok:
                bad.append((w.seed, i, "grid and in-array nodes disagree"))
    report("criterion 2 (uniform packing)", not bad,
           f"{checked} passes checked, offences: {bad[:4]}")


def test_criterion_3_erew_compliance():
    total = 0
    for w, p in mixed_workloads(60, 2048, seed0=5):
        forest = generate(w)
        run = list_rank(forest, p=p)
        total += run.metrics.erew_violations
        run2 = wyllie_rank(forest, p=p)
        total += run2.metrics.erew_violations
    for w, p in mixed_workloads(30, 768, seed0=6):
        forest = generate(w)
        run = list_rank(forest, p=p, min_run=4, layout_mode="rows")
        total += run.metrics.erew_violations
    report("criterion 3 (EREW compliance)", total == 0,
           f"erew_violations = {total} (the engine raises on any)")


def test_criterion_4_pass_cost_tied_to_coloring():
    ks, passes = {}, {}
    for e in (10, 12, 14, 16, 18):
        passes[e], color_rounds, _ = benchmarks.pass_vs_coloring_rounds(e)
        ks[e] = passes[e] / color_rounds
    recorded = measured.PASS_OVER_COLORING_K
    ok = all(abs(ks[e] - recorded[e]) <= 0.10 * recorded[e] for e in ks)
    bounded = max(ks.values()) <= 1.5 * min(ks.values())
    # the absolute target: one single-list pass in at most 100 rounds
    within_target = max(passes.values()) <= 100
    report("criterion 4 (pass cost ~ coloring cost)", ok and bounded and within_target,
           f"K = { {e: round(v, 3) for e, v in ks.items()} } vs recorded "
           f"{recorded} (+-10%), pass rounds {passes} (<= 100)")


def test_criterion_5_round_scaling():
    sweep = benchmarks.fixed_l_round_sweep()
    rounds = [r["rounds"] for r in sweep]
    viol = sum(r["violations"] for r in sweep)
    recorded = measured.FIXED_L_ROUNDS
    within_recorded = all(abs(r["rounds"] - recorded[r["exponent"]])
                          <= 0.10 * recorded[r["exponent"]] for r in sweep)
    # the permitted growth: +-20% plus the measured coin-tossing
    # increment (one engine step per extra iteration per coloring)
    iters = [benchmarks.pass_vs_coloring_rounds(e)[2] for e in (12, 18)]
    slack = (iters[1] - iters[0]) * 1 * 8
    flat = max(rounds) <= 1.2 * min(rounds) + slack
    single = benchmarks.single_list_round_sweep()
    srounds = [r["rounds"] for r in single]
    growing = all(a <= b for a, b in zip(srounds, srounds[1:])) and \
        srounds[-1] > srounds[0]
    report("criterion 5 (rounds track log l, not log n)",
           flat and growing and viol == 0 and within_recorded,
           f"fixed-l rounds {rounds}, single-list rounds {srounds}")


def test_criterion_6_work_advantage_trend():
    sweep = benchmarks.work_ratio_sweep()
    ratios = [r["ratio"] for r in sweep]
    monotone = all(a <= b for a, b in zip(ratios, ratios[1:]))
    at256 = ratios[-1]
    recorded = measured.WORK_RATIO_AT_256
    within = abs(at256 - recorded) <= 0.10 * recorded
    report("criterion 6 (work trend vs pointer jumping)", monotone and within,
           f"ratios {[round(r, 4) for r in ratios]} monotone={monotone}, "
           f"ratio@256 {at256:.4f} vs recorded {recorded} "
           f"(factor-2 target: measured constant, see notes)")


def test_criterion_7_coloring_properties():
    # properness and final range on assorted instances
    ok = True
    for seed in range(6):
        fo = generate(Workload(n=2000 + seed * 997, num_lists=5 + seed,
                               seed=seed, layout_shuffle=True))
        m = Machine(fo, PramConfig(num_processors=128))
        ids = m.active_ids()
        sv, pv = restricted_neighbors(m, ids, "nbr")
        ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
        pos = np.full(m.n, NONE, dtype=np.int64)
        pos[ids] = np.arange(ids.size)
        mask = sv != NONE
        ok &= bool(set(np.unique(ca.final_color).tolist()) <= {0, 1, 2})
        ok &= not (ca.final_color[mask] == ca.final_color[pos[sv[mask]]]).any()
    # iterated-log bound at n = 2**20
    fo = generate(Workload(n=2**20, length_distribution="SINGLE", seed=8,
                           layout_shuffle=True))
    m = Machine(fo, PramConfig(num_processors=2**16))
    ids = m.active_ids()
    sv, pv = restricted_neighbors(m, ids, "nbr")
    ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
    report("criterion 7 (coloring properties)", ok and ca.dct_iterations <= 5,
           f"proper 3-colorings, dct iterations at 2^20 = {ca.dct_iterations} <= 5")


def test_criterion_8_uniformity_case_coverage():
    uncovered = []
    broken = []
    total = 0
    for name, bottom, top, cols in enumerated_states():
        total += 1
        m, _, state = paired_state(bottom=bottom, top=top, columns=cols, p=8)
        pre_weight = int(m.peek("weight")[m.active_ids()].sum())
        try:
            # pipeline order: aligned stacks are consumed before the
            # uniformity step, which assumes them gone
            both = read_both(m, state)
            opposite_pair_shortcut(m, state, both)
            enforce_uniformity(m, state, both)
        except UncoveredCaseError as exc:
            uncovered.append((name, exc.snapshot.get("columns_lo")))
            continue
        if marked_pairs(m, state):
            broken.append((name, "residual mismatch"))
        try:
            plan = derive_orientation(m, state, both)
            merge_pairs(m, plan.plan_absorbed, plan.plan_host, state, "pack")
        except (OrientationError, UncoveredCaseError) as exc:
            broken.append((name, str(exc)[:60]))
            continue
        survivors, col = m.in_array_ids(), m.peek("col")
        if not (np.array_equal(np.sort(plan.survivors), survivors)
                and np.array_equal(col[plan.survivors], plan.columns)
                and np.unique(plan.columns).size == survivors.size):
            broken.append((name, "two survivors share a column"))
            continue
        fold_array(m, plan.survivors, plan.columns, state.row[plan.survivors])
        grid = m.grid()
        r, c = np.nonzero(grid != NONE)
        if not (np.array_equal(np.sort(grid[r, c]), survivors)
                and np.count_nonzero(m.peek("slot") != NONE) == survivors.size
                and np.array_equal(m.peek("row")[grid[r, c]], r)
                and np.array_equal(col[grid[r, c]], c)):
            broken.append((name, "grid and in-array nodes disagree after the fold"))
        if int(m.peek("weight")[m.active_ids()].sum()) != pre_weight:
            broken.append((name, "weight lost"))
    report("criterion 8 (uniformity case coverage)",
           not uncovered and not broken,
           f"{total} enumerated states, uncovered={len(uncovered)}, "
           f"other failures={broken[:4]}")
