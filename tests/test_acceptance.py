"""Acceptance suite: one test per criterion, printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the report.
"""

import itertools

import numpy as np
import pytest

from listcontract import (Machine, PramConfig, UncoveredCaseError, Workload,
                          generate, layout, list_rank, sequential_rank,
                          wyllie_rank)
from listcontract import benchmarks, measured
from listcontract.coloring import three_color
from listcontract.errors import OrientationError
from listcontract.orientation import (contract_along_orientation,
                                      derive_orientation)
from listcontract.pram import NONE
from listcontract.ranking import contract_to_threshold
from listcontract.steps import restricted_neighbors
from listcontract.uniform import enforce_uniformity, opposite_pair_shortcut
from conftest import enumerated_states, marked_pairs, pair_sides, paired_state


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


def test_criterion_2_uniform_packing():
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
    for w, mode, min_run in cases:
        forest = generate(w)
        m = Machine(forest, PramConfig(num_processors=64))
        layout(m, mode=mode)
        reports = contract_to_threshold(m, threshold=0, max_passes=6,
                                        min_run=min_run)
        for i, rep in enumerate(reports):
            checked += 1
            if not rep.survivors_in_bottom_row:
                bad.append((w.seed, i, "survivors outside bottom row"))
            if rep.pre_active and rep.survivors > rep.pre_active / 2:
                bad.append((w.seed, i, "survivors exceed half"))
            if not rep.halved:
                bad.append((w.seed, i, "columns not halved"))
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
        m, _ = paired_state(bottom=bottom, top=top, columns=cols, p=8)
        pre_weight = int(m.peek("weight")[m.active_ids()].sum())
        try:
            # pipeline order: aligned stacks are consumed before the
            # uniformity step, which assumes them gone
            opposite_pair_shortcut(m, pair_sides(m))
            enforce_uniformity(m, pair_sides(m))
        except UncoveredCaseError as exc:
            uncovered.append((name, exc.snapshot.get("columns_lo")))
            continue
        if marked_pairs(m):
            broken.append((name, "residual mismatch"))
        try:
            plan = derive_orientation(m)
            contract_along_orientation(m, plan, pair_sides(m))
        except (OrientationError, UncoveredCaseError) as exc:
            broken.append((name, str(exc)[:60]))
            continue
        survivors = m.in_array_ids()
        if survivors.size and not (m.peek("row")[survivors] == 1).all():
            broken.append((name, "survivor outside bottom row"))
        if int(m.peek("weight")[m.active_ids()].sum()) != pre_weight:
            broken.append((name, "weight lost"))
    report("criterion 8 (uniformity case coverage)",
           not uncovered and not broken,
           f"{total} enumerated states, uncovered={len(uncovered)}, "
           f"other failures={broken[:4]}")
