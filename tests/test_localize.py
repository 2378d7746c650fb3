import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import (Machine, PramConfig, Workload, generate, layout, list_rank,
                          sequential_rank)
from listcontract.localize import localize
from listcontract.model import POOLED
from listcontract.pram import NONE
from listcontract.ranking import pointer_jump, replay_ranks
from conftest import list_order, path_forest, place, read_state

# the package's localize function hides the module of that name
localize_mod = importlib.import_module("listcontract.localize")


def cut_links(m, state):
    """The live tasks whose successor link, and those whose predecessor
    link, the pass state dropped; every link it kept is memory's."""
    ids = state.live()
    succ, pred = m.peek("succ")[ids], m.peek("pred")[ids]
    sv, pv = state.sv[ids], state.pv[ids]
    assert ((sv == succ) | (sv == NONE)).all() and ((pv == pred) | (pv == NONE)).all()
    return ids[(succ != NONE) & (sv == NONE)], ids[(pred != NONE) & (pv == NONE)]


def test_localize_alternating_absorbs_into_upper_row():
    # 200-node alternating list: every length-1 lower run is absorbed up
    m = Machine(path_forest(200), PramConfig(num_processors=16))
    layout(m)
    state = read_state(m)
    localize(m, state, min_run=100)
    ids = m.in_array_ids()
    rows = m.peek("row")[ids]
    assert (rows == 0).all()
    cut_s, cut_p = cut_links(m, state)
    assert cut_s.size == 0 and cut_p.size == 0
    assert int(m.peek("weight")[ids].sum()) == 200
    # zero kept cross-row links
    sv = state.sv[ids]
    assert (m.peek("row")[sv[sv != NONE]] == rows[sv != NONE]).all()


def test_long_lower_run_kept_with_boundary_links_cut():
    # list of 600: 150 upper, 150 lower, 150 upper, 150 lower
    m = Machine(path_forest(600), PramConfig(num_processors=32))
    pos = {}
    for i in range(150):
        pos[i] = (0, i)
        pos[150 + i] = (1, i)
        pos[300 + i] = (0, 150 + i)
        pos[450 + i] = (1, 150 + i)
    place(m, pos)
    state = read_state(m)
    localize(m, state, min_run=100)
    # nothing absorbed: every run has >= 100 nodes
    assert m.in_array_ids().size == 600
    # the lower run 150..299 keeps its row; its two boundary links cut
    assert (m.peek("row")[np.arange(150, 300)] == 1).all()
    # three row changes along the list, each cut at both ends
    cut_s, cut_p = cut_links(m, state)
    assert cut_s.tolist() == [149, 299, 449] and cut_p.tolist() == [150, 300, 450]
    # memory keeps every link
    assert (m.peek("succ")[cut_s] == cut_p).all()


def test_short_interior_run_absorbed_and_split_at_midpoint():
    # 30-node lower run flanked by long upper runs
    m = Machine(path_forest(230), PramConfig(num_processors=16))
    pos = {}
    for i in range(100):
        pos[i] = (0, i)
    for i in range(30):
        pos[100 + i] = (1, i)
    for i in range(100):
        pos[130 + i] = (0, 100 + i)
    place(m, pos)
    localize(m, read_state(m), min_run=100)
    ids = m.in_array_ids()
    assert (m.peek("row")[ids] == 0).all()
    # flank hosts absorbed half the run each
    assert m.peek("weight")[99] == 1 + 15
    assert m.peek("weight")[130] == 1 + 15
    assert int(m.peek("weight")[ids].sum()) == 230


def test_list_on_one_row_is_noop():
    m = Machine(path_forest(8), PramConfig())
    place(m, {v: (0, v) for v in range(8)})
    state = read_state(m)
    localize(m, state, min_run=100)
    cut_s, cut_p = cut_links(m, state)
    assert cut_s.size == 0 and cut_p.size == 0
    assert m.in_array_ids().size == 8


def test_post_localize_invariants_random_placement():
    rng = np.random.default_rng(11)
    n = 500
    m = Machine(path_forest(n), PramConfig(num_processors=16))
    pos = {}
    c = [0, 0]
    for v in range(n):
        r = int(rng.integers(0, 2))
        pos[v] = (r, c[r]); c[r] += 1
    place(m, pos)
    state = read_state(m)
    localize(m, state, min_run=20)
    ids = m.in_array_ids()
    succ, row = m.peek("succ"), m.peek("row")
    # a link is kept exactly when its ends share a row
    cut_s, _ = cut_links(m, state)
    for v in ids:
        s = succ[v]
        if s != NONE:
            assert (row[s] == row[v]) == (v not in cut_s)
    assert int(m.peek("weight")[ids].sum()) == n


def flanked_runs(m):
    """Length of every single-row run with a neighbor on the other row."""
    row, succ, pred = m.peek("row"), m.peek("succ"), m.peek("pred")
    out = []
    for v in m.in_array_ids():
        p = pred[v]
        if p != NONE and row[p] == row[v]:
            continue
        length, u = 0, v
        while u != NONE and row[u] == row[v]:
            length += 1
            u = succ[u]
        if p != NONE or u != NONE:
            out.append(length)
    return out


def test_min_run_above_1024_absorbs_whole_short_runs():
    # rows layout of three 2800-node lists: one list is split into two
    # flanked 1400-node runs, each more than 1024 hops long
    m = Machine(generate(Workload(n=8400, length_distribution="FIXED",
                                  fixed_length=2800)), PramConfig(num_processors=64))
    layout(m, mode="rows")
    assert sorted(flanked_runs(m)) == [1400, 1400]
    localize(m, read_state(m), min_run=2000)
    assert not [r for r in flanked_runs(m) if r < 2000]
    absorbed = sum(b.absorbed.size for b in m.log)
    assert absorbed == 1400
    assert int(m.peek("weight")[m.in_array_ids()].sum()) == 8400


def test_no_flank_skips_run_distances():
    # columns layout of FIXED l=64: phase (a) absorbs the whole lower
    # row, so no upper run has a flank and phase (b) has nothing short;
    # every lower run is one node long, so phase (a) has no distance to
    # double either
    n = 4096
    m = Machine(generate(Workload(n=n, length_distribution="FIXED", fixed_length=64)),
                PramConfig(num_processors=n // 6))
    layout(m)
    localize(m, read_state(m))
    labels = m.engine.metrics().phase_breakdown
    assert not [k for k in labels if k.startswith(("localize/b/dhead", "localize/b/dtail",
                                                   "localize/b/walk"))]
    assert not [k for k in labels if k.startswith(("localize/a/dhead", "localize/a/dtail",
                                                   "localize/a/walk"))]
    assert [k for k in labels if k.startswith("localize/a/")]
    assert (m.peek("row")[m.in_array_ids()] == 0).all()
    assert int(m.peek("weight")[m.in_array_ids()].sum()) == n


# -- flank walk against run-distance doubling ------------------------------

def assert_same_classes(walk, dbl):
    """Equal short flags, and equal distances and flank flags on every
    short-run node."""
    short = dbl[4]
    assert np.array_equal(walk[4], short)
    for got, want in zip(walk[:4], dbl[:4]):
        assert np.array_equal(got[short], want[short])


def random_rows(machine, forest, rng, q):
    """Place every node on row 1 with probability q, in list order."""
    r = (rng.random(forest.n) < q).astype(int)
    col, pos = [0, 0], {}
    for v in list_order(forest):
        pos[int(v)] = (int(r[v]), col[r[v]])
        col[r[v]] += 1
    place(machine, pos)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 400), lists=st.integers(1, 8),
       mode=st.sampled_from(["columns", "rows", "random"]),
       min_run=st.sampled_from([2, 3, 8, 100, 1025]), p=st.integers(1, 16))
def test_walk_classifies_short_runs_as_doubling_does(seed, n, lists, mode, min_run, p):
    # every localization of a whole ranking call, and of a random
    # placement, runs both classifiers on the same pass state first
    forest = generate(Workload(n=n, num_lists=min(lists, n), length_distribution="GEOMETRIC",
                               seed=seed, layout_shuffle=True))
    absorb = localize_mod._absorb_short_runs

    def compared(machine, state, target_row, min_run, phase):
        walk = localize_mod.classify_by_walk(machine, state, target_row, min_run, "cmp/w")
        dbl = localize_mod.classify_by_doubling(machine, state, target_row, min_run, "cmp/d")
        assert_same_classes(walk, dbl)
        return absorb(machine, state, target_row, min_run, phase)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localize_mod, "_absorb_short_runs", compared)
        if mode == "random":
            m = Machine(forest, PramConfig(num_processors=p))
            random_rows(m, forest, np.random.default_rng(seed), 0.5)
            localize(m, read_state(m), min_run=min_run)
            assert m.engine.metrics().erew_violations == 0
        else:
            run = list_rank(forest, p=p, min_run=min_run, layout_mode=mode)
            assert run.result.same_as(sequential_rank(forest))
            assert run.metrics.erew_violations == 0


def test_walk_and_doubling_agree_on_dense_random_runs():
    # many short and long runs on both rows; min_run 3 walks runs of two
    rng = np.random.default_rng(7)
    for min_run in (3, 8, 100):
        forest = generate(Workload(n=3000, num_lists=5, length_distribution="GEOMETRIC",
                                   seed=min_run, layout_shuffle=True))
        m = Machine(forest, PramConfig(num_processors=8))
        random_rows(m, forest, rng, 0.3)
        state = read_state(m)
        for target_row in (1, 0):
            dbl = localize_mod.classify_by_doubling(m, state, target_row, min_run, "d")
            assert dbl[4].sum() > 0
            assert_same_classes(localize_mod.classify_by_walk(m, state, target_row, min_run, "w"),
                                dbl)
        assert m.engine.metrics().erew_violations == 0


def test_walk_rule_prices_both_classifiers():
    # min_run 8: a walk of at most 15 steps of the walkers against two
    # doublings of 4 steps of every target-row node
    assert localize_mod.walk_is_cheaper(walkers=1, tasks=1000, p=100, min_run=8)
    assert localize_mod.walk_is_cheaper(walkers=500, tasks=1000, p=100, min_run=8)   # 75 <= 80
    assert not localize_mod.walk_is_cheaper(walkers=600, tasks=1000, p=100, min_run=8)
    assert localize_mod.walk_is_cheaper(walkers=0, tasks=10, p=1, min_run=100)
    assert not localize_mod.walk_is_cheaper(walkers=1, tasks=30, p=16, min_run=100)


def localize_labels(positions, n, p, min_run):
    m = Machine(path_forest(n), PramConfig(num_processors=p))
    place(m, positions)
    localize(m, read_state(m), min_run=min_run)
    assert int(m.peek("weight")[m.in_array_ids()].sum()) == n
    return m, list(m.engine.metrics().phase_breakdown)


def test_localize_walks_few_runs_and_doubles_many():
    # one 5-node lower run inside a 2000-node upper run: one walker
    # against 5 target-row tasks, so min_run 8 walks
    pos = {v: (0, v) for v in range(1000)}
    pos.update({1000 + i: (1, i) for i in range(5)})
    pos.update({1005 + i: (0, 1000 + i) for i in range(995)})
    m, labels = localize_labels(pos, 2000, 1, 8)
    assert [k for k in labels if k.startswith("localize/a/walk")]
    assert not [k for k in labels if "/dhead" in k or "/dtail" in k]
    assert m.peek("weight")[999] == 1 + 3 and m.peek("weight")[1005] == 1 + 2
    # 300 two-node lower runs between two-node upper runs: 300 walkers
    # of up to 199 steps against two 8-step doublings of 600 tasks
    pos = {v: ((v // 2) % 2, (v // 4) * 2 + v % 2) for v in range(1200)}
    m, labels = localize_labels(pos, 1200, 16, 100)
    assert [k for k in labels if k.startswith("localize/a/dhead")]
    assert not [k for k in labels if "/walk" in k]
    assert (m.peek("row")[m.in_array_ids()] == 0).all()


# -- log-depth absorption waves --------------------------------------------

def localize_runs(runs, p=16):
    """Localize one path laid out as consecutive single-row runs, runs
    a list of (row, length), at min_run 100; returns the machine, its
    pass state and its step labels in order."""
    n = sum(length for _, length in runs)
    m = Machine(path_forest(n), PramConfig(num_processors=p, record_trace=True))
    pos, col, v = {}, [0, 0], 0
    for row, length in runs:
        for _ in range(length):
            pos[v] = (row, col[row])
            col[row] += 1
            v += 1
    place(m, pos)
    state = read_state(m)
    localize(m, state, min_run=100)
    assert m.engine.metrics().erew_violations == 0
    # the contraction log replays to the path's ranks
    ids, before, head, _ = pointer_jump(m)
    assert replay_ranks(m, ids, before, head).rank.tolist() == list(range(n))
    cut_s, cut_p = cut_links(m, state)
    assert cut_s.size == 0 and cut_p.size == 0
    return m, state, [r.label for r in m.engine.trace]


def wave_labels(labels):
    return [k for k in labels if k.startswith("localize/a/w")]


@pytest.mark.parametrize("h", [1, 2, 3, 4, 7, 8, 50])
def test_half_run_takes_log_depth_waves(h):
    # a lower run of h nodes ends the list after a long upper run: all
    # of it is one half, flanked by node 9
    m, state, labels = localize_runs([(0, 10), (1, h)])
    waves = int(np.ceil(np.log2(h + 1)))
    assert wave_labels(labels) == [f"localize/a/w{j}/{step}" for j in range(waves)
                                   for step in ("contract", "refresh")]
    assert m.peek("weight")[9] == 1 + h
    assert (m.peek("row")[m.in_array_ids()] == 0).all()
    assert state.live().tolist() == list(range(10))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_meeting_pair_links_both_hosts(k):
    # lower runs of 2 and 2**k + 2 nodes, each between upper runs: the
    # two halves' last nodes meet in one wave, into the flanks (run of
    # 2, and k = 1) or into run nodes
    long = 2 ** k + 2
    m, state, labels = localize_runs([(0, 10), (1, 2), (0, 10), (1, long), (0, 10)])
    succ, weight = m.peek("succ"), m.peek("weight")
    b, c = 22, 22 + long   # first nodes of the second and third upper runs
    assert succ[9] == 12 and succ[b - 1] == c
    assert state.sv[9] == 12 and state.pv[c] == b - 1
    assert weight[[9, 12, b - 1, c]].tolist() == [2, 2, 1 + long // 2, 1 + long // 2]
    assert len(wave_labels(labels)) == 2 * int(np.ceil(np.log2(long // 2 + 1)))


@pytest.mark.parametrize("h", [1, 3])
def test_runs_on_both_sides_of_one_node_absorb_into_it_in_one_step(h):
    # lower runs open and close the list around a single upper node f,
    # their only flank: both sides go into f in the same waves, and f,
    # now the whole list, leaves the array in one pool step
    m, state, labels = localize_runs([(1, h), (0, 1), (1, h)])
    f = h
    assert wave_labels(labels) == [f"localize/a/w{j}/{step}"
                                   for j in range(int(np.ceil(np.log2(h + 1))))
                                   for step in ("contract", "refresh")]
    assert m.peek("weight")[f] == 1 + 2 * h
    assert m.in_array_ids().size == 0 and m.peek("row")[f] == POOLED
    assert labels.count("localize/lone/out_wr") == 1 and state.live().size == 0
    assert labels.index("localize/lone/out_wr") > labels.index(wave_labels(labels)[-1])
    assert state.sv[f] == NONE and state.pv[f] == NONE
