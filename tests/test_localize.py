import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import (Machine, PramConfig, Workload, generate, layout, list_rank,
                          orientation, sequential_rank)
from listcontract.localize import localize
from listcontract.model import INBOX, POOLED
from listcontract.pram import NONE
from listcontract.ranking import pointer_jump, replay_ranks
from listcontract.steps import read_neighbor
from conftest import forest_from_lists, list_order, path_forest, place, read_state

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


@pytest.mark.parametrize("min_run", [1, 0])
def test_localize_rejects_min_run_below_two(min_run):
    m = Machine(path_forest(200), PramConfig(num_processors=16))
    layout(m)
    state = read_state(m)
    rounds = m.engine.metrics().rounds
    with pytest.raises(ValueError, match="min_run must be at least 2"):
        localize(m, state, min_run=min_run)
    assert m.engine.metrics().rounds == rounds


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
    # every lower run is one node long, so phase (a) has no run to walk
    # either
    n = 4096
    m = Machine(generate(Workload(n=n, length_distribution="FIXED", fixed_length=64)),
                PramConfig(num_processors=n // 6))
    layout(m)
    localize(m, read_state(m))
    labels = m.engine.metrics().phase_breakdown
    assert not [k for k in labels if k.startswith(("localize/a/walk", "localize/b/walk"))]
    assert [k for k in labels if k.startswith("localize/a/")]
    assert (m.peek("row")[m.in_array_ids()] == 0).all()
    assert int(m.peek("weight")[m.in_array_ids()].sum()) == n


# -- flank walk against a host walk of the pass registers ------------------

def host_classes(state, target_row, min_run):
    """What classify_by_walk returns, by walking the pass registers on
    the host: each live target-row node's distance to the start and to
    the end of its run, the flank flags of those ends, and short, in
    the order of _run_ends; distances NONE and flags False off short
    runs."""
    nodes = localize_mod._run_ends(state, target_row)[0]
    out = {}
    for v in nodes:
        if state.row_p[v] == target_row:
            continue   # not a run start
        run = [int(v)]
        while state.row_s[run[-1]] == target_row:
            run.append(int(state.sv[run[-1]]))
        # an end is flanked when it has a neighbor, which is then off the row
        head, tail = state.row_p[v] != NONE, state.row_s[run[-1]] != NONE
        short = len(run) < min_run and (head or tail)
        for i, u in enumerate(run):
            out[u] = ((i, len(run) - 1 - i, head, tail, True) if short
                      else (NONE, NONE, False, False, False))
    cols = np.array([out[int(v)] for v in nodes], dtype=np.int64).reshape(-1, 5).T
    return cols[0], cols[1], cols[2] == 1, cols[3] == 1, cols[4] == 1


def assert_same_classes(walk, want):
    """Equal distances, flank flags and short flags on every node."""
    for got, exp in zip(walk, want):
        assert got.dtype == exp.dtype and np.array_equal(got, exp)


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
def test_walk_classifies_short_runs_as_the_host_does(seed, n, lists, mode, min_run, p):
    # every localization of a whole ranking call, and of a random
    # placement, checks the walk against the host on its pass state first
    forest = generate(Workload(n=n, num_lists=min(lists, n), length_distribution="GEOMETRIC",
                               seed=seed, layout_shuffle=True))
    absorb = localize_mod._absorb_short_runs

    def compared(machine, state, target_row, min_run, phase):
        ends = localize_mod._run_ends(state, target_row)
        walk = localize_mod.classify_by_walk(machine, state, target_row, ends, min_run, "cmp/w")
        assert_same_classes(walk, host_classes(state, target_row, min_run))
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


def test_walk_and_host_agree_on_dense_random_runs():
    # many short and long runs on both rows; min_run 3 walks runs of two
    rng = np.random.default_rng(7)
    for min_run in (3, 8, 100):
        forest = generate(Workload(n=3000, num_lists=5, length_distribution="GEOMETRIC",
                                   seed=min_run, layout_shuffle=True))
        m = Machine(forest, PramConfig(num_processors=8))
        random_rows(m, forest, rng, 0.3)
        state = read_state(m)
        for target_row in (1, 0):
            ends = localize_mod._run_ends(state, target_row)
            want = host_classes(state, target_row, min_run)
            assert want[4].sum() > 0
            assert_same_classes(
                localize_mod.classify_by_walk(m, state, target_row, ends, min_run, "w"), want)
        assert m.engine.metrics().erew_violations == 0


def runs_machine(lists, p=None):
    """A machine whose lists are laid out as consecutive single-row
    runs, lists a sequence of run lists [(row, length), ...], node ids
    in list order; p is the node count by default."""
    chains, pos, col, v = [], {}, [0, 0], 0
    for runs in lists:
        chain = []
        for row, length in runs:
            for _ in range(length):
                pos[v] = (row, col[row])
                col[row] += 1
                chain.append(v)
                v += 1
        chains.append(chain)
    m = Machine(forest_from_lists(chains), PramConfig(num_processors=p or v))
    place(m, pos)
    return m


def short_run_nodes(m, target_row, min_run):
    """The target-row nodes of flanked runs shorter than min_run, in
    id order, by walking memory on the host."""
    row, succ, pred = m.peek("row"), m.peek("succ"), m.peek("pred")
    out = []
    for v in m.in_array_ids():
        if row[v] != target_row or (pred[v] != NONE and row[pred[v]] == target_row):
            continue
        run, u = [], v
        while u != NONE and row[u] == target_row:
            run.append(int(u))
            u = succ[u]
        if (pred[v] != NONE or u != NONE) and len(run) < min_run:
            out += run
    return sorted(out)


def walk_steps(machine, phase):
    return sum(r.label.startswith(f"{phase}/walk") for r in machine.engine.trace)


def classify_both(m, state, target_row, min_run):
    """The walk on the target-row runs of state, compared with the
    host; the walk's classes and step count."""
    ends = localize_mod._run_ends(state, target_row)
    walk = localize_mod.classify_by_walk(m, state, target_row, ends, min_run, f"w{target_row}")
    assert_same_classes(walk, host_classes(state, target_row, min_run))
    return walk, walk_steps(m, f"w{target_row}")


@pytest.mark.parametrize("min_run", [3, 4, 5, 6, 7, 8, 9, 100])
@pytest.mark.parametrize("p", [1, 3, None])
def test_walk_agrees_with_doubling_around_min_run(min_run, p):
    # odd and even run lengths around min_run, each between flanks, at
    # a list head, at a list tail and as a whole list on one row (on
    # both rows); the short upper runs of 2 and 3 between them are
    # classified in the second phase
    lengths = sorted({1, 2, 3} | {L for L in range(min_run - 2, min_run + 2) if L > 0})
    lists = []
    for L in lengths:
        lists += [[(0, 3), (1, L), (0, 2)], [(1, L), (0, 3)], [(0, 2), (1, L)], [(1, L)], [(0, L)]]
    m = runs_machine(lists, p)
    state = read_state(m)
    walk, steps = classify_both(m, state, 1, min_run)
    # every flanked lower run shorter than min_run is short, between
    # flanks, at the head and at the tail; no whole list is
    nodes = localize_mod._run_ends(state, 1)[0]
    assert walk[4].sum() == 3 * sum(L for L in lengths if L < min_run)
    assert nodes[walk[4]].tolist() == short_run_nodes(m, 1, min_run)
    # one step per hop of the longest run, up to min_run - 2 steps
    assert steps == min(max(lengths) - 1, min_run - 2)
    walk, steps = classify_both(m, state, 0, min_run)
    assert steps == min(max(lengths) - 1, min_run - 2)
    assert localize_mod._run_ends(state, 0)[0][walk[4]].tolist() == short_run_nodes(m, 0, min_run)
    assert m.engine.metrics().erew_violations == 0


@pytest.mark.parametrize("min_run", [3, 4, 7, 8, 9, 100])
@pytest.mark.parametrize("L", [1, 2, 3, 6, 7, 8, 9, 98, 99, 100, 101])
def test_walk_takes_one_step_per_hop_up_to_min_run_minus_two(L, min_run):
    # a flanked lower run of L < min_run nodes takes L - 1 steps of two
    # walkers; a longer one stops after min_run - 2 steps, long
    m = runs_machine([[(0, 3), (1, L), (0, 3)]], p=4)
    state = read_state(m)
    walk, steps = classify_both(m, state, 1, min_run)
    assert steps == (L - 1 if L < min_run else min_run - 2)
    assert walk[4].all() == (L < min_run) and walk[4].size == L
    tasks = [r.tasks for r in m.engine.trace if r.label.startswith("w1/walk")]
    assert tasks == [2] * steps if L > 1 else tasks == []
    if L < min_run:
        assert walk[0].tolist() == list(range(L)) and walk[1].tolist() == list(range(L))[::-1]
        assert walk[2].all() and walk[3].all()
    assert m.engine.metrics().erew_violations == 0


def test_marks_of_an_earlier_walk_never_pass_for_fresh_ones():
    # one walk, then another of the same runs at a smaller min_run that
    # stops earlier: every mark carries its walk's first ledger index
    m = runs_machine([[(0, 3), (1, 12), (0, 3)], [(1, 5), (0, 2)]], p=2)
    state = read_state(m)
    ends = localize_mod._run_ends(state, 1)
    nodes = ends[0]
    stamps = []
    for min_run in (100, 5):
        stamps.append(len(m.engine.trace))
        localize_mod.classify_by_walk(m, state, 1, ends, min_run, f"w{min_run}")
    for store in ("walk_pos", "walk_rem"):
        mark = m.peek(store)[nodes] >> 1
        stamp, hop = np.divmod(mark, m.n)
        # the second walk reaches 3 hops from each end, the first all
        fresh = np.isin(stamp, stamps[1])
        assert (hop[fresh] <= 3).all() and (hop[~fresh & (mark >= 0)] > 3).all()
        assert set(stamp[mark > 0].tolist()) <= set(stamps)


def test_inbox_names_every_neighbor_after_the_pool_and_each_contract(monkeypatch):
    # the walk reads the neighbor messages: after pool/send and after
    # every contract step of localization, each live node's inbox_p and
    # inbox_s name its pv and sv and their rows, no neighbor at a list end
    checked = []
    localize_fn, batch = orientation.localize, localize_mod.contract_batch

    def check(machine, state):
        ids = state.live()
        for store, nbr, nbr_row in zip(INBOX, (state.pv, state.sv), (state.row_p, state.row_s)):
            # read_neighbor masks off a host message's weight bits
            got, got_row = read_neighbor(machine, machine.peek(store)[ids])
            assert np.array_equal(got, nbr[ids]) and np.array_equal(got_row, nbr_row[ids])
        checked.append(ids.size)

    def localize_checked(machine, state, **kwargs):
        check(machine, state)
        return localize_fn(machine, state, **kwargs)

    def batch_checked(machine, *args):
        batch(machine, *args)
        check(machine, args[4])

    monkeypatch.setattr(orientation, "localize", localize_checked)
    monkeypatch.setattr(localize_mod, "contract_batch", batch_checked)
    for seed in range(6):
        for mode in ("columns", "rows"):
            forest = generate(Workload(n=600 + 37 * seed, num_lists=3 + seed,
                                       length_distribution="GEOMETRIC", seed=seed,
                                       layout_shuffle=True))
            checked.clear()
            run = list_rank(forest, p=1 + 5 * seed, min_run=(2, 4, 8)[seed % 3],
                            layout_mode=mode)
            assert run.result.same_as(sequential_rank(forest))
            assert len(checked) > 1 and run.metrics.erew_violations == 0


def localize_labels(positions, n, p, min_run):
    m = Machine(path_forest(n), PramConfig(num_processors=p))
    place(m, positions)
    localize(m, read_state(m), min_run=min_run)
    assert int(m.peek("weight")[m.in_array_ids()].sum()) == n
    return m, list(m.engine.metrics().phase_breakdown)


def test_localize_walks_few_runs_and_many():
    # one 5-node lower run inside a 2000-node upper run: two walkers
    # of 4 steps at min_run 8
    pos = {v: (0, v) for v in range(1000)}
    pos.update({1000 + i: (1, i) for i in range(5)})
    pos.update({1005 + i: (0, 1000 + i) for i in range(995)})
    m, labels = localize_labels(pos, 2000, 1, 8)
    assert [k for k in labels if k.startswith("localize/a/walk")] == [
        f"localize/a/walk{k}" for k in range(4)]
    assert m.peek("weight")[999] == 1 + 3 and m.peek("weight")[1005] == 1 + 2
    # 300 two-node lower runs between two-node upper runs, min_run 100:
    # 600 walkers meet after one step, so localization is that step and
    # one wave, under half the 230 rounds that doubling run distances
    # over every lower node costs here
    pos = {v: ((v // 2) % 2, (v // 4) * 2 + v % 2) for v in range(1200)}
    m, labels = localize_labels(pos, 1200, 16, 100)
    assert [k for k in labels if "/walk" in k] == ["localize/a/walk0"]
    assert not [k for k in labels if "/dhead" in k or "/dtail" in k]
    rounds = m.engine.metrics().phase_breakdown
    assert sum(r for k, r in rounds.items() if k.startswith("localize/")) <= 116
    assert (m.peek("row")[m.in_array_ids()] == 0).all()


@pytest.mark.parametrize("fixed_length, doubling_rounds", [(4, 29), (64, 36), (0, 34)])
def test_list_rank_localizes_shuffled_columns_in_fewer_rounds(fixed_length, doubling_rounds):
    # shuffled FIXED 4, FIXED 64 and GEOMETRIC (fixed_length 0) at 2^12,
    # p = n/6: shuffled ids leave runs of a few nodes, which the walk
    # classifies in fewer rounds than doubling run distances over every
    # target-row node costs there (doubling_rounds of localization)
    n = 1 << 12
    forest = generate(Workload(n=n, num_lists=n // 256, seed=2, layout_shuffle=True,
                               length_distribution="FIXED" if fixed_length else "GEOMETRIC",
                               fixed_length=fixed_length))
    run = list_rank(forest, p=n // 6)
    assert run.result.same_as(sequential_rank(forest)) and run.metrics.erew_violations == 0
    trace = run.metrics.trace
    assert not [r for r in trace if "/dhead" in r.label or "/dtail" in r.label]
    assert sum(r.rounds for r in trace if "localize/" in r.label) < doubling_rounds


# -- log-depth absorption waves --------------------------------------------

def localize_runs(runs, p=16):
    """Localize one path laid out as consecutive single-row runs, runs
    a list of (row, length), at min_run 100; returns the machine, its
    pass state and its step labels in order."""
    n = sum(length for _, length in runs)
    m = Machine(path_forest(n), PramConfig(num_processors=p))
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
    # the contraction log replays to the path's ranks; the replay
    # returns weight to its ones, so the callers' checks read the
    # weights localization left, kept from before it
    weight = m.peek("weight").copy()
    stores, _ = pointer_jump(m)
    assert replay_ranks(m, stores).rank.tolist() == list(range(n))
    m.memory.poke("weight", slice(None), weight)
    cut_s, cut_p = cut_links(m, state)
    assert cut_s.size == 0 and cut_p.size == 0
    return m, state, [r.label for r in m.engine.trace]


def wave_labels(labels):
    """The labels of phase (a)'s absorption waves, without its walk."""
    return [k for k in labels
            if k.startswith("localize/a/w") and not k.startswith("localize/a/walk")]


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
