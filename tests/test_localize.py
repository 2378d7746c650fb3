import numpy as np

from listcontract import Machine, PramConfig, Workload, generate, layout
from listcontract.localize import clear_cuts, localize
from listcontract.pram import NONE
from conftest import path_forest, place, read_state


def test_localize_alternating_absorbs_into_upper_row():
    # 200-node alternating list: every length-1 lower run is absorbed up
    m = Machine(path_forest(200), PramConfig(num_processors=16))
    layout(m)
    localize(m, read_state(m), min_run=100)
    ids = m.in_array_ids()
    rows = m.peek("row")[ids]
    assert (rows == 0).all()
    assert m.peek("cut").sum() == 0
    assert int(m.peek("weight")[ids].sum()) == 200
    # zero non-cut cross-row links
    succ, cut = m.peek("succ"), m.peek("cut")
    for v in ids:
        s = succ[v]
        if s != NONE and not cut[v]:
            assert m.peek("row")[s] == m.peek("row")[v]


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
    localize(m, read_state(m), min_run=100)
    # nothing absorbed: every run has >= 100 nodes
    assert m.in_array_ids().size == 600
    # the lower run 150..299 keeps its row; its two boundary links cut
    assert (m.peek("row")[np.arange(150, 300)] == 1).all()
    cut = m.peek("cut")
    assert cut[149] == 1 and cut[299] == 1
    assert cut.sum() == 3   # three row changes along the list


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
    localize(m, read_state(m), min_run=100)
    assert m.peek("cut").sum() == 0
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
    localize(m, read_state(m), min_run=20)
    ids = m.in_array_ids()
    succ, cut, row = m.peek("succ"), m.peek("cut"), m.peek("row")
    for v in ids:
        s = succ[v]
        if s != NONE and not cut[v]:
            assert row[s] == row[v]
    assert int(m.peek("weight")[ids].sum()) == n
    clear_cuts(m)
    assert (m.peek("cut") == 0).all()


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
    assert not [k for k in labels if k.startswith(("localize/b/dhead", "localize/b/dtail"))]
    assert not [k for k in labels if k.startswith(("localize/a/dhead", "localize/a/dtail"))]
    assert [k for k in labels if k.startswith("localize/a/")]
    assert (m.peek("row")[m.in_array_ids()] == 0).all()
    assert int(m.peek("weight")[m.in_array_ids()].sum()) == n
