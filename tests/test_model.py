import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import ForestFormatError, LinkedForest, Machine, PramConfig, layout
from listcontract.model import POOLED, PRED_SIDE, RETIRED, SUCC_SIDE, UNPLACED
from listcontract.pram import NONE
from listcontract.ranking import sequential_rank
from listcontract.steps import contract_batch
from listcontract.workloads import GEOMETRIC, Workload, generate
from conftest import check_consistency, check_inverse, forest_from_lists, path_forest


# -- forest text format -------------------------------------------------

def test_text_roundtrip():
    f = forest_from_lists([[0, 2, 1], [3, 4]])
    again = LinkedForest.from_text(f.to_text())
    assert np.array_equal(f.succ, again.succ)


def test_loader_rejects_cycles():
    # all cycle, and a valid list beside a separate cycle
    for text in ("0 1\n1 2\n2 0\n", "0 1\n1 -1\n2 3\n3 4\n4 2\n"):
        with pytest.raises(ForestFormatError, match="cycle"):
            LinkedForest.from_text(text)


def test_loader_rejects_successor_out_of_range():
    for text in ("0 5\n1 -1\n", "0 -3\n1 -1\n"):
        with pytest.raises(ForestFormatError, match="out of range"):
            LinkedForest.from_text(text)


def test_loader_rejects_shared_successor():
    with pytest.raises(ForestFormatError):
        LinkedForest.from_text("0 2\n1 2\n2 -1\n")


def test_loader_rejects_sparse_ids():
    with pytest.raises(ForestFormatError):
        LinkedForest.from_text("0 -1\n5 -1\n")


def test_loader_rejects_self_loop():
    with pytest.raises(ForestFormatError):
        LinkedForest.from_text("0 0\n")


def test_forest_stats():
    f = forest_from_lists([[0, 1, 2], [3, 4, 5, 6, 7]])
    assert f.list_count == 2
    assert f.longest() == 5
    assert f.lengths.tolist() == [3, 5]


def test_one_node_forest():
    f = LinkedForest.from_text("0 -1\n")
    assert f.lengths.tolist() == [1]
    assert f.longest() == 1


def test_lengths_and_longest_match_sequential_rank():
    f = generate(Workload(n=999, num_lists=13, length_distribution=GEOMETRIC,
                          seed=5, layout_shuffle=True))
    r = sequential_rank(f)
    assert f.lengths.tolist() == [int((r.list_id == h).sum()) for h in f.heads]
    assert f.longest() == int(r.rank.max()) + 1


# -- layout --------------------------------------------------------------

def test_layout_four_node_list():
    m = Machine(path_forest(4), PramConfig())
    layout(m)
    assert m.grid().tolist() == [[0, 2], [1, 3]]


def test_layout_two_nodes_one_column():
    m = Machine(path_forest(2), PramConfig())
    layout(m)
    assert m.columns == 1
    assert m.grid().tolist() == [[0], [1]]


def test_layout_two_lists_contiguous_four_columns():
    f = forest_from_lists([[0, 1, 2], [3, 4, 5, 6, 7]])
    m = Machine(f, PramConfig())
    layout(m)
    assert m.columns == 4
    check_inverse(m)
    # reading the grid in column order recovers succ order
    grid = m.grid()
    order = [int(grid[k % 2, k // 2]) for k in range(8)]
    assert order == [0, 1, 2, 3, 4, 5, 6, 7]


def test_layout_pads_odd_n_with_sentinel():
    m = Machine(path_forest(3), PramConfig())
    layout(m)
    assert m.sentinel == 3
    assert m.n == 4
    check_inverse(m)


def test_layout_rows_mode_splits_halves():
    m = Machine(path_forest(8), PramConfig())
    layout(m, mode="rows")
    assert m.grid().tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_cell_is_none_off_the_grid():
    m = Machine(path_forest(8), PramConfig())
    assert m.cell(0, 3) == 3 and m.cell(1, 0) == 4
    # unplaced, retired and pooled nodes carry their marker in row and
    # col; a missing partner has column NONE on a placed row
    rows = [UNPLACED, RETIRED, POOLED, RETIRED, 0, 1, 1]
    cols = [UNPLACED, RETIRED, POOLED, 2, NONE, NONE, 3]
    assert m.cell(rows, cols).tolist() == [NONE] * 6 + [7]
    # before any fold the index follows the current column count
    m.columns = 2
    assert m.cell([1, 1], [0, 1]).tolist() == [2, 3]


def test_fold_steps_the_cells_onto_the_old_top_cells():
    # each fold of two or more columns sets (row_step, col_step) to
    # (col_step, 2 * col_step), so folded cell (c % 2, c // 2) is
    # column c's old top cell; a fold of one column changes nothing
    m = Machine(path_forest(16), PramConfig())
    assert (m.row_step, m.col_step) == (8, 1)
    for steps in ((1, 2), (2, 4), (4, 8)):
        old_top = m.cell(0, np.arange(m.columns))
        m.fold()
        assert (m.row_step, m.col_step) == steps
        c = np.arange(old_top.size)
        assert np.array_equal(m.cell(c % 2, c // 2), old_top)
    assert m.columns == 1
    m.fold()
    assert m.columns == 1 and (m.row_step, m.col_step) == (4, 8)
    assert m.cell([0, 1, RETIRED], [0, 0, 0]).tolist() == [0, 4, NONE]


@pytest.mark.parametrize("mode", ["columns", "rows"])
def test_layout_shuffled_forest_odd_n(mode):
    # the placement reads ids alone: node v, the sentinel 301 among
    # them, sits at (v % 2, v // 2) or (v // C, v % C) whatever the links
    f = generate(Workload(n=301, num_lists=9, length_distribution=GEOMETRIC,
                          seed=4, layout_shuffle=True))
    m = Machine(f, PramConfig())
    layout(m, mode=mode)
    C = m.columns
    assert C == 151
    if mode == "columns":
        expect = [[2 * c + r for c in range(C)] for r in range(2)]
    else:
        expect = [list(range(C)), list(range(C, 2 * C))]
    assert m.grid().tolist() == expect
    check_inverse(m)


# -- metered contraction ---------------------------------------------------

def contract_one(m, absorbed, host):
    """contract_batch on one adjacent pair, side read from the links."""
    side = PRED_SIDE if m.peek("succ")[absorbed] == host else SUCC_SIDE
    contract_batch(m, [absorbed], [host], side, "test")
    check_consistency(m)


def test_contract_middle_into_predecessor():
    m = Machine(path_forest(3), PramConfig())
    layout(m)
    contract_one(m, 1, 0)   # a<-b,  a -> c remains
    assert m.peek("succ")[0] == 2
    assert m.peek("pred")[2] == 0
    assert m.peek("weight")[0] == 2
    assert m.peek("row")[1] == RETIRED
    assert (m.log[-1].absorbed.tolist(), m.log[-1].host.tolist()) == ([1], [0])


def test_contract_tail_into_predecessor_makes_new_tail():
    m = Machine(path_forest(3), PramConfig())
    layout(m)
    contract_one(m, 2, 1)
    assert m.peek("succ")[1] == NONE


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.randoms(use_true_random=False))
def test_weight_conservation_over_random_contractions(n, rnd):
    m = Machine(path_forest(n), PramConfig())
    layout(m)
    for _ in range(n - 1):
        active = m.active_ids()
        active = active[active < n]   # skip a possible sentinel
        if active.size < 2:
            break
        v = int(rnd.choice(list(active)))
        succ, pred = m.peek("succ"), m.peek("pred")
        nbrs = [x for x in (succ[v], pred[v]) if x != NONE]
        if not nbrs:
            continue
        contract_one(m, v, int(rnd.choice(nbrs)))   # checks weight conservation
