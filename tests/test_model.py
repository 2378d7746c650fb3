import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import ForestFormatError, LinkedForest, Machine, PramConfig, layout
from listcontract.model import PRED_SIDE, SUCC_SIDE
from listcontract.pram import NONE
from listcontract.steps import contract_batch
from conftest import check_inverse, forest_from_lists, path_forest


# -- forest text format -------------------------------------------------

def test_text_roundtrip():
    f = forest_from_lists([[0, 2, 1], [3, 4]])
    again = LinkedForest.from_text(f.to_text())
    assert np.array_equal(f.succ, again.succ)


def test_loader_rejects_cycles():
    with pytest.raises(ForestFormatError):
        LinkedForest.from_text("0 1\n1 2\n2 0\n")


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
    assert sorted(f.list_lengths().tolist()) == [3, 5]


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


# -- metered contraction ---------------------------------------------------

def contract_one(m, absorbed, host):
    """contract_batch on one adjacent pair, side read from the links."""
    side = PRED_SIDE if m.peek("succ")[absorbed] == host else SUCC_SIDE
    contract_batch(m, [absorbed], [host], side, "test")
    m.check_consistency()


def test_contract_middle_into_predecessor():
    m = Machine(path_forest(3), PramConfig())
    layout(m)
    contract_one(m, 1, 0)   # a<-b,  a -> c remains
    assert m.peek("succ")[0] == 2
    assert m.peek("pred")[2] == 0
    assert m.peek("weight")[0] == 2
    assert m.peek("status")[1] == 0


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
