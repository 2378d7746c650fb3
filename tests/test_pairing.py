import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import Machine, PramConfig, layout
from listcontract.model import INBOX, PRED_SIDE, RETIRED, SUCC_SIDE
from listcontract.pairing import eliminate_twos, form_pairs
from listcontract.pram import NONE
from listcontract.steps import drain, scratch
from conftest import forest_from_lists, read_state, validate_pairs


def machine_with_colors(lists, colors, p=8, mode="columns"):
    """A machine laid out in mode, its PassState, and the color
    registers (indexed by node, NONE where colors gives none) with each
    color also in its neighbors' inboxes, as three_color leaves them."""
    f = forest_from_lists(lists)
    m = Machine(f, PramConfig(num_processors=p))
    layout(m, mode=mode)
    color = np.full(m.n, NONE, dtype=np.int64)
    color[list(colors)] = list(colors.values())
    ids = m.active_ids()
    ids = ids[ids < f.n]
    state = read_state(m, ids)
    for inbox, nbr in zip(INBOX, (state.sv, state.pv)):
        # a node's color reaches its successor's inbox_p and its
        # predecessor's inbox_s
        has = ids[nbr[ids] != NONE]
        m.memory.poke(scratch(m, inbox), nbr[has], color[has])
    return m, state, color


def drained(m, state, ids):
    """Let tasks ids read the messages waiting in their inboxes, in a
    step of their own."""
    with m.engine.step("drain", len(ids)) as s:
        drain(s, m, state, np.asarray(ids))


# -- eliminate_twos --------------------------------------------------------

def test_color2_between_zero_and_one_contracts_into_successor():
    m, state, col = machine_with_colors([[0, 1, 2]], {0: 0, 1: 2, 2: 1})
    col = eliminate_twos(m, state, col, INBOX)
    assert m.peek("row")[1] == RETIRED       # absorbed into its successor
    assert m.log[-1].host.tolist() == [2]
    assert sorted(col[state.live()].tolist()) == [0, 1]
    # the host's new neighbor and weight wait in its inbox_p cell, and
    # node 0's in its inbox_s cell, until each drains them
    assert state.pending[[0, 2]].tolist() == [1 << SUCC_SIDE, 1 << PRED_SIDE]
    assert m.peek("weight")[2] == 1 and state.pv[2] == 1
    drained(m, state, [0, 2])
    assert m.peek("weight")[2] == 2 and state.pv[2] == 0 and state.sv[0] == 2
    assert not state.pending.any()


def test_color2_between_zeros_recolors_to_one():
    m, state, col = machine_with_colors([[0, 1, 2]], {0: 0, 1: 2, 2: 0})
    col = eliminate_twos(m, state, col, INBOX)
    assert m.peek("row")[1] != RETIRED
    assert col[1] == 1


def test_color2_between_ones_recolors_to_zero():
    m, state, col = machine_with_colors([[0, 1, 2]], {0: 1, 1: 2, 2: 1})
    assert eliminate_twos(m, state, col, INBOX)[1] == 0


def test_isolated_color2_recolors_to_zero():
    m, state, col = machine_with_colors([[0]], {0: 2})
    assert eliminate_twos(m, state, col, INBOX)[0] == 0


def test_endpoint_color2_takes_color_unused_by_neighbor():
    m, state, col = machine_with_colors([[0, 1]], {0: 2, 1: 0})
    assert eliminate_twos(m, state, col, INBOX)[0] == 1


def test_no_active_color2_after_pass():
    rng = np.random.default_rng(12)
    n = 101
    colors = {}
    prev = -1
    for v in range(n):
        choices = [c for c in (0, 1, 2) if c != prev]
        prev = int(rng.choice(choices))
        colors[v] = prev
    m, state, col = machine_with_colors([list(range(n))], colors)
    cc = eliminate_twos(m, state, col, INBOX)
    live = state.live()
    assert (cc[live] != 2).all()
    # properness over surviving links
    s = m.peek("succ")[live]
    mask = s != NONE
    assert (cc[live[mask]] != cc[s[mask]]).all()


# -- form_pairs -------------------------------------------------------------

def test_two_node_path_forms_one_pair():
    m, state, col = machine_with_colors([[0, 1]], {0: 1, 1: 0})
    form_pairs(m, state, col)
    assert state.pair[[0, 1]].tolist() == [1, 0]
    validate_pairs(m, state)
    # each member knows on which side its partner sits; only a both
    # column needs the partner's column, which pairing does not read
    assert state.at_succ[[0, 1]].tolist() == [True, False]
    assert (state.pcol[[0, 1]] == NONE).all()
    assert not [r for r in m.engine.trace if r.label.startswith("pairs/")]


def test_two_node_path_with_its_zero_first_pairs_by_marks():
    # 0 then 1 leaves a loose head facing a loose end, which find each
    # other in two steps and pair up instead of being absorbed
    m, state, col = machine_with_colors([[0, 1]], {0: 0, 1: 1})
    form_pairs(m, state, col)
    assert state.pair[[0, 1]].tolist() == [1, 0]
    assert state.at_succ[[0, 1]].tolist() == [True, False]
    validate_pairs(m, state)
    labels = [r.label for r in m.engine.trace if r.label.startswith("pairs/")]
    assert labels == ["pairs/mark", "pairs/facing"]
    assert not m.log


def test_loose_head_and_end_go_into_their_neighbors_pairs():
    # 0 1 0 1: the 0-colored head and the 1-colored end are loose, and
    # each goes into the pair beside it, one side per contract call
    m, state, col = machine_with_colors([[0, 1, 2, 3]], {0: 0, 1: 1, 2: 0, 3: 1})
    form_pairs(m, state, col)
    assert m.peek("row")[[0, 3]].tolist() == [RETIRED, RETIRED]
    assert state.live().tolist() == [1, 2]
    assert state.pair[[1, 2]].tolist() == [2, 1]
    assert [(b.absorbed.tolist(), b.host.tolist()) for b in m.log] == [([0], [1]), ([3], [2])]
    # the hosts take the weights when they drain their inboxes
    assert m.peek("weight")[[1, 2]].tolist() == [1, 1]
    drained(m, state, [1, 2])
    assert m.peek("weight")[[1, 2]].tolist() == [2, 2]
    validate_pairs(m, state)


def test_hundred_node_random_coloring_full_cover():
    rng = np.random.default_rng(7)
    n = 100
    colors = {}
    prev = -1
    for v in range(n):
        c = int(rng.integers(0, 2))
        if c == prev:
            c = 1 - c
        colors[v] = c
        prev = c
    m, state, col = machine_with_colors([list(range(n))], colors)
    form_pairs(m, state, col)
    validate_pairs(m, state)
    live = state.live()
    assert (state.pair[live] != NONE).all()   # every active node paired
    assert live.size % 2 == 0
    assert live.size // 2 >= -(-live.size // 4)


def test_singleton_list_stays_unpaired_without_error():
    m, state, col = machine_with_colors([[0]], {0: 0})
    form_pairs(m, state, col)
    assert state.pair[0] == NONE
    assert m.peek("row")[0] != RETIRED


def pair_chains(lengths, firsts, order, mode, p, stale_seed=None):
    """form_pairs over chains of the given lengths, node ids in the
    given order, each chain's proper {0, 1} coloring starting at its
    first color, in layout mode with p processors; stale_seed fills the
    inbox stores and dct, where the marks go, with garbage first. Returns the machine and the
    state."""
    lists = np.split(order, np.cumsum(lengths)[:-1])
    colors = {int(v): (int(first) + i) % 2
              for chain, first in zip(lists, firsts) for i, v in enumerate(chain)}
    m, state, col = machine_with_colors(lists, colors, p=p, mode=mode)
    if stale_seed is not None:
        rng = np.random.default_rng(stale_seed)
        for st in (*INBOX, scratch(m, "dct")):
            m.memory.poke(st, slice(None), rng.integers(0, 4 * m.n, size=m.peek(st).size))
    form_pairs(m, state, col)
    return m, state


@pytest.mark.parametrize("seed", range(6))
def test_pairing_ignores_stale_scratch(seed):
    # a loose node reads only a mark stamped by its step, so garbage
    # left in the inboxes and in dct changes nothing
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 10, size=12)
    firsts = rng.integers(0, 2, size=lengths.size)
    order = rng.permutation(int(lengths.sum()))
    (m, clean), (dirty_m, dirty) = (pair_chains(lengths, firsts, order, "columns", 8, stale)
                                    for stale in (None, seed))
    ids = clean.live()
    assert np.array_equal(ids, dirty.live())
    for name in ("pair", "pcol", "color", "at_succ"):
        assert np.array_equal(getattr(clean, name)[ids], getattr(dirty, name)[ids]), name
    assert np.array_equal(m.peek("weight"), dirty_m.peek("weight"))
    # the side bits name each partner's side in memory, and no partner
    # column is filled
    validate_pairs(m, clean)
    assert (clean.pcol[ids] == NONE).all()


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=10), data=st.data(),
       mode=st.sampled_from(["columns", "rows"]), p=st.integers(1, 8))
def test_alternation_rule_pairs_every_colored_node(lengths, data, mode, p):
    # random short chains, two-node ones with either color first among
    # them: every pair joins adjacent nodes of opposite colors, every
    # live node of a chain of two or more is paired, and garbage left
    # in the inboxes and in dct changes no register
    n = sum(lengths)
    firsts = data.draw(st.lists(st.integers(0, 1), min_size=len(lengths),
                                max_size=len(lengths)))
    order = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    runs = [pair_chains(lengths, firsts, order, mode, p, stale)
            for stale in (None, data.draw(st.integers(0, 2**31)))]
    (m, clean), (dirty_m, dirty) = runs
    validate_pairs(m, clean)
    ids = clean.live()
    alone = (clean.sv[ids] == NONE) & (clean.pv[ids] == NONE)
    assert np.array_equal(clean.pair[ids] == NONE, alone)
    assert np.array_equal(ids, dirty.live())
    for name in ("pair", "pcol", "color", "at_succ", "sv", "pv", "row_s", "row_p"):
        assert np.array_equal(getattr(clean, name)[ids], getattr(dirty, name)[ids]), name
    for store in ("succ", "pred", "weight", "row"):
        assert np.array_equal(m.peek(store), dirty_m.peek(store)), store
    assert m.engine.metrics().erew_violations == 0
