import numpy as np

from listcontract import Machine, PramConfig, layout
from listcontract.model import INBOX, RETIRED
from listcontract.pairing import eliminate_twos, form_pairs
from listcontract.pram import NONE
from listcontract.steps import scratch
from conftest import forest_from_lists, read_state, validate_pairs


def machine_with_colors(lists, colors, p=8):
    """A laid-out machine with the given colors, each also in its
    neighbors' inboxes, as three_color leaves them."""
    f = forest_from_lists(lists)
    m = Machine(f, PramConfig(num_processors=p))
    layout(m)
    for node, c in colors.items():
        m.memory.poke("color", node, c)
    ids = m.active_ids()
    ids = ids[ids < f.n]
    state = read_state(m, ids)
    color = m.peek("color").copy()
    for inbox, nbr in zip(INBOX, (state.sv, state.pv)):
        # a node's color reaches its successor's inbox_p and its
        # predecessor's inbox_s
        has = ids[nbr[ids] != NONE]
        m.memory.poke(scratch(m, inbox), nbr[has], color[has])
    return m, state, color


# -- eliminate_twos --------------------------------------------------------

def test_color2_between_zero_and_one_contracts_into_successor():
    m, state, col = machine_with_colors([[0, 1, 2]], {0: 0, 1: 2, 2: 1})
    eliminate_twos(m, state, col)
    assert m.peek("row")[1] == RETIRED       # absorbed into its successor
    assert m.log[-1].host.tolist() == [2]
    assert m.peek("weight")[2] == 2
    live = m.active_ids()
    live = live[live < 3]
    assert sorted(m.peek("color")[live].tolist()) == [0, 1]


def test_color2_between_zeros_recolors_to_one():
    m, state, col = machine_with_colors([[0, 1, 2]], {0: 0, 1: 2, 2: 0})
    eliminate_twos(m, state, col)
    assert m.peek("row")[1] != RETIRED
    assert m.peek("color")[1] == 1


def test_color2_between_ones_recolors_to_zero():
    m, state, col = machine_with_colors([[0, 1, 2]], {0: 1, 1: 2, 2: 1})
    eliminate_twos(m, state, col)
    assert m.peek("color")[1] == 0


def test_isolated_color2_recolors_to_zero():
    m, state, col = machine_with_colors([[0]], {0: 2})
    eliminate_twos(m, state, col)
    assert m.peek("color")[0] == 0


def test_endpoint_color2_takes_color_unused_by_neighbor():
    m, state, col = machine_with_colors([[0, 1]], {0: 2, 1: 0})
    eliminate_twos(m, state, col)
    assert m.peek("color")[0] == 1


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
    eliminate_twos(m, state, col)
    live = m.active_ids()
    live = live[live < n]
    assert (m.peek("color")[live] != 2).all()
    # properness over surviving links
    succ = m.peek("succ")
    cc = m.peek("color")
    s = succ[live]
    mask = s != NONE
    assert (cc[live[mask]] != cc[s[mask]]).all()


# -- form_pairs -------------------------------------------------------------

def test_two_node_path_forms_one_pair():
    m, state, col = machine_with_colors([[0, 1]], {0: 1, 1: 0})
    pa = form_pairs(m, state, col)
    assert m.peek("pair")[0] == 1 and m.peek("pair")[1] == 0
    validate_pairs(m, pa)


def test_larger_address_wins_contested_zero():
    # path 10 -> 11 -> 12 colored (1, 0, 1): both ones want node 11
    lists = [[10, 11, 12]]
    filler = [[i] for i in range(10)]
    m, state, col = machine_with_colors(filler + lists,
                                              {i: 0 for i in range(10)}
                                              | {10: 1, 11: 0, 12: 1})
    sel = np.isin(state.ids, (10, 11, 12))
    pa = form_pairs(m, read_state(m, state.ids[sel]), col)
    assert m.peek("pair")[11] == 12          # larger address won
    assert m.peek("pair")[12] == 11
    assert m.peek("row")[10] == RETIRED      # loser absorbed into the pair
    assert m.log[-1].absorbed.tolist() == [10]
    assert m.log[-1].host.tolist() == [11]
    validate_pairs(m, pa)


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
    pa = form_pairs(m, state, col)
    validate_pairs(m, pa)
    live = m.active_ids()
    live = live[live < n]
    pair = m.peek("pair")[live]
    assert (pair != NONE).all()              # every active node paired
    assert live.size % 2 == 0
    assert live.size // 2 >= -(-live.size // 4)


def test_singleton_list_stays_unpaired_without_error():
    m, state, col = machine_with_colors([[0]], {0: 0})
    pa = form_pairs(m, state, col)
    assert m.peek("pair")[0] == NONE
    assert m.peek("row")[0] != RETIRED
