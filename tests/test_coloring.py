import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import (ImproperColoringError, Machine, PramConfig, Workload, generate,
                          list_rank, sequential_rank)
from listcontract import coloring
from listcontract.coloring import dct_new_colors, three_color
from listcontract.pram import NONE
from listcontract.steps import restricted_neighbors
from conftest import forest_from_lists, list_order, path_forest


def color_forest(n, shuffle_seed=None):
    m = Machine(path_forest(n), PramConfig(num_processors=max(1, n // 2)))
    ids = m.active_ids()
    sv, pv = restricted_neighbors(m, ids, "nbr")
    return m, ids, sv, pv


def proper(colors, ids, sv):
    pos = {int(v): i for i, v in enumerate(ids)}
    for i, s in enumerate(sv):
        if s != NONE and colors[i] == colors[pos[int(s)]]:
            return False
    return True


# -- one coin-tossing transition -----------------------------------------

def test_dct_rule_bit_one():
    # colors 0b0110 vs 0b0100 differ at bit 1; bit 1 of the node is 1
    new = dct_new_colors(np.array([0b0110]), np.array([0b0100]), np.array([True]))
    assert new[0] == 2 * 1 + 1 == 3


def test_dct_rule_bit_zero():
    new = dct_new_colors(np.array([5]), np.array([4]), np.array([True]))
    assert new[0] == 1


def test_dct_tail_takes_bit_zero():
    new = dct_new_colors(np.array([6, 7]), np.array([0, 0]),
                         np.array([False, False]))
    assert new.tolist() == [0, 1]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_dct_preserves_properness(seed):
    rng = np.random.default_rng(seed)
    n = 512
    colors = rng.integers(0, 2**20, size=n)
    for i in range(n - 1):           # force properness along the path
        if colors[i + 1] == colors[i]:
            colors[i + 1] += 1
    has_succ = np.ones(n, dtype=bool)
    has_succ[-1] = False
    succ_colors = np.roll(colors, -1)
    new = dct_new_colors(colors, succ_colors, has_succ)
    assert (new[:-1] != new[1:]).all()


def test_dct_properness_large_random_instance():
    rng = np.random.default_rng(0)
    colors = rng.permutation(10_000)
    has_succ = np.ones(colors.size, dtype=bool)
    has_succ[-1] = False
    new = dct_new_colors(colors, np.roll(colors, -1), has_succ)
    assert (new[:-1] != new[1:]).all()


# -- full 3-coloring -------------------------------------------------------

def test_single_node_gets_color_zero():
    m, ids, sv, pv = color_forest(1)
    ca = three_color(m.engine, m.memory, ids[:1], np.array([NONE]),
                     np.array([NONE]), phase="tc")
    assert ca.final_color.tolist() == [0]


def test_two_node_list_proper():
    m, ids, sv, pv = color_forest(2)
    ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
    assert set(ca.final_color.tolist()) <= {0, 1, 2}
    assert ca.final_color[0] != ca.final_color[1]


def coloring_rounds(m, phase="tc"):
    return {label[len(phase) + 1:]: r for label, r in m.engine.metrics().phase_breakdown.items()
            if label.startswith(phase + "/")}


def test_one_step_per_iteration_on_2_16_path():
    m, ids, sv, pv = color_forest(2**16)
    ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
    rounds = coloring_rounds(m)
    # the first iteration runs on registers and the last one publishes
    # the colors, so each iteration costs one full-width step
    per_step = -(-ids.size // m.engine.config.num_processors)
    assert ca.dct_iterations <= 5
    assert rounds.pop("dct") == max(1, ca.dct_iterations) * per_step
    # recolored nodes forward their colors: no write-back or broadcast
    assert not {"init", "dct_write", "bcast"} & set(rounds)
    assert set(rounds) <= {"drop5", "drop4", "drop3"}
    assert proper(ca.final_color, ids, sv)


def test_priced_stop_publishes_above_five_on_shuffled_2_16_chain(monkeypatch):
    # at p = k/8 a coin-tossing step costs 8 rounds, while after the
    # second iteration every color above 2 drops in one round: seven
    # one-round drops replace two more full-width steps
    def run():
        fo = generate(Workload(n=2**16, length_distribution="SINGLE", seed=0,
                               layout_shuffle=True))
        m = Machine(fo, PramConfig(num_processors=2**13))
        ids = m.active_ids()
        sv, pv = restricted_neighbors(m, ids, "nbr")
        ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
        assert proper(ca.final_color, ids, sv) and ca.final_color.max() <= 2
        return ca, coloring_rounds(m)

    ca, rounds = run()
    assert ca.dct_iterations == 2
    assert rounds == {"dct": 16, **{f"drop{c}": 1 for c in range(9, 2, -1)}}
    # the six-color schedule tosses on until no color is above 5
    monkeypatch.setattr(coloring, "drops_are_cheaper", lambda color, p: color.max() <= 5)
    six, six_rounds = run()
    assert six.dct_iterations == 4
    assert six_rounds == {"dct": 32, "drop5": 1, "drop4": 1, "drop3": 1}
    assert sum(rounds.values()) == 23 < sum(six_rounds.values()) == 35


def test_iterated_log_recurrence():
    # doubling the bit length of initial colors adds at most one
    # coin-tossing iteration once below 64 bits
    iters = {}
    n = 4096
    for bits in (16, 32, 62):
        rng = np.random.default_rng(bits)
        c = rng.integers(0, 1 << bits, size=n, dtype=np.int64)
        for i in range(n - 1):
            if c[i + 1] == c[i]:
                c[i + 1] ^= 1
        has_succ = np.ones(n, dtype=bool)
        has_succ[-1] = False
        count = 0
        while int(c.max()) > 5:
            c = dct_new_colors(c, np.roll(c, -1), has_succ)
            count += 1
        iters[bits] = count
    assert iters[32] <= iters[16] + 1
    assert iters[62] <= iters[32] + 1


def test_determinism_identical_forests_identical_colorings():
    outs = []
    for _ in range(2):
        m, ids, sv, pv = color_forest(257)
        ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
        outs.append(ca.final_color)
    assert np.array_equal(outs[0], outs[1])


def test_colors_final_range_and_properness_random_chains():
    rng = np.random.default_rng(3)
    # a forest of several lists via a shuffled machine
    fo = generate(Workload(n=777, num_lists=13, seed=9, layout_shuffle=True))
    m = Machine(fo, PramConfig(num_processors=64))
    ids = m.active_ids()
    sv, pv = restricted_neighbors(m, ids, "nbr")
    ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
    assert set(np.unique(ca.final_color).tolist()) <= {0, 1, 2}
    assert proper(ca.final_color, ids, sv)


def reference_colors(ids, sv, pv, p):
    """Host model of three_color: one coin-tossing iteration from the
    ids when one is above 5, then more while dropping the published
    colors above 2 would cost more than ceil(k/p) + 3 rounds at p
    processors. The published colors rank the classes by size, ties by
    color, with the one of the two largest that holds more heads taking
    1. Then each color above 2, highest first, drops to the least color
    neither neighbor has, one node at a time."""
    pos = np.full(int(ids.max()) + 1, NONE, dtype=np.int64)
    pos[ids] = np.arange(ids.size)
    has_s, head = sv != NONE, pv == NONE
    c = ids.copy()

    def toss(c):
        return dct_new_colors(c, c[pos[np.where(has_s, sv, ids)]], has_s)

    def published(c):
        size = {x: int((c == x).sum()) for x in set(c.tolist())}
        order = sorted(size, key=lambda x: (-size[x], x))
        if len(order) > 1 and (head & (c == order[0])).sum() > (head & (c == order[1])).sum():
            order[:2] = order[1::-1]
        return np.array([order.index(x) for x in c.tolist()], dtype=np.int64)

    def drop_rounds(c):
        return sum(-(-int((c == x).sum()) // p) for x in set(c.tolist()) if x > 2)

    if int(c.max()) > 5:
        c = toss(c)
    while drop_rounds(published(c)) > -(-c.size // p) + 3:
        c = toss(c)
    c = published(c)
    for drop in sorted({x for x in c.tolist() if x > 2}, reverse=True):
        for i in np.flatnonzero(c == drop):
            taken = {int(c[pos[v]]) for v in (sv[i], pv[i]) if v != NONE}
            c[i] = min({0, 1, 2} - taken)
    return c


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), lists=st.integers(1, 40), seed=st.integers(0, 2**16),
       p=st.integers(1, 64), keep=st.floats(0.3, 1.0),
       dist=st.sampled_from(["UNIFORM", "GEOMETRIC"]))
def test_colors_and_inboxes_match_host_reference(n, lists, seed, p, keep, dist):
    fo = generate(Workload(n=n, num_lists=min(n, lists), length_distribution=dist,
                           seed=seed, layout_shuffle=True))
    m = Machine(fo, PramConfig(num_processors=p))
    # color a random subset of the lists, so the ids are sparse
    chosen = np.random.default_rng(seed).random(fo.list_count) < keep
    chosen[0] = True
    ids = np.sort(list_order(fo)[np.repeat(chosen, fo.lengths)])
    sv, pv = restricted_neighbors(m, ids, "nbr")
    ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
    ref = reference_colors(ids, sv, pv, p)
    assert np.array_equal(ca.final_color, ref)
    # memory keeps the colors in the neighbors' inbox cells alone
    assert not m.memory.has("color")
    color = np.full(m.n, NONE, dtype=np.int64)
    color[ids] = ref
    for inbox, nbr in (("inbox_p", pv), ("inbox_s", sv)):
        has = nbr != NONE
        assert np.array_equal(m.peek(inbox)[ids[has]], color[nbr[has]])


# -- the class table ---------------------------------------------------------

def test_class_table_ranks_classes_by_size_and_gives_heads_1():
    # classes 7 (4 nodes), 2 (3 nodes, one head), 4 and 5 (2 nodes
    # each) and 0 (1): by size, ties by color, but of the two largest
    # the one with more heads takes 1
    color = np.array([7, 7, 7, 7, 2, 2, 2, 5, 5, 4, 4, 0])
    heads = np.zeros(color.size, dtype=bool)
    heads[4] = True
    assert coloring.class_table(color, heads)[[7, 2, 4, 5, 0]].tolist() == [0, 1, 2, 3, 4]
    heads[:2] = True
    assert coloring.class_table(color, heads)[[7, 2]].tolist() == [1, 0]
    # a tie in heads leaves the larger class on 0
    heads[5] = True
    assert coloring.class_table(color, heads)[[7, 2]].tolist() == [0, 1]
    # a lone class keeps 0, whatever it holds
    assert coloring.class_table(np.array([3]), np.array([True]))[3] == 0


def test_largest_classes_publish_as_0_and_1_with_the_heads_on_1():
    # two chains of ids in steps of 2: coin tossing alternates colors 2
    # and 3 along both (the ids differ first at bit 1), with both heads
    # on 2 and the tails on 0 and 1. Kept as 1 and 0, the two large
    # classes need no drop: the tails take 2 and 3, and only the one
    # on 3 drops
    chains = [list(range(0, 512, 2)), list(range(1, 512, 2))]
    m = Machine(forest_from_lists(chains), PramConfig(num_processors=64))
    ids = m.active_ids()
    sv, pv = restricted_neighbors(m, ids, "nbr")
    ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
    assert ca.dct_iterations == 1
    assert set(coloring_rounds(m)) == {"dct", "drop3"}
    assert ca.final_color[chains[0]].tolist() == [1, 0] * 127 + [1, 2]
    assert ca.final_color[chains[1]].tolist() == [1, 0] * 128


@pytest.mark.parametrize("mode", ["columns", "rows"])
@pytest.mark.parametrize("l", [4, 16, 64])
def test_ordered_fixed_lists_color_with_no_drop(l, mode):
    # ids in list order give every row chain two alternating classes;
    # kept as 0 and 1, they leave no class above 2 to drop, and only
    # the chain tails can hold color 2, one per list at most
    n = 2**12
    f = generate(Workload(n=n, length_distribution="FIXED", fixed_length=l, seed=0))
    run = list_rank(f, p=n // 6, layout_mode=mode)
    assert run.result.same_as(sequential_rank(f)) and run.metrics.erew_violations == 0
    labels = [r.label for r in run.trace]
    assert [x for x in labels if x.endswith("/rows/color/dct")]
    assert not [x for x in labels if "/rows/color/drop" in x]
    assert sum(r.tasks for r in run.trace if "/rows/elim2/" in r.label) <= n // l


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 600), chains=st.integers(1, 30), seed=st.integers(0, 2**16),
       p=st.integers(1, 700))
def test_sparse_shuffled_chains_color_properly_within_five_iterations(k, chains, seed, p):
    # k ids drawn from 2^14 nodes, shuffled into chains; the nodes'
    # memory links play no part, only the arrays handed in
    rng = np.random.default_rng(seed)
    m = Machine(path_forest(2**14), PramConfig(num_processors=p))
    ids = np.sort(rng.choice(2**14, size=k, replace=False))
    order = rng.permutation(ids)
    sv, pv = np.full(2**14, NONE), np.full(2**14, NONE)
    for chain in np.array_split(order, min(chains, k)):
        sv[chain[:-1]], pv[chain[1:]] = chain[1:], chain[:-1]
    sv, pv = sv[ids], pv[ids]
    ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
    assert ca.dct_iterations <= 5
    assert set(ca.final_color.tolist()) <= {0, 1, 2}
    assert proper(ca.final_color, ids, sv)
    assert m.engine.metrics().erew_violations == 0


def test_at_most_five_iterations_on_a_shuffled_2_16_chain():
    # with p = k every class above 2 drops in one round, so coin
    # tossing runs longest
    fo = generate(Workload(n=2**16, length_distribution="SINGLE", seed=1, layout_shuffle=True))
    m = Machine(fo, PramConfig(num_processors=2**16))
    ids = m.active_ids()
    sv, pv = restricted_neighbors(m, ids, "nbr")
    ca = three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
    assert 1 <= ca.dct_iterations <= 5
    assert proper(ca.final_color, ids, sv) and ca.final_color.max() <= 2


def test_improper_final_coloring_raises(monkeypatch):
    # a coin-tossing step that collapses every color to 0 leaves
    # neighbors equal, and nothing after it is above 2 to drop
    monkeypatch.setattr(coloring, "dct_new_colors", lambda color, *_: np.zeros_like(color))
    m, ids, sv, pv = color_forest(64)
    with pytest.raises(ImproperColoringError):
        three_color(m.engine, m.memory, ids, sv, pv, phase="tc")
