import numpy as np
import pytest

from listcontract import Machine, PramConfig
from listcontract.pram import NONE
from listcontract.steps import double, move_nodes
from conftest import check_inverse, path_forest, place

UFUNCS = (np.add, np.bitwise_xor, np.minimum, np.maximum)


def reference(ptr, seeds, ufuncs, ids, rounds):
    """Each id's pointer and folded values after 2**rounds hops."""
    j = np.empty(ids.size, dtype=np.int64)
    out = [np.empty(ids.size, dtype=np.int64) for _ in ufuncs]
    for t, v in enumerate(ids):
        acc = [s[v] for s in seeds]
        u = ptr[v]
        for _ in range(2 ** rounds - 1):
            if u == NONE:
                break
            acc = [f(a, s[u]) for f, a, s in zip(ufuncs, acc, seeds)]
            u = ptr[u]
        j[t] = u
        for o, a in zip(out, acc):
            o[t] = a
    return j, out


def random_seeds(rng, size, ptr):
    """One seed per ufunc; the maximum picks the root's value."""
    return [rng.integers(1, 9, size), rng.integers(0, 16, size), rng.integers(0, 100, size),
            np.where(ptr == NONE, rng.integers(0, 100, size), NONE)]


def recording_machine(n, p):
    m = Machine(path_forest(n), PramConfig(num_processors=p))
    calls = []
    step = m.engine.step
    m.engine.step = lambda label, n_tasks: calls.append((label, n_tasks)) or step(label, n_tasks)
    return m, calls


def run_case(ptr, ids, limit, seed, p=4):
    rng = np.random.default_rng(seed)
    n = ptr.size
    seeds = random_seeds(rng, n, ptr)
    m, calls = recording_machine(n, p)
    stores, rounds = double(m, "t", ids, (ptr[ids], [s[ids] for s in seeds]), UFUNCS, limit,
                            "dbl")
    assert m.engine.metrics().erew_violations == 0
    # the result stores hold every task's pointer and values at its id
    j, *values = (m.peek(st)[ids] for st in stores)
    want_j, want = reference(ptr, seeds, UFUNCS, ids, rounds)
    assert np.array_equal(j, want_j)
    for got, exp in zip(values, want):
        assert np.array_equal(got, exp)
    # one init step, then one step per round of the tasks task_counts gives
    assert calls == ([("dbl/init", ids.size)]
                     + [(f"dbl/r{r}", t) for r, t in enumerate(task_counts(ptr, ids, rounds))])
    return j, rounds


def task_counts(ptr, ids, rounds):
    """Tasks of each round's step: every task in round 0, then exactly
    those whose pointer was live at the start of the round before."""
    counts = [ids.size]
    for r in range(1, rounds):
        was_live, _ = reference(ptr, [], (), ids, r - 1)
        counts.append(int((was_live != NONE).sum()))
    return counts


def chains(rng, n, count):
    """Pointers of count open chains over a random permutation of n."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), count - 1, replace=False))
    ptr = np.full(n, NONE, dtype=np.int64)
    for part in np.split(order, cuts):
        ptr[part[1:]] = part[:-1]
    return ptr


@pytest.mark.parametrize("seed", range(4))
def test_open_chains_run_out_in_ceil_log2_rounds(seed):
    rng = np.random.default_rng(seed)
    n = 60
    ptr = chains(rng, n, 5)
    depth = np.zeros(n, dtype=np.int64)
    for v in range(n):
        u = ptr[v]
        while u != NONE:
            depth[v] += 1
            u = ptr[u]
    j, rounds = run_case(ptr, np.arange(n), None, seed)
    assert (j == NONE).all()
    assert rounds == int(np.ceil(np.log2(depth.max() + 1)))


@pytest.mark.parametrize("seed", range(4))
def test_subset_of_nodes_on_closed_cycles(seed):
    rng = np.random.default_rng(10 + seed)
    n = 40
    ptr = np.full(n, NONE, dtype=np.int64)
    # cycles of 3, 7 and 12 nodes; the rest takes no part
    nodes = rng.permutation(n)[:22]
    for cyc in np.split(nodes, [3, 10]):
        ptr[cyc] = np.roll(cyc, 1)
    j, rounds = run_case(ptr, np.sort(nodes), 3, seed)
    assert rounds == 3 and (j != NONE).all()


def test_limit_cuts_doubling_short():
    ptr = chains(np.random.default_rng(0), 20, 1)
    j, rounds = run_case(ptr, np.arange(20), 2, 0)
    assert rounds == 2
    assert (j != NONE).sum() == 20 - 4


@pytest.mark.parametrize("seed", range(3))
def test_task_finished_in_round_r_is_read_in_round_r_plus_2(seed):
    # chain 0 <- 1 <- ... <- 7: node 1's pointer runs out in round 0,
    # and node 5 reads node 1 in round 2, which reads the buffer round
    # 0 did not write, since node 1 runs only its copy-forward round 1
    # and then leaves the step. A stale read would
    # leave node 5 a live pointer that a fourth round could follow to
    # the right sums, so the limit stops at the chain's 3 rounds
    n = 8
    ptr = np.arange(-1, n - 1)
    j, rounds = run_case(ptr, np.arange(n), 3, seed, p=1)
    assert rounds == 3 and (j == NONE).all()
    assert task_counts(ptr, np.arange(n), rounds) == [8, 7, 6]


@pytest.mark.parametrize("p", [1, 3])
def test_limit_leaves_live_tasks_their_pointers(p):
    # chain of 20 over shuffled ids: after 2 rounds a node at depth d
    # points 4 hops back, NONE when d < 4
    rng = np.random.default_rng(p)
    n = 20
    order = rng.permutation(n)
    ptr = np.full(n, NONE, dtype=np.int64)
    ptr[order[1:]] = order[:-1]
    j, rounds = run_case(ptr, np.arange(n), 2, p, p=p)
    depth = np.argsort(order)
    live = depth >= 4
    assert rounds == 2
    assert np.array_equal(j[live], order[depth[live] - 4]) and (j[~live] == NONE).all()


def test_empty_ids():
    m, calls = recording_machine(4, 2)
    empty = np.empty(0, dtype=np.int64)
    stores, rounds = double(m, "t", empty, (empty, [empty, empty]), (np.add, np.maximum), None,
                            "dbl")
    assert rounds == 0 and len(stores) == 3
    assert m.engine.metrics().rounds == 0
    assert calls == [("dbl/init", 0)]


def test_seed_function_reads_inside_the_init_step():
    m, calls = recording_machine(8, 4)
    ids = np.arange(8)

    def seed(s):
        pv = s.read("pred", ids)
        return pv, [s.read("weight", ids)]

    stores, rounds = double(m, "t", ids, seed, (np.add,), None, "dbl")
    j, d = (m.peek(st)[ids] for st in stores)
    assert (j == NONE).all() and rounds == 3
    assert d.tolist() == list(range(1, 9))
    assert len(calls) == 1 + rounds


def test_move_nodes_writes_from_the_cells_it_is_given():
    # nodes 0 and 1 at (0, 2) and (0, 3) move to (1, 2) and (0, 1); the
    # caller holds the cells they leave, so the move is one write step,
    # which finds the target cells under the current steps, before a
    # fold and after two
    for folds in (0, 2):
        m, calls = recording_machine(32, 4)
        for _ in range(folds):
            m.fold()
        assert m.columns == 16 >> folds
        place(m, {0: (0, 2), 1: (0, 3)})
        move_nodes(m, np.array([0, 1]), m.cell(0, [2, 3]), [1, 0], [2, 1], "mv")
        assert calls == [("mv/move_wr", 2)]
        assert m.peek("row")[[0, 1]].tolist() == [1, 0]
        assert m.peek("col")[[0, 1]].tolist() == [2, 1]
        assert m.peek("slot")[m.cell([1, 0], [2, 1])].tolist() == [0, 1]
        check_inverse(m)
