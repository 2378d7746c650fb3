import numpy as np
import pytest

from listcontract import LinkedForest, Machine, PramConfig
from listcontract.pram import NONE
from listcontract.steps import PassState, restricted_neighbors


def path_forest(n):
    succ = np.arange(1, n + 1, dtype=np.int64)
    succ[-1] = NONE
    return LinkedForest(succ)


def forest_from_lists(lists):
    """lists: iterable of node-id sequences."""
    n = sum(len(l) for l in lists)
    succ = np.full(n, NONE, dtype=np.int64)
    for chain in lists:
        for a, b in zip(chain, chain[1:]):
            succ[a] = b
    return LinkedForest(succ)


def snapshot(machine):
    from listcontract.model import STORES
    return {s: machine.peek(s).copy() for s in STORES}


def states_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


def check_inverse(machine):
    """Every slot holds the node placed there, and every placed node's
    row and column name its slot."""
    grid = machine.grid()
    row, col = machine.peek("row"), machine.peek("col")
    r, c = np.nonzero(grid != NONE)
    v = grid[r, c]
    assert (row[v] == r).all() and (col[v] == c).all()
    placed = np.flatnonzero(row >= 0)
    assert (grid[row[placed], col[placed]] == placed).all()


def check_consistency(machine):
    """Bidirectional links among the active nodes, and their weights
    adding up to n."""
    status, succ, pred = machine.peek("status"), machine.peek("succ"), machine.peek("pred")
    ids = np.flatnonzero(status == NONE)
    s, p = succ[ids], pred[ids]
    assert (pred[s[s != NONE]] == ids[s != NONE]).all()
    assert (succ[p[p != NONE]] == ids[p != NONE]).all()
    assert int(machine.peek("weight")[ids].sum()) == machine.n


def validate_pairs(machine, assignment):
    """Pairs form an involution of adjacent nodes colored 0 and 1."""
    ids, pair = assignment.ids, assignment.pair_of
    paired = pair != NONE
    me, p = ids[paired], pair[paired]
    assert (machine.peek("pair")[p] == me).all()
    assert ((machine.peek("succ")[me] == p) | (machine.peek("pred")[me] == p)).all()
    col = machine.peek("color")
    assert (col[me] + col[p] == 1).all()


def read_state(machine, ids=None):
    """The PassState of tasks ids, every node in the array by default,
    as memory gives it: links by restricted_neighbors, rows by peek."""
    ids = machine.in_array_ids() if ids is None else ids
    sv, pv = restricted_neighbors(machine, ids, "state")
    row = machine.peek("row")
    regs = [np.full(machine.n, NONE, dtype=np.int64) for _ in range(5)]
    for reg, got in zip(regs, (sv, pv, row[ids], np.where(sv != NONE, row[sv], NONE),
                               np.where(pv != NONE, row[pv], NONE))):
        reg[ids] = got
    return PassState(ids, *regs)


def place(machine, positions):
    """positions: {node: (row, col)}; overwrites the whole placement."""
    need = max((c for _, c in positions.values()), default=0) + 1
    if machine.columns < need:
        machine.memory.free("slot")
        machine.memory.alloc("slot", 2 * need, fill=NONE)
        machine.columns = need
    C = machine.columns
    machine.peek("slot")[:] = NONE
    machine.peek("row")[:] = -1
    machine.peek("col")[:] = -1
    for node, (r, c) in positions.items():
        machine.memory.poke("row", node, r)
        machine.memory.poke("col", node, c)
        machine.memory.poke("slot", r * C + c, node)


def paired_state(bottom, top, columns, p=8):
    """Build a two-row state of independent 2-node pair lists.

    bottom/top: sequences of ((colA, colB), (colorA, colorB)). Every
    pair is one 2-node list, already 0-1 colored and paired, placed at
    the given columns of its row. Returns (machine, pairs) where pairs
    maps (row, index) -> (nodeA, nodeB).
    """
    entries = [(1, cols, colors) for cols, colors in bottom]
    entries += [(0, cols, colors) for cols, colors in top]
    n = 2 * len(entries)
    succ = np.full(max(n, 2 * columns), NONE, dtype=np.int64)
    nodes = []
    for i in range(len(entries)):
        a, b = 2 * i, 2 * i + 1
        succ[a] = b
        nodes.append((a, b))
    forest = LinkedForest(succ[: n] if n else succ[:2])
    machine = Machine(forest, PramConfig(num_processors=p))
    if machine.columns < columns:
        # widen the slot store so arbitrary column ids fit
        machine.memory.free("slot")
        machine.memory.alloc("slot", 2 * columns, fill=NONE)
        machine.columns = columns
    pairs = {}
    positions = {}
    counter = {0: 0, 1: 0}
    for i, (row, (ca, cb), (wa, wb)) in enumerate(entries):
        a, b = nodes[i]
        positions[a] = (row, ca)
        positions[b] = (row, cb)
        machine.memory.poke("color", [a, b], [wa, wb])
        machine.memory.poke("pair", [a, b], [b, a])
        pairs[(row, counter[row])] = (a, b)
        counter[row] += 1
    place(machine, positions)
    return machine, pairs


@pytest.fixture
def small_machine():
    m = Machine(path_forest(8), PramConfig(num_processors=4))
    return m
