import numpy as np
import pytest

from listcontract import LinkedForest, Machine, PramConfig, sequential_rank
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


def list_order(forest):
    """Every node in list order, the lists back to back in ascending
    head id, from the oracle's ranks."""
    r = sequential_rank(forest)
    return np.lexsort((r.rank, r.list_id))


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
    succ, pred = machine.peek("succ"), machine.peek("pred")
    ids = machine.active_ids()
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


def pair_sides(machine):
    """The side register a pass hands to its merges, from memory: True
    at a node whose partner is its successor."""
    pair = machine.peek("pair")
    return (pair != NONE) & (machine.peek("succ") == pair)


def read_state(machine, ids=None):
    """The PassState of tasks ids, every node in the array by default,
    as memory gives it: links by restricted_neighbors, rows and columns
    by peek."""
    ids = machine.in_array_ids() if ids is None else ids
    sv, pv = restricted_neighbors(machine, ids, "state")
    row = machine.peek("row")
    regs = [np.full(machine.n, NONE, dtype=np.int64) for _ in range(6)]
    for reg, got in zip(regs, (sv, pv, row[ids], np.where(sv != NONE, row[sv], NONE),
                               np.where(pv != NONE, row[pv], NONE), machine.peek("col")[ids])):
        reg[ids] = got
    return PassState(ids, *regs)


def place(machine, positions):
    """positions: {node: (row, col)}; overwrites the whole placement."""
    need = max((c for _, c in positions.values()), default=0) + 1
    if machine.columns < need:
        machine.memory.free("slot")
        machine.memory.alloc("slot", 2 * need, fill=NONE)
        machine.columns = need
    machine.peek("slot")[:] = NONE
    machine.peek("row")[:] = -1
    machine.peek("col")[:] = -1
    for node, (r, c) in positions.items():
        machine.memory.poke("row", node, r)
        machine.memory.poke("col", node, c)
        machine.memory.poke("slot", machine.cell(r, c), node)


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


def marked_pairs(machine):
    """Host-side mark check from the placement alone: (row, c_lo, c_hi)
    of every pair over whose columns the other row holds two 0/1-colored
    nodes of different colors."""
    grid = machine.grid()
    color, pair, col = (machine.peek(s) for s in ("color", "pair", "col"))
    out = []
    for row in (0, 1):
        nodes = grid[row][grid[row] != NONE]
        nodes = nodes[pair[nodes] != NONE]
        lead = nodes[col[nodes] < col[pair[nodes]]]
        c_lo, c_hi = col[lead], col[pair[lead]]
        far = grid[1 - row][[c_lo, c_hi]]
        far_color = np.where(far != NONE, color[far], NONE)
        binary = np.isin(far_color, (0, 1)).all(axis=0)
        marked = binary & (far_color[0] != far_color[1])
        out += [(row, int(lo), int(hi)) for lo, hi in zip(c_lo[marked], c_hi[marked])]
    return out


def enumerated_states():
    """All pair-color patterns over small two-row geometries.

    Geometries: straight alternating chains (the generic interleaving),
    aligned stacks, and closed chains of length 4, 6, 8 columns; 4 to
    16 nodes each. Colors enumerate every proper {0,1} assignment,
    i.e. each pair's orientation bit.
    """
    # straight chains: b bottom pairs, b-1 interleaved top pairs, two
    # boundary tops paired off to vacant-bottom columns
    for b in (2, 3, 4):
        cols = 2 * b
        bottom_cols = [(2 * i, 2 * i + 1) for i in range(b)]
        top_cols = [(2 * i + 1, 2 * i + 2) for i in range(b - 1)]
        top_cols = top_cols + [(0, cols), (cols - 1, cols + 1)]
        n_pairs = len(bottom_cols) + len(top_cols)
        for bits in range(1 << n_pairs):
            colors = [((0, 1) if bits >> i & 1 else (1, 0))
                      for i in range(n_pairs)]
            yield (f"chain{b}", list(zip(bottom_cols, colors[:b])),
                   list(zip(top_cols, colors[b:])), cols + 2)
    # aligned stacks
    for bits in range(4):
        yield ("stack",
               [((0, 1), (0, 1) if bits & 1 else (1, 0))],
               [((0, 1), (0, 1) if bits & 2 else (1, 0))], 2)
    # closed chains: wrap-around top pair; 6 columns has 3 top pairs,
    # an odd chain that no swap can clear, so it is shortened first
    for cols in (4, 6, 8):
        b = cols // 2
        bottom_cols = [(2 * i, 2 * i + 1) for i in range(b)]
        top_cols = [(2 * i + 1, (2 * i + 2) % cols) for i in range(b)]
        n_pairs = 2 * b
        for bits in range(1 << n_pairs):
            colors = [((0, 1) if bits >> i & 1 else (1, 0))
                      for i in range(n_pairs)]
            yield (f"cycle{cols}", list(zip(bottom_cols, colors[:b])),
                   list(zip(top_cols, colors[b:])), cols)


@pytest.fixture
def small_machine():
    m = Machine(path_forest(8), PramConfig(num_processors=4))
    return m
