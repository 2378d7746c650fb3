import copy
from contextlib import contextmanager

import numpy as np
import pytest

from listcontract import (LinkedForest, Machine, PramConfig, contract_to_threshold, layout,
                          pointer_jump, pram, ranking, sequential_rank)
from listcontract.localize import MIN_RUN, settle
from listcontract.model import INBOX
from listcontract.pram import NONE
from listcontract.steps import (UNREAD, PassState, neighbor_message, read_neighbor,
                                restricted_neighbors, scratch)
from listcontract.uniform import both_columns, partner_columns


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


def odd_chain_forest():
    """Two lists of 7, the even ids on row 0 of the columns layout and
    the odd ids on row 1, whose pass 0 closes one column chain with an
    odd number of top pairs, which the uniformity step must shorten
    before it can swap."""
    return forest_from_lists([[4, 8, 12, 2, 6, 10, 0], [9, 5, 1, 7, 13, 11, 3]])


def contract_fully(f, p, min_run=MIN_RUN, layout_mode="columns", max_passes=64):
    """list_rank with every pass contraction can make, up to
    max_passes: contract with threshold 0, then jump and replay.
    Returns the machine, the pass reports and the ranks."""
    m = Machine(f, PramConfig(num_processors=p))
    layout(m, mode=layout_mode)
    reports, _ = contract_to_threshold(m, threshold=0, max_passes=max_passes, min_run=min_run)
    stores, _ = pointer_jump(m)
    return m, reports, ranking.replay_ranks(m, stores)


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
    """Every slot holds the node placed there, every placed node's row
    and column name its slot, and no cell off the grid holds a node."""
    grid = machine.grid()
    row, col = machine.peek("row"), machine.peek("col")
    r, c = np.nonzero(grid != NONE)
    v = grid[r, c]
    assert (row[v] == r).all() and (col[v] == c).all()
    placed = np.flatnonzero(row >= 0)
    assert (grid[row[placed], col[placed]] == placed).all()
    assert np.count_nonzero(machine.peek("slot") != NONE) == placed.size


def check_packed(machine, plan, weight):
    """What the fold needs of the pack: the nodes in the array are the
    plan's survivors, each in the column the plan gives it, on either
    row, and alone there; the active weights still add up to weight."""
    ids = machine.in_array_ids()
    assert np.array_equal(np.sort(plan.survivors), ids)
    assert np.array_equal(machine.peek("col")[plan.survivors], plan.columns)
    assert np.unique(plan.columns).size == ids.size
    assert int(machine.peek("weight")[machine.active_ids()].sum()) == weight


def check_consistency(machine):
    """Bidirectional links among the active nodes, and their weights
    adding up to n."""
    succ, pred = machine.peek("succ"), machine.peek("pred")
    ids = machine.active_ids()
    s, p = succ[ids], pred[ids]
    assert (pred[s[s != NONE]] == ids[s != NONE]).all()
    assert (succ[p[p != NONE]] == ids[p != NONE]).all()
    assert int(machine.peek("weight")[ids].sum()) == machine.n


def read_pairs(machine, state):
    """The pair registers of state, each UNREAD one replaced by the
    partner the message waiting in its node's inbox on the at_succ side
    names, which must be there."""
    pair = state.pair.copy()
    v = np.flatnonzero(pair == UNREAD)
    if v.size == 0:
        return pair
    side = state.at_succ[v].astype(np.int64)   # SUCC_SIDE where True
    assert ((state.pending[v] >> side) & 1 == 1).all()
    msg = np.where(side == 1, machine.peek(INBOX[1])[v], machine.peek(INBOX[0])[v])
    pair[v] = read_neighbor(machine, msg)[0]
    return pair


def validate_pairs(machine, state, ids=None):
    """The pair registers of tasks ids, the live tasks of state by
    default, form an involution of adjacent nodes colored 0 and 1, and
    at_succ is True exactly where the partner is the successor in
    memory; an UNREAD partner counts as the one its node's inbox names
    (read_pairs)."""
    ids = state.live() if ids is None else ids
    full = read_pairs(machine, state)
    pair = full[ids]
    paired = pair != NONE
    me, p = ids[paired], pair[paired]
    assert (full[p] == me).all()
    succ = machine.peek("succ")[me]
    assert ((succ == p) | (machine.peek("pred")[me] == p)).all()
    assert np.array_equal(state.at_succ[me], succ == p)
    assert (state.color[me] + state.color[p] == 1).all()


def pair_state(machine, pair, color):
    """The PassState a pass holds once pairing ends, for the nodes in
    the array: their rows and columns from memory, their partners and
    colors from pair and color (indexed by node), and the side
    register, True at a node whose partner is its successor. pcol is
    NONE until partner_columns fills it (read_both), and there is no
    link register."""
    ids = machine.in_array_ids()
    regs = {name: np.full(machine.n, NONE, dtype=np.int64)
            for name in ("row", "col", "pair", "pcol", "color")}
    for name, got in (("row", machine.peek("row")[ids]), ("col", machine.peek("col")[ids]),
                      ("pair", pair[ids]), ("color", color[ids])):
        regs[name][ids] = got
    at_succ = (regs["pair"] != NONE) & (machine.peek("succ") == regs["pair"])
    return PassState(ids, None, None, regs["row"], None, None, regs["col"], pair=regs["pair"],
                     pcol=regs["pcol"], color=regs["color"], at_succ=at_succ)


def assert_pair_registers(machine, state):
    """The live tasks are exactly the nodes in the array, and their
    row and col registers equal memory. Among the partners still in
    the array (a merged pair's absorbed node is retired, and nothing
    reads the host's pair) the pair registers join adjacent nodes of
    opposite colors on the sides at_succ gives, and pcol, wherever a
    step has filled it, is the partner's column."""
    ids = state.live()
    assert np.array_equal(np.sort(ids), machine.in_array_ids())
    for name in ("row", "col"):
        assert np.array_equal(getattr(state, name)[ids], machine.peek(name)[ids]), name
    partner = read_pairs(machine, state)[ids]
    placed = np.flatnonzero(partner != NONE)
    placed = placed[machine.peek("row")[partner[placed]] >= 0]
    me, mate = ids[placed], partner[placed]
    validate_pairs(machine, state, me)
    known = state.pcol[me] != NONE
    assert np.array_equal(state.pcol[me[known]], machine.peek("col")[mate[known]])


def memory_state(machine, ids):
    """The PassState of tasks ids as memory gives it: links by
    restricted_neighbors, rows and columns by peek."""
    sv, pv = restricted_neighbors(machine, ids, "state")
    row = machine.peek("row")
    regs = [np.full(machine.n, NONE, dtype=np.int64) for _ in range(6)]
    for reg, got in zip(regs, (sv, pv, row[ids], np.where(sv != NONE, row[sv], NONE),
                               np.where(pv != NONE, row[pv], NONE), machine.peek("col")[ids])):
        reg[ids] = got
    return PassState(ids, *regs)


def read_state(machine, ids=None):
    """The PassState of tasks ids, every node in the array by default,
    as memory gives it (memory_state). Each task's inbox_p and inbox_s
    cells name its neighbors and their rows, as the pool leaves them
    for localization."""
    ids = machine.in_array_ids() if ids is None else ids
    state = memory_state(machine, ids)
    for store, nbr, nbr_row in zip(INBOX, (state.pv, state.sv), (state.row_p, state.row_s)):
        machine.memory.poke(scratch(machine, store), ids,
                            neighbor_message(nbr[ids], nbr_row[ids]))
    return state


def read_waiting(machine, state):
    """A copy of state whose link registers hold what the messages
    waiting in the inboxes name, as drain would leave them, with no
    message waiting."""
    out = copy.deepcopy(state)
    for d, store in enumerate(INBOX):
        v = np.flatnonzero((state.pending >> d) & 1 == 1)
        nbr, row = out.side(d)
        nbr[v], row[v] = read_neighbor(machine, machine.peek(store)[v])
    out.pending[:] = 0
    return out


def settle_localization(machine, state):
    """What the first coloring step of a pass does once localization
    ends, in a step of its own: every live task reads the messages
    still waiting in its inbox, the lists left as one node leave the
    array, and the links that cross rows are cut (localize.settle)."""
    with machine.engine.step("settle", state.live().size) as s:
        settle(s, machine, state)


def read_both(machine, state=None):
    """The both columns of the nodes in the array, read by the step a
    pass runs on its registers; no step runs with a row empty. With a
    pass state, partner_columns then runs over them, as in a pass: it
    fills their pcol registers and writes both mailboxes there."""
    ids = machine.in_array_ids()
    both = both_columns(machine, ids, machine.peek("row")[ids], machine.peek("col"), "both")
    if state is not None and both.cols.size:
        partner_columns(machine, state, both, "both")
    return both


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
    the given columns of its row. Returns (machine, pairs, state): pairs
    maps (row, index) -> (nodeA, nodeB), and state is the pair_state of
    the pairs and colors, nodeA's partner its successor.
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
    pair, color = (np.full(machine.n, NONE, dtype=np.int64) for _ in range(2))
    for i, (row, (ca, cb), (wa, wb)) in enumerate(entries):
        a, b = nodes[i]
        positions[a] = (row, ca)
        positions[b] = (row, cb)
        color[[a, b]] = wa, wb
        pair[[a, b]] = b, a
        pairs[(row, counter[row])] = (a, b)
        counter[row] += 1
    place(machine, positions)
    return machine, pairs, pair_state(machine, pair, color)


def marked_pairs(machine, state):
    """Host-side mark check from the placement and the pass registers
    state: (row, c_lo, c_hi) of every pair over whose columns the other
    row holds two 0/1-colored nodes of different colors."""
    grid = machine.grid()
    color, pair, col = state.color, state.pair, machine.peek("col")
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


MAILBOXES = ("mb_color", "mb_pcol")


def fresh(memory, state, store, cells):
    """What the registers of state give mailbox store at cells now:
    the color of each cell's node in mb_color and its partner column
    in mb_pcol, NONE at a vacant cell."""
    node = memory.peek("slot")[cells]
    reg = state.color if store == "mb_color" else state.pcol
    return np.where(node != NONE, reg[np.maximum(node, 0)], NONE)


class MailboxAudit:
    """The mailbox cells written since the pass state in use took over
    (use), and the label of every step that read a mailbox."""

    def __init__(self):
        self.state, self.written, self.reads = None, set(), []

    def use(self, state):
        self.state, self.written = state, set()


@contextmanager
def checked_mailbox_reads():
    """Yield a MailboxAudit, and check every mailbox cell any step reads
    meanwhile: a step wrote it since the audit's state took over, and
    it holds fresh() of that state at the start of the reading step."""
    audit = MailboxAudit()
    read, write = pram._StepContext.read, pram._StepContext.write

    def checked_read(ctx, store, idx):
        out = read(ctx, store, idx)
        if store in MAILBOXES:
            idx = np.asarray(idx)
            kept = idx >= 0
            assert {(store, c) for c in idx[kept].tolist()} <= audit.written, (ctx.label, store)
            want = fresh(ctx.engine.memory, audit.state, store, idx[kept])
            assert np.array_equal(out[kept], want), (ctx.label, store)
            audit.reads.append(ctx.label)
        return out

    def recorded_write(ctx, store, idx, values):
        if store in MAILBOXES:
            idx = np.asarray(idx)
            audit.written |= {(store, c) for c in idx[idx >= 0].tolist()}
        return write(ctx, store, idx, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pram._StepContext, "read", checked_read)
        mp.setattr(pram._StepContext, "write", recorded_write)
        yield audit


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
