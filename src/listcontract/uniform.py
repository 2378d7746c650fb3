"""The uniformity step: couple the two rows' pairings so the column
keys form the periodic orientation pattern.

The pairs of both rows link the columns into chains: column c is
joined to its top partner's column by its top pair and to its bottom
partner's column by its bottom pair. A pair is *marked* when the two
cells of the other row over its columns carry different colors; the
step is done when no pair of either row is marked.

Swapping the two members of a pair keeps every column of the chain and
toggles the marks of the two other-row pairs at its ends. So along a
chain, walked from one end, a pair is swapped exactly when the marks
of the other-row pairs before it have odd parity: one prefix XOR by
pointer doubling over the chain states. A swap changes no column and
no color of the other row, so the two rows' sweeps share the chains,
their roots and walk directions, and run as one: each state carries
its pair's mark in the bit of the row the mark is about.

A closed chain with k top pairs also has k bottom pairs, and going
once around it the colors of either row change an even number of
times. k of those changes are inside that row's own pairs and the
rest are the marks of the other row's pairs, so those marks number
k mod 2 whatever the colors, and no swap can clear an odd chain. Each
odd chain gets one structural move first: its root top pair merges
into one exempt node, and the top beyond the next bottom pair moves
into the vacated cell, which closes the chain with k - 1 pairs per
row and leaves that bottom pair outside it.

Everything runs as checked engine steps; all cross-pair information
flows through the slot array and two cell mailboxes beside it, the
color of each cell's node (mb_color) and its partner's column
(mb_pcol), so no cell is ever read twice in one step. The step
publishes the mailboxes once, when it starts, and again only after
shortening odd chains; each swap patches the colors of its own two
cells, so they stay current for the orientation keys, which are the
check that the step left no pair marked.
"""

from __future__ import annotations

import numpy as np

from .coloring import three_color
from .errors import UncoveredCaseError
from .model import Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
# restricted_neighbors stays importable here for bench/tracing.py
from .steps import (PassState, contract_batch, double, move_nodes, pair_leaders,  # noqa: F401
                    restricted_neighbors, scratch)
from . import pairing as _pairing

# -- cell mailboxes -----------------------------------------------------

def publish_mailboxes(machine: Machine, phase):
    """Write the color of each cell's node into mb_color and the column
    of its partner into mb_pcol, NONE at a vacant cell or a missing
    partner. Three steps of one task per column: read the column's two
    slot cells, then those nodes' color and pair, then the partners'
    col, and write both cells. Each task owns its column, so every
    access is exclusive, and every cell is written, so none is stale."""
    eng = machine.engine
    for st in ("mb_color", "mb_pcol"):
        scratch(machine, st, machine.peek("slot").size)
    cols = np.arange(machine.columns)
    cells = [machine.cell(r, cols) for r in (0, 1)]
    with eng.step(f"{phase}/mb_slot", cols.size) as s:
        node = [s.read("slot", c) for c in cells]
    with eng.step(f"{phase}/mb_self", cols.size) as s:
        color = [s.read("color", v) for v in node]
        partner = [s.read("pair", v) for v in node]
    with eng.step(f"{phase}/mb_pub", cols.size) as s:
        for c, w, v in zip(cells, color, partner):
            s.write("mb_color", c, w)
            s.write("mb_pcol", c, s.read("col", v))


def _read_columns(machine, phase):
    """Two column steps: each column's node, color and partner column
    on both rows, then, across each partner column, that column's node
    of the same row and color of the other row.

    Returns (node, pcol, pnode, mark), each indexed [row, column];
    mark[r, c] is set when the row-r pair at column c is marked.
    """
    eng = machine.engine
    cols = np.arange(machine.columns)
    cells = [machine.cell(r, cols) for r in (0, 1)]
    with eng.step(f"{phase}/col", cols.size) as s:
        node = np.array([s.read("slot", c) for c in cells])
        color = np.array([s.read("mb_color", c) for c in cells])
        pcol = np.array([s.read("mb_pcol", c) for c in cells])
    with eng.step(f"{phase}/far", cols.size) as s:
        pnode = np.array([s.read("slot", machine.cell(r, pcol[r])) for r in (0, 1)])
        far = np.array([s.read("mb_color", machine.cell(1 - r, pcol[r])) for r in (0, 1)])
    near = color[::-1]
    mark = np.isin(near, (0, 1)) & np.isin(far, (0, 1)) & (near != far)
    return node, pcol, pnode, mark


# -- the sweep ------------------------------------------------------------

def enforce_uniformity(machine: Machine, at_succ, phase="uniform"):
    """Make the two other-row cells over every pair of either row
    equal-colored.

    Shortens every closed chain with an odd number of top pairs by one
    top pair, then swaps the members of the pairs the prefix-parity
    sweep selects, on both rows at once. Column-aligned pair stacks
    must be gone (opposite_pair_shortcut). Publishes the cell
    mailboxes and leaves them current for the orientation keys. The
    pass calls it only when both rows hold a node: with one row empty
    no pair can be marked. at_succ is the pass's side register, True
    at a node whose partner is its successor. Returns the number of
    chains shortened.
    """
    publish_mailboxes(machine, phase)
    plan = _plan_swaps(machine, f"{phase}/plan")
    if plan is None:
        return 0
    odd = plan["odd_cols"].size
    if odd:
        _shorten_odd_chains(machine, plan, at_succ, f"{phase}/odd")
        publish_mailboxes(machine, f"{phase}/replan")
        plan = _plan_swaps(machine, f"{phase}/replan")
    if plan is not None:
        swap_positions(machine, plan["swap_a"], plan["swap_b"], f"{phase}/swap")
    return odd


def _plan_swaps(machine, phase):
    """Pick the pairs to swap and the odd chains to shorten.

    State 2c + r stands for column c leaving along its row-r pair; its
    predecessor is the state that arrives at c along c's other-row
    pair. Returns None when no pair is marked, else a dict with the
    member nodes to swap and, per odd chain, its root's column, the
    root pair's far column and both members.
    """
    eng = machine.engine
    node, pcol, pnode, mark = _read_columns(machine, phase)
    if not mark.any():
        return None
    # per-state registers, state ids 2c + r
    st_pcol, st_mark = pcol.T.ravel(), mark.T.ravel()
    em = np.flatnonzero(st_pcol != NONE)
    row = em & 1
    pc = st_pcol[em]
    other = st_pcol[em ^ 1]
    prv = np.where(other != NONE, 2 * other + 1 - row, NONE)
    # weights: a row-r state carries its pair's mark in bit 1 - r; the
    # predecessor's pair is the other-row pair at the same column
    x0 = np.where(prv != NONE, st_mark[em ^ 1].astype(np.int64) << row, 0)
    # closed chains are rooted at top-row states
    key = np.where(row == 0, em, 2 * machine.columns)
    # an open chain's root passes on its id as its rank
    rank = np.where(prv == NONE, em, NONE)
    limit = int(np.ceil(np.log2(max(2, em.size))))

    # prefix XOR, root and the smallest top-row state by doubling over
    # the predecessors; a pointer still live after limit rounds is on
    # a closed chain
    j, (x, rt, mn), stores, _ = double(
        machine, "cs", em, (prv, [x0, rank, key]),
        (np.bitwise_xor, np.maximum, np.minimum), limit, f"{phase}/d")
    cyc = j != NONE
    roots = cyc & (mn == em)
    c_stores = stores
    if cyc.any():
        # open every closed chain at its smallest top-row state and
        # redo the prefix on the closed chains alone; this writes only
        # closed-chain cells, so the open chains' results stay put
        c_ids = em[cyc]
        c_prv = np.where(roots, NONE, prv)[cyc]
        _, (x[cyc], rt[cyc]), c_stores, _ = double(
            machine, "cs", c_ids,
            (c_prv, [np.where(c_prv != NONE, x0[cyc], 0), np.where(c_prv == NONE, c_ids, NONE)]),
            (np.bitwise_xor, np.maximum), limit, f"{phase}/c")

    # each chain is walked from the end whose root has the smaller
    # rank. Either end of an open chain serves: its other-row cell is
    # vacant or holds an exempt node (unpaired colored nodes were
    # pooled), so neither end pair can be marked. A root learns its
    # closed chain's parity from the last state
    mirror = 2 * pc + row
    with eng.step(f"{phase}/ends", em.size) as s:
        their = np.where(cyc, s.read(c_stores[2], np.where(cyc, mirror, NONE)),
                         s.read(stores[2], np.where(cyc, NONE, mirror)))
        last_x = s.read(c_stores[1], np.where(roots, prv, NONE))
    chosen = rt < their
    odd = roots & chosen & (((last_x ^ x0) & 1) == 1)
    swap = chosen & (((x >> row) & 1) == 1)
    st_node, st_pnode = node.T.ravel()[em], pnode.T.ravel()[em]
    return {"swap_a": st_node[swap], "swap_b": st_pnode[swap],
            "odd_cols": em[odd] >> 1, "odd_far": pc[odd],
            "odd_a": st_node[odd], "odd_b": st_pnode[odd]}


def merge_pairs(machine: Machine, absorbed, host, at_succ, phase):
    """Contract each pair into its host member, with no read: the side
    register at_succ, indexed by node, tells whether each absorbed node
    precedes its host. It holds from pairing to the merge, since
    partners stay adjacent: swaps move cells, not links, and only whole
    pairs merge. The host keeps its pair and color; a caller whose
    later steps read them clears them with exempt."""
    a = np.asarray(absorbed, dtype=np.int64)
    h = np.asarray(host, dtype=np.int64)
    precedes = at_succ[a]
    # one side at a time: two merged members can be adjacent
    for side, on in ((PRED_SIDE, precedes), (SUCC_SIDE, ~precedes)):
        contract_batch(machine, a[on], h[on], side, phase)


def exempt(machine: Machine, hosts, phase):
    """Take merged hosts out of the pairing in one step: their pair and
    color are cleared, so the mailboxes and the orientation keys see
    uncolored, unpaired nodes."""
    with machine.engine.step(f"{phase}/exempt", np.size(hosts)) as s:
        s.write("pair", hosts, NONE)
        s.write("color", hosts, NONE)


def _shorten_odd_chains(machine, plan, at_succ, phase):
    """Take one top pair out of each odd closed chain.

    The root's top pair (ca, cb) merges at cb into an exempt node; the
    top at cc, the far end of the bottom pair at cb, moves into the
    top cell of ca. The bottom pair (cb, cc) leaves the chain, whose
    top pair at cc now starts at ca.
    """
    eng = machine.engine
    k = plan["odd_cols"].size
    with eng.step(f"{phase}/cc", k) as s:
        cc = s.read("mb_pcol", machine.cell(1, plan["odd_far"]))
    if (cc == plan["odd_cols"]).any():
        # a one-pair chain is an aligned stack: cc is ca itself
        raise UncoveredCaseError("column-aligned pair stack in the uniformity step; "
                                 "opposite_pair_shortcut consumes those first")
    cell_cc = machine.cell(0, cc)
    with eng.step(f"{phase}/top_cc", k) as s:
        top_cc = s.read("slot", cell_cc)
    merge_pairs(machine, plan["odd_a"], plan["odd_b"], at_succ, phase)
    exempt(machine, plan["odd_b"], phase)
    move_nodes(machine, top_cc, cell_cc, machine.cell(0, plan["odd_cols"]), phase)


def swap_positions(machine: Machine, nodes_a, nodes_b, phase):
    """Exchange the cells of the two members of each pair (a[i], b[i]),
    which share a row, and the mb_color entries of those two cells; the
    cells' mb_pcol entries stay, since each member's partner is the
    other one."""
    a = np.asarray(nodes_a, dtype=np.int64)
    b = np.asarray(nodes_b, dtype=np.int64)
    if a.size == 0:
        return
    eng = machine.engine
    with eng.step(f"{phase}/swap_rd", a.size) as s:
        row = s.read("row", a)
        ca, cb = s.read("col", a), s.read("col", b)
        wa, wb = s.read("color", a), s.read("color", b)
    cell_a, cell_b = machine.cell(row, ca), machine.cell(row, cb)
    with eng.step(f"{phase}/swap_wr", a.size) as s:
        s.write("slot", cell_a, b)
        s.write("slot", cell_b, a)
        s.write("col", a, cb)
        s.write("col", b, ca)
        s.write("mb_color", cell_a, wb)
        s.write("mb_color", cell_b, wa)


# -- coloring and pairing ----------------------------------------------

def color_and_pair(machine: Machine, state: PassState, phase="rows"):
    """Color the localized lists of both rows and pair them off.

    After localization every uncut link joins two nodes of one row, so
    each chain lies on one row and one call serves both. The chains
    come from the pass state.
    """
    ids = state.live()
    coloring = three_color(machine.engine, machine.memory, ids, state.sv[ids], state.pv[ids],
                           phase=f"{phase}/color")
    colors = np.full(state.row.size, NONE, dtype=np.int64)
    colors[ids] = coloring.final_color
    colors = _pairing.eliminate_twos(machine, state, colors, f"{phase}/elim2")
    pairs = _pairing.form_pairs(machine, state, colors, f"{phase}/pairs")
    return coloring, pairs


def opposite_pair_shortcut(machine: Machine, at_succ, phase="shortcut"):
    """Consume column-aligned pair stacks directly.

    When the tops over a bottom pair form a pair themselves, both pairs
    merge at once: the merged top pair lands in the bottom row slot of
    the 0-colored bottom member's column, the merged bottom pair in the
    other; both merged nodes leave the pairing in one exempt step.
    at_succ is the pass's side register. Returns the number of aligned
    stacks consumed.
    """
    eng = machine.engine
    leaders = pair_leaders(machine, 1)
    if leaders.size == 0:
        return 0
    col, pair, colr = machine.peek("col"), machine.peek("pair"), machine.peek("color")
    c_lo = col[leaders]
    partner = pair[leaders]
    c_hi = col[partner]
    k = leaders.size
    # the top cells of a bottom pair's columns, then the partner of the
    # c_lo top: the stack is aligned when that is the c_hi top
    with eng.step(f"{phase}/rd_tops", k) as s:
        tn_lo = s.read("slot", machine.cell(0, c_lo))
        tn_hi = s.read("slot", machine.cell(0, c_hi))
    with eng.step(f"{phase}/rd_pair", k) as s:
        tp_lo = s.read("pair", tn_lo)
    aligned = (tn_hi != NONE) & (tp_lo == tn_hi)
    if not aligned.any():
        return 0
    sel = np.flatnonzero(aligned)
    b_lead, b_part = leaders[sel], partner[sel]
    zero_first = colr[b_lead] == 0
    b_zero = np.where(zero_first, b_lead, b_part)
    b_one = np.where(zero_first, b_part, b_lead)
    ci = col[b_zero]
    top_i, top_j = np.empty(sel.size, np.int64), np.empty(sel.size, np.int64)
    lo_is_zero = c_lo[sel] == ci
    top_i[:] = np.where(lo_is_zero, tn_lo[sel], tn_hi[sel])
    top_j[:] = np.where(lo_is_zero, tn_hi[sel], tn_lo[sel])

    merge_pairs(machine, b_zero, b_one, at_succ, f"{phase}/bot")
    merge_pairs(machine, top_j, top_i, at_succ, f"{phase}/top")
    exempt(machine, np.concatenate([b_one, top_i]), phase)
    move_nodes(machine, top_i, machine.cell(0, ci), machine.cell(1, ci), f"{phase}/drop")
    return int(sel.size)
