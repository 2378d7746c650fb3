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

Only the columns where both rows hold a node, the *both* columns, have
work: a pair can be marked only when the other row is occupied over
both of its columns, and a key is defined only at such a column. The
pass finds them in one step from the row with fewer nodes
(both_columns), and every later step of the shortcut, the sweep and
the keys runs over them and over the pairs and chain states that touch
them. A chain passes through a column only where both rows hold a
paired node, so every chain of two or more pairs, read in either
direction, lies in those states whole; a lone pair outside them can be
neither marked nor swapped.

Everything runs as checked engine steps; all cross-pair information
flows through the slot array and two cell mailboxes beside it, the
color of each cell's node (mb_color) and its partner's column
(mb_pcol), so no cell is ever read twice in one step. The pass
registers are the only record of colors and partners, and the
mailboxes the only memory copy of them: partner_columns writes both at
every both-column cell, and from then on the step that changes a
mailbox cell writes it: each swap, and the exempt, move and
partner-column steps of an odd-chain shortening. So the mailboxes stay
current for the orientation keys, which are the check that the step
left no pair marked, and the planning takes colors, partners and
partner columns from the registers. A mailbox cell outside the both
columns may still hold what an earlier pass wrote there, so no step
reads one: such a cell is known to be vacant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import three_color
from .errors import UncoveredCaseError
from .model import Machine, PRED_SIDE, RETIRED, SUCC_SIDE
from .pram import NONE
# restricted_neighbors stays importable here for bench/tracing.py
from .steps import (PassState, contract_batch, double, move_nodes,  # noqa: F401
                    restricted_neighbors, scratch)
from . import pairing as _pairing

# -- the both columns ---------------------------------------------------

@dataclass
class BothColumns:
    """The columns where both rows hold a node, ascending, and the node
    of each row there (node[r]), as both_columns read them. The steps
    that empty a cell of them or move a node into one update them. A
    swap changes which node holds a cell, not whether one does, so
    node is not read after the swaps."""

    cols: np.ndarray
    node: np.ndarray   # 2 x cols.size

    def at(self, cols):
        """Each column's position in cols, NONE where it is not one of
        them (NONE columns included)."""
        cols = np.asarray(cols, dtype=np.int64)
        if self.cols.size == 0:
            return np.full(cols.shape, NONE, dtype=np.int64)
        i = np.minimum(np.searchsorted(self.cols, cols), self.cols.size - 1)
        return np.where(self.cols[i] == cols, i, NONE)

    def drop(self, cols):
        keep = ~np.isin(self.cols, cols)
        self.cols, self.node = self.cols[keep], self.node[:, keep]


def both_columns(machine: Machine, ids, rows, col, phase):
    """The both columns of the nodes ids in the array, from their rows
    and the column register col, indexed by node: the nodes of the row
    with fewer of them read the other row's cell at their own column,
    in one step. With a row empty there are none, and no step runs."""
    n1 = int(np.count_nonzero(rows == 1))
    if n1 in (0, ids.size):
        return BothColumns(np.empty(0, dtype=np.int64), np.empty((2, 0), dtype=np.int64))
    small = int(2 * n1 <= ids.size)
    v = ids[rows == small]
    c = col[v]
    with machine.engine.step(f"{phase}/opp", v.size) as s:
        opp = s.read("slot", machine.cell(1 - small, c))
    has = np.flatnonzero(opp != NONE)
    has = has[np.argsort(c[has])]
    node = np.empty((2, has.size), dtype=np.int64)
    node[small], node[1 - small] = v[has], opp[has]
    return BothColumns(c[has], node)


def partner_columns(machine: Machine, state: PassState, both: BothColumns, phase):
    """Give each both-column node its partner's column, in one step of
    one task per such node: a paired one reads its partner's col into
    its pcol register, and every one writes its color and that column,
    NONE where it has no partner, into the mb_color and mb_pcol cells
    of its own cell. The cells of the other columns keep whatever they
    held. Pairing leaves pcol NONE, and no node outside the both
    columns needs it (derive_orientation)."""
    for st in ("mb_color", "mb_pcol"):
        scratch(machine, st, machine.memory.size("slot"))
    nodes = both.node.ravel()
    cells = machine.cell(state.row[nodes], state.col[nodes])
    with machine.engine.step(f"{phase}/pcol", nodes.size) as s:
        state.pcol[nodes] = s.read("col", state.pair[nodes])
        s.write("mb_color", cells, state.color[nodes])
        s.write("mb_pcol", cells, state.pcol[nodes])


# -- the sweep ------------------------------------------------------------

def enforce_uniformity(machine: Machine, state: PassState, both: BothColumns,
                       phase="uniform"):
    """Make the two other-row cells over every pair of either row
    equal-colored.

    Shortens every closed chain with an odd number of top pairs by one
    top pair, then swaps the members of the pairs the prefix-parity
    sweep selects, on both rows at once. Column-aligned pair stacks
    must be gone (opposite_pair_shortcut). Reads the mailboxes of the
    both columns, which partner_columns wrote, and leaves them current
    for the orientation keys; without a both column no pair can be
    marked, and no step runs. state holds the pass registers from
    pairing on, which the merges, moves and swaps patch. Returns the
    number of chains shortened.
    """
    if both.cols.size == 0:
        return 0
    plan = _plan_swaps(machine, state, both, f"{phase}/plan")
    if plan is None:
        return 0
    odd = plan["odd_cols"].size
    if odd:
        _shorten_odd_chains(machine, plan, state, both, f"{phase}/odd")
        plan = _plan_swaps(machine, state, both, f"{phase}/replan")
    if plan is not None:
        swap_positions(machine, plan["swap_a"], plan["swap_b"], state, f"{phase}/swap")
    return odd


def _plan_swaps(machine, state, both, phase):
    """Pick the pairs to swap and the odd chains to shorten, from the
    colors, partners and partner columns of the both-column nodes in
    the pass registers state and the other row's colors in mb_color.

    State 2c + r stands for both column c leaving along its row-r pair;
    its predecessor is the state that arrives at c along c's other-row
    pair. Where that pair leaves the both columns, its far end would
    arrive with no predecessor and no mark, so the state is a root
    instead and passes on that far end's state id as its rank.
    Returns None when no pair is marked, else a dict with the member
    nodes to swap and, per odd chain, its root's column, the root
    pair's far column and both members.
    """
    eng = machine.engine
    color, partner, pcol = (reg[both.node] for reg in (state.color, state.pair, state.pcol))
    # one step reads, across each partner column that is a both column
    # too, the color of the other row; elsewhere that cell is vacant.
    # mark[r, i] is set when the row-r pair at both.cols[i] is marked
    inside = np.where(both.at(pcol) != NONE, pcol, NONE)
    with eng.step(f"{phase}/far", both.cols.size) as s:
        far = np.array([s.read("mb_color", machine.cell(1 - r, inside[r])) for r in (0, 1)])
    near = color[::-1]
    mark = np.isin(near, (0, 1)) & np.isin(far, (0, 1)) & (near != far)
    if not mark.any():
        return None
    # per-state registers at the both columns, at 2i + r for position i;
    # both.cols ascends, so the state ids em do too
    b_pcol, b_mark = pcol.T.ravel(), mark.T.ravel()
    on = np.flatnonzero(b_pcol != NONE)
    row = on & 1
    em = 2 * both.cols[on >> 1] + row
    pc = b_pcol[on]
    st_node, st_pnode = both.node.T.ravel()[on], partner.T.ravel()[on]
    other = b_pcol[on ^ 1]
    far_end = np.where(other != NONE, 2 * other + 1 - row, NONE)
    prv = np.where(both.at(other) != NONE, far_end, NONE)
    # weights: a row-r state carries its pair's mark in bit 1 - r; the
    # predecessor's pair is the other-row pair at the same column, which
    # is unmarked where it is missing or leaves the both columns
    x0 = b_mark[on ^ 1].astype(np.int64) << row
    # closed chains are rooted at top-row states
    key = np.where(row == 0, em, 2 * machine.columns)
    # an open chain's root passes on its id, or its far end's, as its rank
    rank = np.where(prv != NONE, NONE, np.where(far_end != NONE, far_end, em))
    limit = int(np.ceil(np.log2(max(2, em.size))))

    # prefix XOR, root and the smallest top-row state by doubling over
    # the predecessors; a pointer still live after limit rounds is on
    # a closed chain
    stores, _ = double(machine, "cs", em, (prv, [x0, rank, key]),
                       (np.bitwise_xor, np.maximum, np.minimum), limit, f"{phase}/d")
    j, x, rt, mn = (machine.peek(st)[em] for st in stores)
    cyc = j != NONE
    roots = cyc & (mn == em)
    c_stores = stores
    if cyc.any():
        # open every closed chain at its smallest top-row state and
        # redo the prefix on the closed chains alone; this writes only
        # closed-chain cells, so the open chains' results stay put
        c_ids = em[cyc]
        c_prv = np.where(roots, NONE, prv)[cyc]
        c_stores, _ = double(
            machine, "cs", c_ids,
            (c_prv, [np.where(c_prv != NONE, x0[cyc], 0), np.where(c_prv == NONE, c_ids, NONE)]),
            (np.bitwise_xor, np.maximum), limit, f"{phase}/c")
        x[cyc], rt[cyc] = (machine.peek(st)[c_ids] for st in c_stores[1:])

    # each chain is walked from the end whose root has the smaller
    # rank. Either end of an open chain serves: its other-row cell is
    # vacant or holds an exempt node (unpaired colored nodes were
    # pooled), so neither end pair can be marked. A root learns its
    # closed chain's parity from the last state. A mirror outside the
    # both columns is a far end, whose rank is its own id
    mirror = 2 * pc + row
    out = both.at(pc) == NONE
    with eng.step(f"{phase}/ends", em.size) as s:
        their = np.where(cyc, s.read(c_stores[2], np.where(cyc, mirror, NONE)),
                         s.read(stores[2], np.where(cyc | out, NONE, mirror)))
        last_x = s.read(c_stores[1], np.where(roots, prv, NONE))
    their[out] = mirror[out]
    chosen = rt < their
    odd = roots & chosen & (((last_x ^ x0) & 1) == 1)
    swap = chosen & (((x >> row) & 1) == 1)
    return {"swap_a": st_node[swap], "swap_b": st_pnode[swap],
            "odd_cols": em[odd] >> 1, "odd_far": pc[odd],
            "odd_a": st_node[odd], "odd_b": st_pnode[odd]}


def merge_pairs(machine: Machine, absorbed, host, state: PassState, phase):
    """Contract each pair into its host member, with no read: the side
    register state.at_succ tells whether each absorbed node precedes
    its host. It holds from pairing to the merge, since partners stay
    adjacent: swaps move cells, not links, and only whole pairs merge.
    The absorbed nodes leave the live tasks. The host keeps its pair
    and color; a caller whose later steps read them clears them with
    exempt."""
    a = np.asarray(absorbed, dtype=np.int64)
    h = np.asarray(host, dtype=np.int64)
    precedes = state.at_succ[a]
    # one side at a time: two merged members can be adjacent
    for side, on in ((PRED_SIDE, precedes), (SUCC_SIDE, ~precedes)):
        contract_batch(machine, a[on], h[on], side, phase)
    state.drop(a, RETIRED)


def exempt(machine: Machine, hosts, state: PassState, phase=None):
    """Take merged hosts out of the pairing: their pair, pcol and color
    registers are cleared, so the orientation keys see uncolored,
    unpaired nodes. With a phase, hosts that stay in the both columns
    also clear both mailboxes at their cells, in one step; without one
    no step runs, for hosts whose columns leave both, where no step
    reads a mailbox."""
    if phase is not None:
        cells = machine.cell(state.row[hosts], state.col[hosts])
        with machine.engine.step(f"{phase}/exempt", np.size(hosts)) as s:
            s.write("mb_color", cells, NONE)
            s.write("mb_pcol", cells, NONE)
    state.pair[hosts] = state.pcol[hosts] = state.color[hosts] = NONE


def _shorten_odd_chains(machine, plan, state, both, phase):
    """Take one top pair out of each odd closed chain.

    The root's top pair (ca, cb) merges at cb into an exempt node; the
    top at cc, the far end of the bottom pair at cb, moves into the
    top cell of ca. The bottom pair (cb, cc) leaves the chain, whose
    top pair at cc now starts at ca. Column cc leaves both, and ca's
    top node there is the moved one.
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
    merge_pairs(machine, plan["odd_a"], plan["odd_b"], state, phase)
    exempt(machine, plan["odd_b"], state, phase)
    move_nodes(machine, top_cc, cell_cc, 0, plan["odd_cols"], phase, state)
    # the moved tops' partners, both-column nodes of the chain, read
    # their partner's new column for the replan and write it into
    # their mb_pcol cells
    mates = state.pair[top_cc]
    with eng.step(f"{phase}/pcol", k) as s:
        state.pcol[mates] = s.read("col", top_cc)
        s.write("mb_pcol", machine.cell(state.row[mates], state.col[mates]), state.pcol[mates])
    both.drop(cc)
    both.node[0, both.at(plan["odd_cols"])] = top_cc


def swap_positions(machine: Machine, nodes_a, nodes_b, state: PassState, phase):
    """Exchange the cells of the two members of each pair (a[i], b[i]),
    which share a row, and the mb_color entries of those two cells; the
    cells' mb_pcol entries stay, since each member's partner is the
    other one. The rows, columns and colors come from the pass
    registers in state, so the step reads nothing; the col and pcol
    registers of a and b swap with the cells."""
    a = np.asarray(nodes_a, dtype=np.int64)
    b = np.asarray(nodes_b, dtype=np.int64)
    if a.size == 0:
        return
    row, ca, cb = state.row[a], state.col[a], state.col[b]
    wa, wb = state.color[a], state.color[b]
    cell_a, cell_b = machine.cell(row, ca), machine.cell(row, cb)
    with machine.engine.step(f"{phase}/swap_wr", a.size) as s:
        s.write("slot", cell_a, b)
        s.write("slot", cell_b, a)
        s.write("col", a, cb)
        s.write("col", b, ca)
        s.write("mb_color", cell_a, wb)
        s.write("mb_color", cell_b, wa)
    state.col[a], state.col[b] = cb, ca
    state.pcol[a], state.pcol[b] = ca, cb


# -- coloring and pairing ----------------------------------------------

def color_and_pair(machine: Machine, state: PassState, phase="rows"):
    """Color the localized lists of both rows and pair them off.

    After localization every uncut link joins two nodes of one row, so
    each chain lies on one row and one call serves both. The chains
    come from the pass state, and the pairs go into its registers.
    Returns the coloring.
    """
    ids = state.live()
    coloring = three_color(machine.engine, machine.memory, ids, state.sv[ids], state.pv[ids],
                           phase=f"{phase}/color")
    colors = np.full(state.row.size, NONE, dtype=np.int64)
    colors[ids] = coloring.final_color
    colors = _pairing.eliminate_twos(machine, state, colors, f"{phase}/elim2")
    _pairing.form_pairs(machine, state, colors, f"{phase}/pairs")
    return coloring


def opposite_pair_shortcut(machine: Machine, state: PassState, both: BothColumns,
                           phase="shortcut"):
    """Consume column-aligned pair stacks directly.

    A stack is a pair of each row over the same two both columns. The
    pairs over two both columns of the row that has fewer of them read
    the other row's mb_pcol cell at their smaller column, which
    partner_columns wrote, in one step: partners share a row, so the
    stack is aligned when that is the larger column. Both pairs then
    merge at once: the merged top pair keeps its cell at the 0-colored
    bottom member's column, which that member leaves, and the merged
    bottom pair its cell at the other, so each is alone in its column.
    Both columns leave both, so both merged nodes leave the pairing in
    their registers alone (exempt), with no step. Each pair's columns
    and colors come from the pass registers in state. Returns the
    number of aligned stacks consumed.
    """
    # per row, the positions in both of each such pair's two columns
    spans = []
    for v in both.node:
        hi = both.at(state.pcol[v])
        lo = np.flatnonzero(hi > np.arange(hi.size))
        spans.append((lo, hi[lo]))
    r = int(spans[1][0].size <= spans[0][0].size)
    lo, hi = spans[r]
    if lo.size == 0:
        return 0
    with machine.engine.step(f"{phase}/rd_pair", lo.size) as s:
        aligned = s.read("mb_pcol", machine.cell(1 - r, both.cols[lo])) == both.cols[hi]
    if not aligned.any():
        return 0
    # the stacks in their bottom leaders' id order, whichever row was
    # read, so the contraction log does not depend on it
    lo, hi = lo[aligned], hi[aligned]
    order = np.argsort(both.node[1, lo])
    lo, hi = lo[order], hi[order]
    b_lead, b_part = both.node[1, lo], both.node[1, hi]
    t_lo, t_hi = both.node[0, lo], both.node[0, hi]
    zero_first = state.color[b_lead] == 0
    b_zero = np.where(zero_first, b_lead, b_part)
    b_one = np.where(zero_first, b_part, b_lead)
    top_i = np.where(zero_first, t_lo, t_hi)
    top_j = np.where(zero_first, t_hi, t_lo)

    merge_pairs(machine, b_zero, b_one, state, f"{phase}/bot")
    merge_pairs(machine, top_j, top_i, state, f"{phase}/top")
    exempt(machine, np.concatenate([b_one, top_i]), state)
    both.drop(both.cols[np.r_[lo, hi]])
    return int(lo.size)
