"""Orientation keys, survivor placement, and the full contraction pass.

After the uniformity step the column keys 2*top_color + bottom_color
repeat 0, 1, 3, 2 along each column chain, so every pair can tell
locally which of its two columns is the forward one. Each pair merges
into the bottom slot of its forward column; merged exempt nodes and
boundary pairs resolve by vacancy instead. Survivors end up packed in
the bottom row and the array folds to half the columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrientationError, UncoveredCaseError
# clear_cuts stays importable here for bench/tracing.py
from .localize import MIN_RUN, check_min_run, clear_cuts, localize  # noqa: F401
from .model import INBOX, Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
# contract_batch stays importable here for bench/tracing.py
from .steps import (PassState, contract_batch, move_nodes, neighbor_message,  # noqa: F401
                    pool_nodes, scratch)
from .uniform import (BothColumns, both_columns, color_and_pair, enforce_uniformity,
                      merge_pairs, opposite_pair_shortcut)

# lists shorter than this leave the array at the start of a pass; the
# pool sees two hops each way in its two wide steps, and only the nodes
# near a list end walk the hops past that
POOL_MIN_LEN = 4

# the key after each key along the pattern 0, 1, 3, 2; NONE after NONE
_CYCLE_NEXT = np.array([1, 3, 0, 2, NONE])


@dataclass
class OrientationKey:
    key: np.ndarray                  # per column, NONE where undefined
    plan_host: np.ndarray            # each pair's member at its claimed column
    plan_absorbed: np.ndarray        # the member merged into it
    survivors: np.ndarray            # the pair hosts, then the unpaired nodes
    columns: np.ndarray              # each survivor's bottom column


def derive_orientation(machine: Machine, state: PassState, both: BothColumns,
                       phase="orient") -> OrientationKey:
    """Compute column keys and every pair's forward-column claim.

    Pattern-valid pairs claim the member column whose key is the cycle
    successor of the other member's key. Pairs bordering vacancies or
    exempt nodes claim the free side. Keys are defined only at the both
    columns, which the pass hands in, and one step reads them from the
    cell mailboxes there, which must be current; every other column's
    key is NONE, and its cell across from a pair is vacant. With no
    both column, as when a row is empty, no step runs, and every pair
    claims its 0-colored member's column by the vacancy rule.

    The rest comes from the pass registers in state: a pair's leader
    is the member whose col is below its pcol, and holds both columns
    and its own color. The leaders go row 0 first, each row in id
    order, then the unpaired live nodes, in a pass only exempt merged
    hosts, which survive in their own column. A pair whose two keys are
    defined but neither follows the other is marked, which the
    uniformity step should have cleared: it raises UncoveredCaseError
    with a snapshot of the first such row. Conflicting or other
    underivable claims, a column claimed twice among them, raise
    OrientationError.
    """
    key = np.full(machine.columns, NONE, dtype=np.int64)
    if both.cols.size:
        with machine.engine.step(f"{phase}/keys", both.cols.size) as s:
            tc, bc = (s.read("mb_color", machine.cell(r, both.cols)) for r in (0, 1))
        key[both.cols] = np.where(np.isin(tc, (0, 1)) & np.isin(bc, (0, 1)), 2 * tc + bc, NONE)

    live = state.live()
    paired = state.pair[live] != NONE
    loose = live[~paired]
    lead = live[paired & (state.col[live] < state.pcol[live])]
    lead = lead[np.argsort(state.row[lead], kind="stable")]
    partner = state.pair[lead]
    c1, c2 = state.col[lead], state.pcol[lead]
    k1, k2 = key[c1], key[c2]
    # pattern claim: the member whose key follows the other's
    follows_1 = (k1 != NONE) & (k1 == _CYCLE_NEXT[k2])
    follows_2 = (k2 != NONE) & (k2 == _CYCLE_NEXT[k1])
    # vacancy rule: claim the member column whose opposite cell is
    # empty; with both empty, the 0-colored member's column
    o1, o2 = both.at(c1) == NONE, both.at(c2) == NONE
    zero_col = np.where(state.color[lead] == 0, c1, c2)
    vac = np.where(o1 & ~o2, c1, np.where(o2 & ~o1, c2, np.where(o1 & o2, zero_col, NONE)))
    claim = np.where(follows_1 ^ follows_2, np.where(follows_1, c1, c2), vac)
    marked = (claim == NONE) & (k1 != NONE) & (k2 != NONE)
    if marked.any():
        row = int(state.row[lead[marked]][0])
        in_row = marked & (state.row[lead] == row)
        sel = np.flatnonzero(in_row)[:8]
        snap = {"target_row": 1 - row, "reference_row": row, "columns_lo": c1[sel].tolist(),
                "columns_hi": c2[sel].tolist(), "grid": machine.grid().tolist(),
                "colors": machine.peek("color").tolist()}
        raise UncoveredCaseError(f"{int(in_row.sum())} reference pair(s) left non-uniform",
                                 snapshot=snap)
    if (claim == NONE).any():
        bad = np.flatnonzero(claim == NONE)[:8]
        raise OrientationError(
            "no forward column for pairs at columns "
            f"{list(zip(c1[bad].tolist(), c2[bad].tolist()))} "
            f"(keys {list(zip(k1[bad].tolist(), k2[bad].tolist()))})")
    hosts = np.where(claim == c1, lead, partner)
    survivors = np.concatenate([hosts, loose])
    columns = np.concatenate([claim, state.col[loose]])
    uniq, counts = np.unique(columns, return_counts=True)
    if (counts > 1).any():
        raise OrientationError(
            f"bottom slots claimed twice at columns {uniq[counts > 1][:8].tolist()}")

    return OrientationKey(key=key, plan_host=hosts,
                          plan_absorbed=np.where(claim == c1, partner, lead),
                          survivors=survivors, columns=columns)


def contract_along_orientation(machine: Machine, plan: OrientationKey, state: PassState,
                               phase="pack"):
    """Merge every pair into its host, on the sides the side register
    state.at_succ gives, then drop every top-row survivor into the
    bottom cell of its column in one move; the registers follow both.
    The hosts keep their pair and color: nothing reads them before the
    next pass's coloring and pairing rewrite both."""
    merge_pairs(machine, plan.plan_absorbed, plan.plan_host, state, phase)
    from_top = state.row[plan.survivors] == 0
    top, cols = plan.survivors[from_top], plan.columns[from_top]
    move_nodes(machine, top, machine.cell(0, cols), machine.cell(1, cols), f"{phase}/drop", state)
    rows = machine.peek("row")[machine.in_array_ids()]
    if rows.size and (rows != 1).any():
        raise OrientationError("survivors left outside the bottom row")


def fold_array(machine: Machine, ids, cols, phase="fold"):
    """Halve the array in one write step: survivor ids[i], packed at
    bottom column cols[i] (the plan's column), moves to
    (cols[i] % 2, cols[i] // 2)."""
    # the top row is empty, and a new slot (below C) never meets an
    # old one (C + oc), so each survivor vacates its old slot itself
    nr, nc = cols % 2, cols // 2
    old = machine.cell(1, cols)
    machine.columns = -(-machine.columns // 2)   # cell() now gives the folded indices
    with machine.engine.step(f"{phase}/wr", ids.size) as s:
        s.write("row", ids, nr)
        s.write("col", ids, nc)
        s.write("slot", old, NONE)
        s.write("slot", machine.cell(nr, nc), ids)


def pool_short_lists(machine: Machine, phase="pool"):
    """Move lists shorter than POOL_MIN_LEN out of the array; pointer
    jumping will finish them. Their links stay intact. Returns the
    count and the PassState of the rest (memory holds no cut).

    Two full-width steps read the state and see two hops each way. In
    the send step each node reads its cell and links and sends its id
    and row to both neighbors, into its successor's inbox_p cell and
    its predecessor's inbox_s cell. In the recv step it reads its two
    inbox cells for its neighbors' rows, and the predecessor of its
    predecessor and the successor of its successor. The nodes that
    still see fewer than POOL_MIN_LEN - 1 others, the ones near a list
    end, then walk one hop further out per narrow step until they do or
    their walks run out. Every end of a list the pool keeps walks in
    the first of those steps, and writes there no neighbor into its own
    inbox cell on the side it lacks.

    So every kept node's inbox_p and inbox_s cells name its neighbors
    and their rows, and each contract step of localization keeps them
    so by sending a host and the far neighbor of the node it absorbs
    their new ones: localization's walk reads them."""
    eng = machine.engine
    ids = machine.in_array_ids()
    inbox = [scratch(machine, st) for st in INBOX]
    with eng.step(f"{phase}/send", ids.size) as s:
        row = s.read("row", ids)
        col = s.read("col", ids)
        pv = s.read("pred", ids)
        sv = s.read("succ", ids)
        me = neighbor_message(ids, row)
        s.write(inbox[PRED_SIDE], sv, me)
        s.write(inbox[SUCC_SIDE], pv, me)
    with eng.step(f"{phase}/recv", ids.size) as s:
        # a message's low bit is its sender's row
        row_p = np.where(pv != NONE, s.read(inbox[PRED_SIDE], ids) & 1, NONE)
        row_s = np.where(sv != NONE, s.read(inbox[SUCC_SIDE], ids) & 1, NONE)
        up = s.read("pred", pv)
        down = s.read("succ", sv)
    seen = (pv != NONE).astype(np.int64) + (sv != NONE) + (up != NONE) + (down != NONE)
    for k in range(2, POOL_MIN_LEN - 1):
        walk = np.flatnonzero((seen < POOL_MIN_LEN - 1) & ((up != NONE) | (down != NONE)))
        if walk.size == 0:
            break
        with eng.step(f"{phase}/far", walk.size) as s:
            up[walk] = s.read("pred", up[walk])
            down[walk] = s.read("succ", down[walk])
            if k == 2:   # every end of a kept list has seen two others
                for d, nbr in ((PRED_SIDE, pv), (SUCC_SIDE, sv)):
                    s.write(inbox[d], np.where(nbr[walk] == NONE, ids[walk], NONE),
                            neighbor_message(NONE, 0))
        seen[walk] += (up[walk] != NONE).astype(np.int64) + (down[walk] != NONE)
    keep = np.flatnonzero(seen >= POOL_MIN_LEN - 1)
    out = np.flatnonzero(seen < POOL_MIN_LEN - 1)
    regs = [np.full(machine.n, NONE, dtype=dt)
            for dt in [np.int64] * 2 + [np.int8] * 3 + [np.int64]]
    kept = ids[keep]
    for reg, got in zip(regs, (sv, pv, row, row_s, row_p, col)):
        reg[kept] = got[keep]
    state = PassState(kept, *regs)
    # the pooled nodes' cells, from the send step's reads
    pool_nodes(machine, ids[out], machine.cell(row[out], col[out]), phase)
    return int(out.size), state


@dataclass
class PassReport:
    pre_active: int
    pooled: int
    survivors: int
    columns_before: int
    columns_after: int
    shortcut_pairs: int
    odd_cycles: int                  # odd closed chains the uniformity step shortened
    survivors_in_bottom_row: bool

    @property
    def degraded(self):
        """Whether the pass left more than half of its nodes; the
        columns halve on every pass, so they do not show it."""
        return 2 * self.survivors > self.pre_active


def uniform_contraction_pass(machine: Machine, min_run=MIN_RUN, phase="pass") -> PassReport:
    """One full contraction pass over the current two-row placement.

    Pools the short lists, localizes the rest (free when one row is
    empty: no link crosses rows) and pools the lists that leaves as one
    node, then colors and pairs both rows. The pass registers then give
    the both columns (both_columns), which a columns placement loses
    with a row to localization; the aligned-stack shortcut, the
    uniformity coupling and the orientation keys run over them alone.
    Without them every pair claims its 0-colored member's column. The
    pass registers carry each node's partner, partner column, color and
    partner side from pairing to the pack; the links go after pairing.
    min_run must be at least 2.
    """
    check_min_run(min_run)
    cols_before = machine.columns
    pooled, state = pool_short_lists(machine, phase=f"{phase}/pool")
    pre_active = state.ids.size
    if pre_active == 0:
        return PassReport(0, pooled, 0, cols_before, cols_before, 0, 0, True)
    pooled += localize(machine, state, min_run=min_run, phase=f"{phase}/localize")
    color_and_pair(machine, state, phase=f"{phase}/rows")
    # the merges take their sides from at_succ: no phase reads a link
    state.sv = state.pv = state.row_s = state.row_p = None
    live = state.live()
    both = both_columns(machine, live, state.row[live], state.col, f"{phase}/both")
    shortcut = odd_cycles = 0
    if both.cols.size:
        shortcut = opposite_pair_shortcut(machine, state, both, phase=f"{phase}/shortcut")
        odd_cycles = enforce_uniformity(machine, state, both, phase=f"{phase}/uniform")
    plan = derive_orientation(machine, state, both, phase=f"{phase}/orient")
    contract_along_orientation(machine, plan, state, phase=f"{phase}/pack")
    survivors = plan.survivors.size
    in_bottom = bool((machine.peek("row")[plan.survivors] == 1).all())
    fold_array(machine, plan.survivors, plan.columns, phase=f"{phase}/fold")
    return PassReport(
        pre_active=pre_active, pooled=pooled, survivors=survivors,
        columns_before=cols_before, columns_after=machine.columns,
        shortcut_pairs=shortcut, odd_cycles=odd_cycles,
        survivors_in_bottom_row=in_bottom,
    )
