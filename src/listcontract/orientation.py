"""Orientation keys, survivor placement, and the full contraction pass.

After the uniformity step the column keys 2*top_color + bottom_color
repeat 0, 1, 3, 2 along each column chain, so every pair can tell
locally which of its two columns is the forward one. Each pair merges
into its member at its forward column; merged exempt nodes and
boundary pairs resolve by vacancy instead. That leaves at most one
survivor per column, on either row, and the array folds to half the
columns: each survivor lands in its column's old top cell
(Machine.cell), so a top-row survivor keeps its cell. A pass leaves
its fold pending, and the next pass runs it first; pointer jumping and
the replay read no cell, so after the last pass no fold runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrientationError, UncoveredCaseError
# clear_cuts stays importable here for bench/tracing.py
from .localize import MIN_RUN, check_min_run, clear_cuts, localize  # noqa: F401
from .model import FOLDED, INBOX, Machine, PRED_SIDE, SUCC_SIDE, layout_row
from .pram import NONE
# contract_batch and move_nodes stay importable here for bench/tracing.py
from .steps import (PassState, contract_batch, move_nodes, neighbor_message,  # noqa: F401
                    pool_writes, read_neighbor, scratch)
from .uniform import (BothColumns, both_columns, color_and_pair, enforce_uniformity,
                      merge_pairs, opposite_pair_shortcut, partner_columns)

# the key after each key along the pattern 0, 1, 3, 2; NONE after NONE
_CYCLE_NEXT = np.array([1, 3, 0, 2, NONE])


@dataclass
class OrientationKey:
    key: np.ndarray                  # per column, NONE where undefined
    plan_host: np.ndarray            # each pair's member at its claimed column
    plan_absorbed: np.ndarray        # the member merged into it
    survivors: np.ndarray            # the pair hosts, then the unpaired nodes
    columns: np.ndarray              # each survivor's column, one survivor each


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

    The rest comes from the pass registers in state. A pair's leader
    is a member at a both column, which knows its partner's column
    (pcol), the one at the lower column where both are; it holds both
    columns and its own color. A pair with no member at a both column
    has both opposite cells vacant, and its 0-colored member leads and
    claims its own column, which needs no pcol. The leaders go row 0
    first, each row in id order, then the unpaired live nodes, in a
    pass only exempt merged hosts, which survive in their own column.
    A pair whose two keys are defined but neither follows the other is
    marked, which the uniformity step should have cleared: it raises
    UncoveredCaseError with a snapshot of the first such row.
    Conflicting or other underivable claims, a column claimed twice
    among them, raise OrientationError.
    """
    key = np.full(machine.columns, NONE, dtype=np.int64)
    if both.cols.size:
        with machine.engine.step(f"{phase}/keys", both.cols.size) as s:
            tc, bc = (s.read("mb_color", machine.cell(r, both.cols)) for r in (0, 1))
        key[both.cols] = np.where(np.isin(tc, (0, 1)) & np.isin(bc, (0, 1)), 2 * tc + bc, NONE)

    live = state.live()
    paired = state.pair[live] != NONE
    loose, me = live[~paired], live[paired]
    col_both, at_both = np.zeros(machine.columns, dtype=bool), np.zeros(state.row.size, dtype=bool)
    col_both[both.cols] = True
    at_both[me] = col_both[state.col[me]]
    # a member's partner is at a both column when that partner names it:
    # the both-column nodes know their partners (partner_columns), where
    # a node elsewhere may not have read its own yet (UNREAD)
    mated = np.zeros(state.row.size, dtype=bool)
    near = me[at_both[me]]
    mated[state.pair[near]] = True
    mate_at = mated[me]
    lead = me[np.where(at_both[me], ~mate_at | (state.col[me] < state.pcol[me]),
                       ~mate_at & (state.color[me] == 0))]
    del paired, me, at_both, mated, near, mate_at   # the call's memory peaks below
    lead = lead[np.argsort(state.row[lead], kind="stable")]
    partner = state.pair[lead]
    c1, c2 = state.col[lead], np.where(col_both[state.col[lead]], state.pcol[lead], NONE)
    k1, k2 = key[c1], np.where(c2 != NONE, key[c2], NONE)
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
                "colors": state.color.tolist()}
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
    twice = np.flatnonzero(np.bincount(columns, minlength=machine.columns) > 1)
    if twice.size:
        raise OrientationError(f"columns claimed twice at {twice[:8].tolist()}")

    return OrientationKey(key=key, plan_host=hosts,
                          plan_absorbed=np.where(claim == c1, partner, lead),
                          survivors=survivors, columns=columns)


def fold_array(machine: Machine, ids, cols, rows, phase="fold"):
    """Halve the array in one write step: survivor ids[i], alone in
    column cols[i] (the plan's column) on row rows[i], moves to
    (cols[i] % 2, cols[i] // 2). A pass leaves these three arrays
    pending in machine.pending_fold, and the next pass runs the fold as
    its first step; after the last pass none runs, since pointer
    jumping and the replay read no cell.

    Machine.fold makes that cell the column's old top cell, so a top-row
    survivor writes no slot cell, and a bottom-row one clears its cell
    and writes its id into the top cell above it, which is vacant: the
    column holds no other survivor, and the merges cleared the absorbed
    nodes' cells.

    In the same step each survivor reads its links and sends its id
    and new row to its neighbors, into its successor's inbox_p cell and
    its predecessor's inbox_s cell, and writes no neighbor into its own
    cell on a side it lacks. The survivors' neighbors are survivors
    (the pool and localization take out whole lists), so every
    survivor's inbox cells then name its neighbors and their new rows,
    and the pool reads them there (placed_by FOLDED)."""
    # in id order, the engine proves the row, col, pred and succ
    # accesses at once
    order = np.argsort(ids)
    ids, cols = ids[order], cols[order]
    bottom = rows[order] == 1
    frm = machine.cell(np.where(bottom, 1, NONE), cols)
    top = machine.cell(np.where(bottom, 0, NONE), cols)
    machine.fold()
    nr = cols % 2
    inbox = [scratch(machine, st) for st in INBOX]
    with machine.engine.step(f"{phase}/wr", ids.size) as s:
        pv = s.read("pred", ids)
        sv = s.read("succ", ids)
        s.write("row", ids, nr)
        s.write("col", ids, cols // 2)
        s.write("slot", frm, NONE)
        s.write("slot", top, ids)
        me = neighbor_message(ids, nr)
        for d, to, mine in ((PRED_SIDE, sv, pv), (SUCC_SIDE, pv, sv)):
            s.write(inbox[d], to, me)
            s.write(inbox[d], np.where(mine == NONE, ids, NONE), neighbor_message(NONE, 0))
    machine.placed_by = FOLDED
    machine.pending_fold = None


def pool_short_lists(machine: Machine, phase="pool"):
    """Move the lists of one node out of the array; pointer jumping
    will finish them. Returns the count and the PassState of the rest
    (memory holds no cut).

    One step over every node in the array reads its cell and links and
    learns its neighbors' rows, and leaves its inbox_p and inbox_s
    cells naming its predecessor and successor and their rows (no
    neighbor at a list end), which localization's walk reads. A node
    alone in its list pools itself in the same step. Longer lists stay:
    localization and pairing shorten them like any other, localization
    pools a list it leaves as one node, and a later pass pools one that
    pairing leaves so.

    Where the rows come from depends on machine.placed_by. layout places
    a node by its id alone, so after it a node computes its neighbors'
    rows from their ids and writes its own two inbox cells; fold_array
    has written those cells already, so after it a node reads them. Any
    other placement raises ValueError: one made by neither (a pass that
    leaves its fold pending resets placed_by), a node off the row its
    layout gives it, or an inbox cell that names another neighbor than
    memory's link."""
    ids = machine.in_array_ids()
    source = machine.placed_by
    if source is None:
        raise ValueError("the pool needs a placement made by layout or fold_array")
    inbox = [scratch(machine, st) for st in INBOX]
    with machine.engine.step(f"{phase}/links", ids.size) as s:
        row = s.read("row", ids)
        col = s.read("col", ids)
        pv = s.read("pred", ids)
        sv = s.read("succ", ids)
        if source == FOLDED:
            (got_p, row_p), (got_s, row_s) = (read_neighbor(machine, s.read(st, ids))
                                              for st in inbox)
            if not (np.array_equal(got_p, pv) and np.array_equal(got_s, sv)):
                raise ValueError("an inbox cell names another neighbor than its node's "
                                 "link: the placement did not come from fold_array")
        else:
            if not np.array_equal(row, layout_row(source, machine.columns, ids)):
                raise ValueError(f"a node sits off the row the {source!r} layout gives it")
            row_p, row_s = (np.where(nbr != NONE, layout_row(source, machine.columns, nbr), NONE)
                            for nbr in (pv, sv))
            s.write(inbox[PRED_SIDE], ids, neighbor_message(pv, row_p))
            s.write(inbox[SUCC_SIDE], ids, neighbor_message(sv, row_s))
        lone = (pv == NONE) & (sv == NONE)
        if lone.any():
            pool_writes(s, np.where(lone, ids, NONE),
                        machine.cell(np.where(lone, row, NONE), col))
    keep = np.flatnonzero(~lone)
    regs = [np.full(machine.n, NONE, dtype=dt)
            for dt in [np.int64] * 2 + [np.int8] * 3 + [np.int64]]
    kept = ids[keep]
    for reg, got in zip(regs, (sv, pv, row, row_s, row_p, col)):
        reg[kept] = got[keep]
    return ids.size - kept.size, PassState(kept, *regs)


@dataclass
class PassReport:
    pre_active: int
    pooled: int
    survivors: int
    columns_before: int
    columns_after: int               # the columns its pending fold leaves
    shortcut_pairs: int
    odd_cycles: int                  # odd closed chains the uniformity step shortened

    @property
    def degraded(self):
        """Whether the pass left more than half of its nodes; the
        columns halve on every pass, so they do not show it."""
        return 2 * self.survivors > self.pre_active


def uniform_contraction_pass(machine: Machine, min_run=MIN_RUN, phase="pass") -> PassReport:
    """One full contraction pass over the current two-row placement.

    Runs the fold the previous pass left pending, if any, then pools the
    lists of one node, localizes the rest (free when one row is empty:
    no link crosses rows), then colors and pairs both rows, whose first
    step pools the lists localization leaves as one node. The pass
    registers then give the both columns (both_columns), which a
    columns placement loses with a row to localization; their nodes
    alone read their partners' columns (partner_columns), and the
    aligned-stack shortcut, the uniformity coupling and the orientation
    keys run over them alone. Without them every pair claims its
    0-colored member's column. The
    pass registers carry each node's partner, color and partner side,
    and at the both columns its partner's column, from pairing to the
    pack; the links go after pairing.
    The pass ends with the pack and leaves its plan pending in
    machine.pending_fold: the survivors, their columns and their rows,
    which only the next pass's fold reads. min_run must be at least 2.
    """
    check_min_run(min_run)
    if machine.pending_fold is not None:
        fold_array(machine, *machine.pending_fold, phase=f"{phase}/fold")
    cols_before = machine.columns
    pooled, state = pool_short_lists(machine, phase=f"{phase}/pool")
    pre_active = state.ids.size
    if pre_active == 0:
        return PassReport(0, pooled, 0, cols_before, cols_before, 0, 0)
    localize(machine, state, min_run=min_run, phase=f"{phase}/localize")
    pooled += color_and_pair(machine, state, phase=f"{phase}/rows")
    # the merges take their sides from at_succ: no phase reads a link
    state.sv = state.pv = state.row_s = state.row_p = None
    live = state.live()
    both = both_columns(machine, live, state.row[live], state.col, f"{phase}/both")
    shortcut = odd_cycles = 0
    if both.cols.size:
        partner_columns(machine, state, both, f"{phase}/both")
        shortcut = opposite_pair_shortcut(machine, state, both, phase=f"{phase}/shortcut")
        odd_cycles = enforce_uniformity(machine, state, both, phase=f"{phase}/uniform")
    plan = derive_orientation(machine, state, both, phase=f"{phase}/orient")
    # every pair merges into its host, which stays in its cell, alone in
    # its column; the hosts keep pair and color registers nothing reads
    merge_pairs(machine, plan.plan_absorbed, plan.plan_host, state, f"{phase}/pack")
    machine.pending_fold = (plan.survivors, plan.columns, state.row[plan.survivors])
    machine.placed_by = None
    return PassReport(
        pre_active=pre_active, pooled=pooled, survivors=plan.survivors.size,
        columns_before=cols_before, columns_after=-(-cols_before // 2),
        shortcut_pairs=shortcut, odd_cycles=odd_cycles,
    )
