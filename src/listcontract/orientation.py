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
from .localize import MIN_RUN, clear_cuts, localize  # noqa: F401
from .model import INBOX, Machine, SUCC_SIDE
from .pram import NONE
# contract_batch stays importable here for bench/tracing.py
from .steps import (PassState, contract_batch, move_nodes, pair_leaders,  # noqa: F401
                    pool_nodes, scratch)
from .uniform import color_and_pair, enforce_uniformity, merge_pairs, opposite_pair_shortcut

# lists shorter than this leave the array at the start of a pass; the
# pool sees two hops each way in its two wide steps, and only the nodes
# near a list end walk the hops past that
POOL_MIN_LEN = 4

_CYCLE_NEXT = np.full(4, -1, dtype=np.int64)
_CYCLE_NEXT[[0, 1, 3, 2]] = [1, 3, 2, 0]


@dataclass
class OrientationKey:
    key: np.ndarray                  # per column, NONE where undefined
    plan_host: np.ndarray            # each pair's member at its claimed column
    plan_absorbed: np.ndarray        # the member merged into it
    survivors: np.ndarray            # the pair hosts, then the unpaired nodes
    columns: np.ndarray              # each survivor's bottom column
    from_top: np.ndarray             # whether the survivor sits in the top row


def derive_orientation(machine: Machine, phase="orient") -> OrientationKey:
    """Compute column keys and every pair's forward-column claim.

    Pattern-valid pairs claim the member column whose key is the cycle
    successor of the other member's key. Pairs bordering vacancies or
    exempt nodes claim the free side. The keys are read from the slot
    array and the cell mailboxes, which must be current, when both rows
    hold a node; otherwise every key and every opposite cell is NONE,
    and every pair claims its 0-colored member's column by the vacancy
    rule without a step. Unpaired nodes, in a pass only exempt merged
    hosts, survive in their own column. A pair whose two keys are
    defined but neither follows the other is marked, which the
    uniformity step should have cleared: it raises UncoveredCaseError
    with a snapshot. Conflicting or other underivable claims, a column
    claimed twice among them, raise OrientationError.
    """
    C = machine.columns
    key = tn = bn = np.full(C, NONE, dtype=np.int64)
    placed = machine.peek("row")[machine.in_array_ids()]
    if (placed == 0).any() and (placed == 1).any():
        cols = np.arange(C)
        top, bottom = machine.cell(0, cols), machine.cell(1, cols)
        with machine.engine.step(f"{phase}/keys", C) as s:
            tc, bc = s.read("mb_color", top), s.read("mb_color", bottom)
            tn, bn = s.read("slot", top), s.read("slot", bottom)
        valid = np.isin(tc, (0, 1)) & np.isin(bc, (0, 1)) & (tn != NONE) & (bn != NONE)
        key = np.where(valid, 2 * tc + bc, NONE)

    row_a, pair_a = machine.peek("row"), machine.peek("pair")
    loose = np.flatnonzero((row_a >= 0) & (pair_a == NONE))
    loose_cols = machine.peek("col")[loose]
    empty = np.empty(0, dtype=np.int64)
    host_l, abs_l, col_l = [empty], [empty], [empty]
    for row in (0, 1):
        leaders = pair_leaders(machine, row)
        if leaders.size == 0:
            continue
        colarr, pair = machine.peek("col"), machine.peek("pair")
        c1 = colarr[leaders]
        partner = pair[leaders]
        c2 = colarr[partner]
        k1, k2 = key[c1], key[c2]
        # pattern claim: the member whose key follows the other's
        follows_1 = (k1 != NONE) & (k2 != NONE) & (k1 == _cycle_next_of(k2))
        follows_2 = (k1 != NONE) & (k2 != NONE) & (k2 == _cycle_next_of(k1))
        pattern = follows_1 ^ follows_2
        claim = np.where(pattern & follows_1, c1, np.where(pattern & follows_2, c2, NONE))
        need = claim == NONE
        if need.any():
            # vacancy rule: claim the member column whose opposite cell
            # is empty; with both empty, the 0-colored member's column
            opp = bn if row == 0 else tn
            o1 = opp[c1] == NONE
            o2 = opp[c2] == NONE
            colr = machine.peek("color")
            zero_col = np.where(colr[leaders] == 0, c1, c2)
            vac = np.where(o1 & ~o2, c1,
                           np.where(o2 & ~o1, c2,
                                    np.where(o1 & o2, zero_col, NONE)))
            claim = np.where(need, vac, claim)
        marked = (claim == NONE) & (k1 != NONE) & (k2 != NONE)
        if marked.any():
            sel = np.flatnonzero(marked)[:8]
            snap = {
                "target_row": 1 - row,
                "reference_row": row,
                "columns_lo": c1[sel].tolist(),
                "columns_hi": c2[sel].tolist(),
                "grid": machine.grid().tolist(),
                "colors": machine.peek("color").tolist(),
            }
            raise UncoveredCaseError(
                f"{int(marked.sum())} reference pair(s) left non-uniform", snapshot=snap)
        if (claim == NONE).any():
            bad = np.flatnonzero(claim == NONE)[:8]
            raise OrientationError(
                "no forward column for pairs at columns "
                f"{list(zip(c1[bad].tolist(), c2[bad].tolist()))} "
                f"(keys {list(zip(k1[bad].tolist(), k2[bad].tolist()))})")
        host = np.where(claim == c1, leaders, partner)
        absorbed = np.where(claim == c1, partner, leaders)
        host_l.append(host)
        abs_l.append(absorbed)
        col_l.append(claim)

    hosts = np.concatenate(host_l)
    survivors = np.concatenate([hosts, loose])
    columns = np.concatenate([*col_l, loose_cols])
    uniq, counts = np.unique(columns, return_counts=True)
    if (counts > 1).any():
        raise OrientationError(
            f"bottom slots claimed twice at columns {uniq[counts > 1][:8].tolist()}")

    return OrientationKey(key=key, plan_host=hosts, plan_absorbed=np.concatenate(abs_l),
                          survivors=survivors, columns=columns, from_top=row_a[survivors] == 0)


def _cycle_next_of(k):
    out = np.full(k.shape, NONE, dtype=np.int64)
    m = k != NONE
    out[m] = _CYCLE_NEXT[k[m]]
    return out


def contract_along_orientation(machine: Machine, plan: OrientationKey, at_succ, phase="pack"):
    """Merge every pair into its host, on the sides the pass's side
    register at_succ gives, then drop every top-row survivor into the
    bottom cell of its column in one move. The hosts keep their pair
    and color: nothing reads them before the next pass's coloring and
    pairing rewrite both."""
    merge_pairs(machine, plan.plan_absorbed, plan.plan_host, at_succ, phase)
    top, cols = plan.survivors[plan.from_top], plan.columns[plan.from_top]
    move_nodes(machine, top, machine.cell(0, cols), machine.cell(1, cols), f"{phase}/drop")
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

    Two full-width steps read the state and see two hops each way: in
    the send step each node reads its cell and links and hands its
    successor and row to its predecessor's inbox_s cell, and in the
    recv step it reads the row and predecessor of its predecessor and
    that cell. The nodes that still see fewer than POOL_MIN_LEN - 1
    others, the ones near a list end, then walk one hop further out
    per narrow step until they do or their walks run out."""
    eng = machine.engine
    ids = machine.in_array_ids()
    inbox_s = scratch(machine, INBOX[SUCC_SIDE])
    with eng.step(f"{phase}/send", ids.size) as s:
        row = s.read("row", ids)
        col = s.read("col", ids)
        pv = s.read("pred", ids)
        sv = s.read("succ", ids)
        s.write(inbox_s, pv, (sv + 1) * 2 + row)
    has_s = sv != NONE
    with eng.step(f"{phase}/recv", ids.size) as s:
        row_p = s.read("row", pv)
        up = s.read("pred", pv)
        msg = s.read(inbox_s, np.where(has_s, ids, NONE))
    down = np.where(has_s, (msg >> 1) - 1, NONE)
    row_s = np.where(has_s, msg & 1, NONE)
    seen = (pv != NONE).astype(np.int64) + (sv != NONE) + (up != NONE) + (down != NONE)
    for _ in range(2, POOL_MIN_LEN - 1):
        walk = np.flatnonzero((seen < POOL_MIN_LEN - 1) & ((up != NONE) | (down != NONE)))
        if walk.size == 0:
            break
        with eng.step(f"{phase}/far", walk.size) as s:
            up[walk] = s.read("pred", up[walk])
            down[walk] = s.read("succ", down[walk])
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
    halved: bool


def uniform_contraction_pass(machine: Machine, min_run=MIN_RUN, phase="pass") -> PassReport:
    """One full contraction pass over the current two-row placement.

    Pools the short lists, localizes the rest (free when one row is
    empty: no link crosses rows) and pools the lists that leaves as one
    node, then colors and pairs both rows.
    The aligned-stack shortcut and the uniformity coupling run only
    when the pass registers show both rows still holding a node, which
    a columns placement loses to localization; with one row empty every
    pair claims its 0-colored member's column. Of the registers only
    the side of each node's partner stays, for the merges.
    """
    cols_before = machine.columns
    pooled, state = pool_short_lists(machine, phase=f"{phase}/pool")
    pre_active = state.ids.size
    if pre_active == 0:
        return PassReport(0, pooled, 0, cols_before, cols_before, 0, 0, True, True)
    pooled += localize(machine, state, min_run=min_run, phase=f"{phase}/localize")
    pairs = color_and_pair(machine, state, phase=f"{phase}/rows")[1]
    # the side register: whether each node's partner is its successor
    at_succ = np.zeros(machine.n, dtype=bool)
    at_succ[pairs.ids] = pairs.at_succ
    rows = state.row[state.live()]
    del state, pairs   # no phase reads the other registers after pairing
    shortcut = odd_cycles = 0
    if (rows == 0).any() and (rows == 1).any():
        shortcut = opposite_pair_shortcut(machine, at_succ, phase=f"{phase}/shortcut")
        odd_cycles = enforce_uniformity(machine, at_succ, phase=f"{phase}/uniform")
    plan = derive_orientation(machine, phase=f"{phase}/orient")
    contract_along_orientation(machine, plan, at_succ, phase=f"{phase}/pack")
    survivors = plan.survivors.size
    in_bottom = bool((machine.peek("row")[plan.survivors] == 1).all())
    fold_array(machine, plan.survivors, plan.columns, phase=f"{phase}/fold")
    return PassReport(
        pre_active=pre_active, pooled=pooled, survivors=survivors,
        columns_before=cols_before, columns_after=machine.columns,
        shortcut_pairs=shortcut, odd_cycles=odd_cycles,
        survivors_in_bottom_row=in_bottom,
        halved=machine.columns <= -(-cols_before // 2),
    )
