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
from .model import Machine, POOLED
from .pram import NONE
# contract_batch stays importable here for bench/tracing.py
from .steps import PassState, contract_batch, move_nodes, pair_leaders  # noqa: F401
from .uniform import color_and_pair, enforce_uniformity, merge_pairs, opposite_pair_shortcut

# lists shorter than this leave the array at the start of a pass
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
    rule without a step. Unpaired nodes survive in their own column,
    and a pair whose claim falls on one of those takes its other column.
    A pair whose two keys are defined but neither follows the
    other is marked, which the uniformity step should have cleared: it
    raises UncoveredCaseError with a snapshot. Conflicting or other
    underivable claims raise OrientationError.
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
        claim = np.where(np.isin(claim, loose_cols), np.where(claim == c1, c2, c1), claim)
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


def contract_along_orientation(machine: Machine, plan: OrientationKey, phase="pack"):
    """Merge every pair into its host, then drop every top-row survivor
    into the bottom cell of its column in one move."""
    merge_pairs(machine, plan.plan_absorbed, plan.plan_host, phase)
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
    count and the PassState of the rest, which the walks read (memory
    holds no cut)."""
    eng = machine.engine
    ids = machine.in_array_ids()
    # walk POOL_MIN_LEN - 1 hops, at least the three that carry the row
    # reads, from each node toward both ends at once, counting the hops
    # that reach a node
    up, down = ids, ids
    seen = np.zeros(ids.size, dtype=np.int64)
    at, rows = [ids], []    # own row, then the pred's, then the succ's
    for i in range(max(3, POOL_MIN_LEN - 1)):
        with eng.step(f"{phase}/walk{i}", ids.size) as s:
            if i < 3:
                rows.append(s.read("row", at[i]))
            up = s.read("pred", up)
            down = s.read("succ", down)
        if i == 0:
            at += [up, down]
        seen = seen + (up != NONE) + (down != NONE)
    keep = seen >= POOL_MIN_LEN - 1
    regs = [np.full(machine.n, NONE, dtype=dt) for dt in (np.int64,) * 2 + (np.int8,) * 3]
    for reg, got in zip(regs, (at[2], at[1], rows[0], rows[2], rows[1])):
        reg[ids[keep]] = got[keep]
    state = PassState(ids[keep], *regs)
    sel = ids[~keep]
    with eng.step(f"{phase}/out_rd", sel.size) as s:
        r = s.read("row", sel)
        c = s.read("col", sel)
    with eng.step(f"{phase}/out_wr", sel.size) as s:
        s.write("slot", machine.cell(r, c), NONE)
        s.write("row", sel, POOLED)
        s.write("col", sel, POOLED)
    return int(sel.size), state


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
    empty: no link crosses rows), then colors and pairs both rows.
    The aligned-stack shortcut and the uniformity coupling run only
    when the pass registers show both rows still holding a node, which
    a columns placement loses to localization; with one row empty every
    pair claims its 0-colored member's column.
    """
    cols_before = machine.columns
    pooled, state = pool_short_lists(machine, phase=f"{phase}/pool")
    pre_active = state.ids.size
    if pre_active == 0:
        return PassReport(0, pooled, 0, cols_before, cols_before, 0, 0, True, True)
    localize(machine, state, min_run=min_run, phase=f"{phase}/localize")
    color_and_pair(machine, state, phase=f"{phase}/rows")
    rows = state.row[state.live()]
    del state   # no phase reads the registers after pairing
    shortcut = odd_cycles = 0
    if (rows == 0).any() and (rows == 1).any():
        shortcut = opposite_pair_shortcut(machine, phase=f"{phase}/shortcut")
        odd_cycles = enforce_uniformity(machine, phase=f"{phase}/uniform")
    plan = derive_orientation(machine, phase=f"{phase}/orient")
    contract_along_orientation(machine, plan, phase=f"{phase}/pack")
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
