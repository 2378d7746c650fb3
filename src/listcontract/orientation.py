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
from .localize import clear_cuts, localize
from .model import Machine, POOLED
from .pram import NONE
# contract_batch stays importable here for bench/tracing.py
from .steps import PassState, contract_batch, move_nodes, pair_leaders  # noqa: F401
from .uniform import (color_and_pair, enforce_uniformity, merge_pairs,
                      opposite_pair_shortcut, publish_mailboxes)

_CYCLE_NEXT = np.full(4, -1, dtype=np.int64)
_CYCLE_NEXT[[0, 1, 3, 2]] = [1, 3, 2, 0]


@dataclass
class OrientationKey:
    key: np.ndarray                  # per column, NONE where undefined
    # per-pair placement plan(leader node, partner, target column, needs row move)
    plan_host: np.ndarray
    plan_absorbed: np.ndarray
    plan_col: np.ndarray
    plan_from_top: np.ndarray
    loose_nodes: np.ndarray          # unpaired tops to drop into their column
    loose_cols: np.ndarray


def derive_orientation(machine: Machine, phase="orient") -> OrientationKey:
    """Compute column keys and every pair's forward-column claim.

    Pattern-valid pairs claim the member column whose key is the cycle
    successor of the other member's key. Pairs bordering vacancies or
    exempt nodes claim the free side. The cell mailboxes must be
    current. A pair whose two keys are defined but neither follows the
    other is marked, which the uniformity step should have cleared: it
    raises UncoveredCaseError with a snapshot. Conflicting or other
    underivable claims raise OrientationError.
    """
    eng = machine.engine
    C = machine.columns
    cols = np.arange(C)
    top, bottom = machine.cell(0, cols), machine.cell(1, cols)
    with eng.step(f"{phase}/keys", C) as s:
        tc, bc = s.read("mb_color", top), s.read("mb_color", bottom)
        tn, bn = s.read("slot", top), s.read("slot", bottom)
    valid = np.isin(tc, (0, 1)) & np.isin(bc, (0, 1)) & (tn != NONE) & (bn != NONE)
    key = np.where(valid, 2 * tc + bc, NONE)

    host_l, abs_l, col_l, fromtop_l = [], [], [], []
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
        fromtop_l.append(np.full(claim.size, row == 0))

    plan_host = np.concatenate(host_l) if host_l else np.empty(0, np.int64)
    plan_abs = np.concatenate(abs_l) if abs_l else np.empty(0, np.int64)
    plan_col = np.concatenate(col_l) if col_l else np.empty(0, np.int64)
    plan_ft = np.concatenate(fromtop_l) if fromtop_l else np.empty(0, bool)

    # unpaired actives: bottom nodes stay put, top nodes drop straight down
    st, row_a, pair_a = machine.peek("status"), machine.peek("row"), machine.peek("pair")
    colarr = machine.peek("col")
    loose = np.flatnonzero((st == NONE) & (row_a == 0) & (pair_a == NONE))
    loose_cols = colarr[loose]
    stay = np.flatnonzero((st == NONE) & (row_a == 1) & (pair_a == NONE))

    taken = np.concatenate([plan_col, loose_cols, colarr[stay]])
    uniq, counts = np.unique(taken, return_counts=True)
    if (counts > 1).any():
        raise OrientationError(
            f"bottom slots claimed twice at columns {uniq[counts > 1][:8].tolist()}")

    return OrientationKey(key=key, plan_host=plan_host, plan_absorbed=plan_abs,
                          plan_col=plan_col, plan_from_top=plan_ft,
                          loose_nodes=loose, loose_cols=loose_cols)


def _cycle_next_of(k):
    out = np.full(k.shape, NONE, dtype=np.int64)
    m = k != NONE
    out[m] = _CYCLE_NEXT[k[m]]
    return out


def contract_along_orientation(machine: Machine, plan: OrientationKey, phase="pack"):
    """Merge every pair into its claimed bottom slot; drop loose tops."""
    ft = plan.plan_from_top
    merge_pairs(machine, plan.plan_absorbed, plan.plan_host, phase)
    move_nodes(machine, plan.plan_host[ft], 1, plan.plan_col[ft], f"{phase}/down")
    move_nodes(machine, plan.loose_nodes, 1, plan.loose_cols, f"{phase}/drop")
    rows = machine.peek("row")[machine.in_array_ids()]
    if rows.size and (rows != 1).any():
        raise OrientationError("survivors left outside the bottom row")


def fold_array(machine: Machine, phase="fold"):
    """Halve the array: bottom column c moves to (c % 2, c // 2)."""
    eng = machine.engine
    C = machine.columns
    new_c = -(-C // 2)
    ids = machine.in_array_ids()
    with eng.step(f"{phase}/rd", ids.size) as s:
        oc = s.read("col", ids)
        orow = s.read("row", ids)
    if (orow != 1).any():
        raise OrientationError("fold expects all survivors in the bottom row")
    # the top row is empty, and a new slot (below C) never meets an
    # old one (C + oc), so each survivor vacates its old slot itself
    nr, nc = oc % 2, oc // 2
    old = machine.cell(orow, oc)
    machine.columns = new_c   # cell() now gives the folded indices
    with eng.step(f"{phase}/wr", ids.size) as s:
        s.write("row", ids, nr)
        s.write("col", ids, nc)
        s.write("slot", old, NONE)
        s.write("slot", machine.cell(nr, nc), ids)


def pool_short_lists(machine: Machine, min_len=4, phase="pool"):
    """Move lists shorter than min_len out of the array; pointer
    jumping will finish them. Their links stay intact. Returns the
    count and the PassState of the rest, which the walks read (no link
    is cut when a pass starts)."""
    eng = machine.engine
    ids = machine.in_array_ids()
    # walk min_len - 1 hops, at least the three that carry the row
    # reads, from each node toward both ends at once, counting the hops
    # that reach a node
    up, down = ids, ids
    seen = np.zeros(ids.size, dtype=np.int64)
    at, rows = [ids], []    # own row, then the pred's, then the succ's
    for i in range(max(3, min_len - 1)):
        with eng.step(f"{phase}/walk{i}", ids.size) as s:
            if i < 3:
                rows.append(s.read("row", at[i]))
            up = s.read("pred", up)
            down = s.read("succ", down)
        if i == 0:
            at += [up, down]
        seen = seen + (up != NONE) + (down != NONE)
    keep = seen >= min_len - 1
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


def uniform_contraction_pass(machine: Machine, min_run=100, phase="pass") -> PassReport:
    """One full contraction pass over the current two-row placement."""
    cols_before = machine.columns
    pooled, state = pool_short_lists(machine, phase=f"{phase}/pool")
    pre_active = state.ids.size
    if pre_active == 0:
        return PassReport(0, pooled, 0, cols_before, cols_before, 0, 0, True, True)
    both_rows = bool((state.row == 0).any() and (state.row == 1).any())
    if both_rows:
        # a single-row placement has no cross-row links; localization
        # and the uniformity coupling are vacuous for it
        localize(machine, state, min_run=min_run, phase=f"{phase}/localize")
    color_and_pair(machine, state, phase=f"{phase}/rows")
    del state   # no phase reads the registers after pairing
    shortcut = odd_cycles = 0
    if both_rows:
        shortcut = opposite_pair_shortcut(machine, phase=f"{phase}/shortcut")
        odd_cycles = enforce_uniformity(machine, phase=f"{phase}/uniform")
    else:
        publish_mailboxes(machine, f"{phase}/orient")
    plan = derive_orientation(machine, phase=f"{phase}/orient")
    contract_along_orientation(machine, plan, phase=f"{phase}/pack")
    survivors = machine.in_array_ids().size
    in_bottom = bool((machine.peek("row")[machine.in_array_ids()] == 1).all())
    fold_array(machine, phase=f"{phase}/fold")
    clear_cuts(machine, phase=f"{phase}/uncut")
    return PassReport(
        pre_active=pre_active, pooled=pooled, survivors=survivors,
        columns_before=cols_before, columns_after=machine.columns,
        shortcut_pairs=shortcut, odd_cycles=odd_cycles,
        survivors_in_bottom_row=in_bottom,
        halved=machine.columns <= -(-cols_before // 2),
    )
