"""The uniformity step: couple the two rows' pairings so the column
keys form the periodic orientation pattern.

For every 0-1 pair of the reference row, the two target-row cells
above (or below) it must carry equal colors. Mismatched pairs are
repaired with three families of local moves:

* swap cases: exchanging two target-row nodes fixes two mismatched
  pairs at once (the facing configuration, and the window swaps along
  mismatch chains);
* contract cases: the target pair between a mismatch and a matched
  neighbor is merged and one node moves back, detaching a fully
  resolved two-column zone;
* a prefix-parity sweep: remaining mismatches are cleared by swapping
  the members of selected reference-linked pairs, scheduled by a
  pointer-doubling prefix computation over the column chains.

Everything runs as checked engine steps; all cross-pair information
flows through per-column mailboxes so no cell is ever read twice in
one step.
"""

from __future__ import annotations

import numpy as np

from .coloring import three_color
from .errors import UncoveredCaseError
from .model import Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
from .steps import (contract_batch, move_nodes, pair_leaders, restricted_neighbors,
                    scratch, swap_positions)
from . import pairing as _pairing

# structural repair rounds of the top-row application before the sweep
REPAIR_ITERATIONS = 6

# -- column mailboxes ---------------------------------------------------

def _mb(machine, row, what):
    return scratch(machine, f"mb_{row}_{what}", machine.memory.peek("slot").size // 2)


def publish_mailboxes(machine: Machine, phase):
    """Write each placed node's color, id and partner column into its
    column mailbox. One owner per cell, so every write is exclusive."""
    eng = machine.engine
    C = machine.columns
    stores = {(r, w): _mb(machine, r, w) for r in (0, 1) for w in ("node", "color", "pcol")}
    with eng.step(f"{phase}/mb_clear", C) as s:
        cols = np.arange(C)
        for st in stores.values():
            s.write(st, cols, NONE)
    ids = machine.in_array_ids()
    if ids.size == 0:
        return
    with eng.step(f"{phase}/mb_self", ids.size) as s:
        col = s.read("col", ids)
        row = s.read("row", ids)
        color = s.read("color", ids)
        partner = s.read("pair", ids)
    with eng.step(f"{phase}/mb_pc", ids.size) as s:
        pcol = s.read("col", partner)
    pcol = np.where(partner != NONE, pcol, NONE)
    with eng.step(f"{phase}/mb_pub", ids.size) as s:
        for r in (0, 1):
            m = row == r
            s.write(stores[(r, "node")], np.where(m, col, NONE), ids)
            s.write(stores[(r, "color")], np.where(m, col, NONE), color)
            s.write(stores[(r, "pcol")], np.where(m, col, NONE), pcol)


def _read_mb(machine, s, row, what, cols):
    return s.read(_mb(machine, row, what), cols)


# -- mark detection -----------------------------------------------------

def detect_marks(machine: Machine, target_row, ref_row, phase):
    """Columns and mismatch flags of every reference pair.

    Returns (leaders, c_lo, c_hi, j0, j1, marked): j1 is the column
    whose target cell is colored 1 (walk entry), defined only where
    marked.
    """
    eng = machine.engine
    leaders = pair_leaders(machine, ref_row)
    k = leaders.size
    empty = np.empty(0, dtype=np.int64)
    if k == 0:
        return leaders, empty, empty, empty, empty, np.empty(0, dtype=bool)
    col = machine.peek("col")
    c_lo = col[leaders]
    c_hi = col[machine.peek("pair")[leaders]]
    with eng.step(f"{phase}/det_lo", k) as s:
        t_lo = _read_mb(machine, s, target_row, "color", c_lo)
        n_lo = _read_mb(machine, s, target_row, "node", c_lo)
    with eng.step(f"{phase}/det_hi", k) as s:
        t_hi = _read_mb(machine, s, target_row, "color", c_hi)
        n_hi = _read_mb(machine, s, target_row, "node", c_hi)
    constrained = (n_lo != NONE) & (n_hi != NONE) & \
        np.isin(t_lo, (0, 1)) & np.isin(t_hi, (0, 1))
    marked = constrained & (t_lo != t_hi)
    j1 = np.where(t_lo == 1, c_lo, c_hi)
    j0 = np.where(t_lo == 1, c_hi, c_lo)
    return leaders, c_lo, c_hi, j0, j1, marked


# -- the walk (top-row enforcement only) --------------------------------

def _walk(machine: Machine, target_row, ref_row, j0, j1, phase):
    """Relay the six-column probe walk for each marked pair.

    All reads are per-column and provably exclusive: distinct marked
    pairs reach distinct columns at every hop because pair partners
    are unique.
    """
    eng = machine.engine
    k = j1.size
    out = {}
    with eng.step(f"{phase}/w_j1", k) as s:
        out["tn_j1"] = _read_mb(machine, s, target_row, "node", j1)
        out["j2"] = _read_mb(machine, s, target_row, "pcol", j1)
    j2 = out["j2"]
    with eng.step(f"{phase}/w_j2", k) as s:
        out["tn_j2"] = _read_mb(machine, s, target_row, "node", j2)
        out["rn_j2"] = _read_mb(machine, s, ref_row, "node", j2)
        out["j3"] = _read_mb(machine, s, ref_row, "pcol", j2)
    j3 = np.where(out["rn_j2"] != NONE, out["j3"], NONE)
    out["j3"] = j3
    with eng.step(f"{phase}/w_j3", k) as s:
        out["t3"] = _read_mb(machine, s, target_row, "color", j3)
        out["tn_j3"] = _read_mb(machine, s, target_row, "node", j3)
        out["rn_j3"] = _read_mb(machine, s, ref_row, "node", j3)
        out["j4"] = _read_mb(machine, s, target_row, "pcol", j3)
    j4 = np.where((out["tn_j3"] != NONE) & (out["t3"] == 0), out["j4"], NONE)
    out["j4"] = j4
    with eng.step(f"{phase}/w_j4", k) as s:
        out["rn_j4"] = _read_mb(machine, s, ref_row, "node", j4)
        out["j5"] = _read_mb(machine, s, ref_row, "pcol", j4)
    j5 = np.where(out["rn_j4"] != NONE, out["j5"], NONE)
    out["j5"] = j5
    with eng.step(f"{phase}/w_j5", k) as s:
        out["t5"] = _read_mb(machine, s, target_row, "color", j5)
        out["tn_j5"] = _read_mb(machine, s, target_row, "node", j5)
    # probe toward j0 for run membership seen from downstream
    with eng.step(f"{phase}/w_l2", k) as s:
        l2 = _read_mb(machine, s, target_row, "pcol", j0)
        out["l2"] = l2
    with eng.step(f"{phase}/w_l2r", k) as s:
        out["tl2"] = _read_mb(machine, s, target_row, "color", l2)
        out["l3"] = _read_mb(machine, s, ref_row, "pcol", l2)
    l3 = out["l3"]
    with eng.step(f"{phase}/w_l3", k) as s:
        out["tl3"] = _read_mb(machine, s, target_row, "color", l3)
        out["nl3"] = _read_mb(machine, s, target_row, "node", l3)
    return out


def _contract_target_pair(machine, absorbed, host, phase):
    """Merge a target-row pair; the merged node becomes exempt."""
    a = np.asarray(absorbed, dtype=np.int64)
    h = np.asarray(host, dtype=np.int64)
    if a.size == 0:
        return
    with machine.engine.step(f"{phase}/side", a.size) as s:
        sa = s.read("succ", a)
    side = np.where(sa == h, PRED_SIDE, SUCC_SIDE)
    contract_batch(machine, a, h, side, phase)
    with machine.engine.step(f"{phase}/exempt", h.size) as s:
        s.write("pair", h, NONE)
        s.write("color", h, NONE)


def enforce_uniformity(machine: Machine, target_row, reference_row, phase=None):
    """Make both target cells equal-colored over every reference pair.

    The top-row application (target_row 0) uses the swap, contract and
    chain-window cases; the bottom-row application relies on member
    swaps only, which suffice once the top row is uniform. Residual
    mismatches fall through to the prefix-parity sweep; anything still
    mismatched afterwards raises UncoveredCaseError with a snapshot.
    """
    phase = phase or f"uniform_t{target_row}"
    structural = target_row == 0
    for it in range(REPAIR_ITERATIONS):
        publish_mailboxes(machine, f"{phase}/it{it}")
        leaders, c_lo, c_hi, j0, j1, marked = detect_marks(
            machine, target_row, reference_row, f"{phase}/it{it}")
        if not marked.any():
            return
        if not structural:
            break
        sel = np.flatnonzero(marked)
        w = _walk(machine, target_row, reference_row,
                  j0[sel], j1[sel], f"{phase}/it{it}")
        progressed = _repair_once(machine, leaders[sel], j0[sel], j1[sel], w,
                                  f"{phase}/it{it}")
        if not progressed:
            break
    _prefix_flip_sweep(machine, target_row, reference_row, f"{phase}/sweep")
    _verify_uniform(machine, target_row, reference_row, f"{phase}/verify")


def _repair_once(machine, leaders, j0, j1, w, phase):
    """One round of the repair cases over the current mark set."""
    k = leaders.size
    run_next_ok = (w["tn_j3"] != NONE) & (w["t3"] == 1)           # chain continues
    have_prev = (w["nl3"] != NONE) & (w["tl2"] == 1) & (w["tl3"] == 0)
    in_run = run_next_ok | have_prev

    boundary_e = w["rn_j2"] == NONE                                # no reference cell under j2
    c2_case = ~boundary_e & ~in_run & ((w["tn_j3"] == NONE) | ~np.isin(w["t3"], (0, 1)))
    s_case = ~boundary_e & ~in_run & ~c2_case & \
        (w["j5"] != NONE) & (w["tn_j5"] != NONE) & (w["t5"] == 0)
    c_case = ~boundary_e & ~in_run & ~c2_case & ~s_case & (w["t3"] == 0)

    # mismatch chains restructure their whole neighborhood, so they get
    # the iteration to themselves; leftovers become isolated next round
    if in_run.any():
        return _repair_runs(machine, leaders, j0, j1, w, in_run, phase)

    did = False
    if boundary_e.any():
        sel = np.flatnonzero(boundary_e)
        _contract_target_pair(machine, w["tn_j1"][sel], w["tn_j2"][sel], f"{phase}/E")
        move_nodes(machine, w["tn_j2"][sel], 1, w["j2"][sel], f"{phase}/E")
        did = True
    if c2_case.any():
        sel = np.flatnonzero(c2_case)
        _contract_target_pair(machine, w["tn_j1"][sel], w["tn_j2"][sel], f"{phase}/C2")
        did = True
    if s_case.any():
        # mutual configuration: exactly one of the two facing pairs
        # executes, decided by the larger 1-end column
        winners = np.flatnonzero(s_case & (j1 > w["j4"]))
        if winners.size:
            swap_positions(machine, w["tn_j1"][winners], w["tn_j5"][winners], f"{phase}/S")
            did = True
    if c_case.any():
        sel = np.flatnonzero(c_case)
        _contract_target_pair(machine, w["tn_j1"][sel], w["tn_j2"][sel], f"{phase}/C")
        move_nodes(machine, w["tn_j3"][sel], 0, j1[sel], f"{phase}/C")
        did = True
    return did


def _repair_runs(machine, leaders, j0, j1, w, in_run, phase):
    """Chains of consecutive mismatched pairs: 3-color them, fire
    repair windows at 0-colored positions, then sweep leftovers with
    pair swaps scheduled by chain color."""
    idx = np.flatnonzero(in_run)
    if idx.size == 0:
        return False
    # chain successor: the next marked pair, identified by its leader
    lead_of = {}
    for i in idx:
        lead_of[int(leaders[i])] = i
    nxt = np.full(idx.size, NONE, dtype=np.int64)   # position in idx
    rn2, rn3 = w["rn_j2"], w["rn_j3"]
    for pos, i in enumerate(idx):
        if not (w["tn_j3"][i] != NONE and w["t3"][i] == 1):
            continue
        cand = [int(rn2[i]), int(rn3[i])]
        for c in cand:
            if c in lead_of and lead_of[c] != i:
                nxt[pos] = lead_of[c]
                break
    nxt_pos = np.full(idx.size, NONE, dtype=np.int64)
    pos_of = {int(i): p for p, i in enumerate(idx)}
    for p in range(idx.size):
        if nxt[p] != NONE:
            nxt_pos[p] = pos_of[int(nxt[p])]
    prv_pos = np.full(idx.size, NONE, dtype=np.int64)
    for p in range(idx.size):
        if nxt_pos[p] != NONE:
            prv_pos[nxt_pos[p]] = p

    chain_store = scratch(machine, "chain_color", max(idx.size, 2))
    chain_ids = np.arange(idx.size)
    succ_ids = nxt_pos
    pred_ids = prv_pos
    coloring = three_color(machine.engine, machine.memory, chain_ids, succ_ids,
                           pred_ids, phase=f"{phase}/chain",
                           color_store=chain_store, scratch_prefix="chx")
    cc = coloring.final_color
    alive = np.ones(idx.size, dtype=bool)   # mark still unfixed

    def fire_pair_swap(positions):
        # swap the target pair between chain member p and its next
        sel = idx[positions]
        swap_positions(machine, w["tn_j1"][sel], w["tn_j2"][sel], f"{phase}/win_swap")

    # windows start at 0-colored members whose next is 1-colored
    win = [p for p in range(idx.size)
           if cc[p] == 0 and nxt_pos[p] != NONE and cc[nxt_pos[p]] == 1]
    trio, pair_only = [], []
    for p in win:
        q = nxt_pos[p]
        r = nxt_pos[q]
        if r != NONE and cc[r] == 2:
            trio.append((p, int(q), int(r)))
        else:
            pair_only.append(p)
    if pair_only:
        fire_pair_swap(np.array(pair_only, dtype=np.int64))
        for p in pair_only:
            alive[p] = alive[nxt_pos[p]] = False
    if trio:
        ps = np.array([t[0] for t in trio], dtype=np.int64)
        qs = np.array([t[1] for t in trio], dtype=np.int64)
        rs = np.array([t[2] for t in trio], dtype=np.int64)
        fire_pair_swap(ps)
        _contract_target_pair(machine, w["tn_j1"][idx[qs]], w["tn_j2"][idx[qs]],
                              f"{phase}/win_c")
        move_nodes(machine, w["tn_j1"][idx[rs]], 0, j1[idx[qs]], f"{phase}/win_m")
        for p, q, r in trio:
            alive[p] = alive[q] = alive[r] = False

    # color-scheduled sweep of what remains
    for c in (0, 1, 2):
        batch = [p for p in range(idx.size)
                 if alive[p] and cc[p] == c and nxt_pos[p] != NONE and alive[nxt_pos[p]]]
        if batch:
            fire_pair_swap(np.array(batch, dtype=np.int64))
            for p in batch:
                alive[p] = alive[nxt_pos[p]] = False
    return True


# -- prefix-parity sweep -------------------------------------------------

def _prefix_flip_repair_arrays(machine, target_row, ref_row, phase):
    """Decide which target pairs to flip, via doubling over the column
    chain states. Returns (flip_cols, flip_partner_cols)."""
    eng = machine.engine
    C = machine.columns
    S = 2 * C
    st_nxt = scratch(machine, "cs_nxt", S)
    st_prv = scratch(machine, "cs_prv", S)
    st_w = scratch(machine, "cs_w", S)

    cols = np.arange(C)
    states = []
    for r in (0, 1):
        with eng.step(f"{phase}/st_r{r}", C) as s:
            pc = _read_mb(machine, s, r, "pcol", cols)
        states.append(pc)
    pcol0, pcol1 = states
    exists = np.concatenate([pcol0 != NONE, pcol1 != NONE])
    s_id = np.concatenate([2 * cols + 0, 2 * cols + 1])
    s_col = np.concatenate([cols, cols])
    s_row = np.concatenate([np.zeros(C, np.int64), np.ones(C, np.int64)])
    s_pcol = np.concatenate([pcol0, pcol1])
    em = np.flatnonzero(exists)
    if em.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)

    nxt = 2 * s_pcol[em] + (1 - s_row[em])
    with eng.step(f"{phase}/st_init", em.size) as s:
        s.write(st_nxt, s_id[em], nxt)
        s.write(st_w, s_id[em], 0)
    with eng.step(f"{phase}/st_prv_clear", S) as s:
        s.write(st_prv, np.arange(S), NONE)
    with eng.step(f"{phase}/st_prv", em.size) as s:
        s.write(st_prv, nxt, s_id[em])

    # marks on reference-row edges
    refs = em[s_row[em] == ref_row]
    if refs.size:
        rc = s_col[refs]
        rp = s_pcol[refs]
        with eng.step(f"{phase}/st_m1", refs.size) as s:
            t_a = _read_mb(machine, s, target_row, "color", rc)
            n_a = _read_mb(machine, s, target_row, "node", rc)
        with eng.step(f"{phase}/st_m2", refs.size) as s:
            t_b = _read_mb(machine, s, target_row, "color", rp)
            n_b = _read_mb(machine, s, target_row, "node", rp)
        conf = (n_a != NONE) & (n_b != NONE) & np.isin(t_a, (0, 1)) & np.isin(t_b, (0, 1))
        mk = (conf & (t_a != t_b)).astype(np.int64)
        with eng.step(f"{phase}/st_m3", refs.size) as s:
            s.write(st_w, s_id[refs], mk)

    # prefix xor + root discovery by saturating doubling over prev
    with eng.step(f"{phase}/dx_prv", em.size) as s:
        prv = s.read(st_prv, s_id[em])
    rt = np.where(prv == NONE, s_id[em], NONE)
    with eng.step(f"{phase}/dx_init", em.size) as s:
        wv = s.read(st_w, prv)
    x = np.where(prv != NONE, wv, 0)
    mconst = s_id[em].copy()

    jx = scratch(machine, "cs_j0", S)
    jx2 = scratch(machine, "cs_j1", S)
    xx_ = scratch(machine, "cs_x0", S)
    xx2 = scratch(machine, "cs_x1", S)
    rt_ = scratch(machine, "cs_r0", S)
    rt2 = scratch(machine, "cs_r1", S)
    mm_ = scratch(machine, "cs_m0", S)
    mm2 = scratch(machine, "cs_m1", S)
    names = [(jx, xx_, rt_, mm_), (jx2, xx2, rt2, mm2)]
    cur_j, cur_x, cur_rt, cur_m = prv.copy(), x.copy(), rt.copy(), mconst.copy()
    with eng.step(f"{phase}/dx_seed", em.size) as s:
        s.write(jx, s_id[em], cur_j)
        s.write(xx_, s_id[em], cur_x)
        s.write(rt_, s_id[em], cur_rt)
        s.write(mm_, s_id[em], cur_m)

    rounds = max(1, int(np.ceil(np.log2(max(2, em.size)))) + 1)
    for it in range(rounds):
        src, dst = names[it % 2], names[(it + 1) % 2]
        lv = cur_j != NONE
        if not lv.any():
            break
        with eng.step(f"{phase}/dx{it}", em.size) as s:
            jj = s.read(src[0], cur_j)
            xj = s.read(src[1], cur_j)
            rj = s.read(src[2], cur_j)
            mj = s.read(src[3], cur_j)
        new_rt = np.where(lv & (jj == NONE) & (rj != NONE), rj, cur_rt)
        new_x = np.where(lv, cur_x ^ xj, cur_x)
        new_m = np.where(lv, np.minimum(cur_m, mj), cur_m)
        new_j = np.where(lv, jj, cur_j)
        with eng.step(f"{phase}/dw{it}", em.size) as s:
            s.write(dst[0], s_id[em], new_j)
            s.write(dst[1], s_id[em], new_x)
            s.write(dst[2], s_id[em], new_rt)
            s.write(dst[3], s_id[em], new_m)
        cur_j, cur_x, cur_rt, cur_m = new_j, new_x, new_rt, new_m

    cyc = cur_j != NONE
    if cyc.any():
        # break every cycle at its minimum state and redo the prefix
        root_mask = cyc & (cur_m == s_id[em])
        prv2 = prv.copy()
        prv2[root_mask] = NONE
        cur_j = prv2.copy()
        with eng.step(f"{phase}/cy_init", em.size) as s:
            wv = s.read(st_w, prv2)
        cur_x = np.where(prv2 != NONE, wv, 0)
        cur_rt = np.where(prv2 == NONE, s_id[em], NONE)
        with eng.step(f"{phase}/cy_seed", em.size) as s:
            s.write(names[0][0], s_id[em], cur_j)
            s.write(names[0][1], s_id[em], cur_x)
            s.write(names[0][2], s_id[em], cur_rt)
        for it in range(rounds):
            src, dst = names[it % 2], names[(it + 1) % 2]
            lv = cur_j != NONE
            if not lv.any():
                break
            with eng.step(f"{phase}/cy{it}", em.size) as s:
                jj = s.read(src[0], cur_j)
                xj = s.read(src[1], cur_j)
                rj = s.read(src[2], cur_j)
            cur_rt = np.where(lv & (jj == NONE) & (rj != NONE), rj, cur_rt)
            cur_x = np.where(lv, cur_x ^ xj, cur_x)
            cur_j = np.where(lv, jj, cur_j)
            with eng.step(f"{phase}/cw{it}", em.size) as s:
                s.write(dst[0], s_id[em], cur_j)
                s.write(dst[1], s_id[em], cur_x)
                s.write(dst[2], s_id[em], cur_rt)

    # reconcile the two walk directions of every chain
    mirror = 2 * s_pcol[em] + s_row[em]
    mrt = scratch(machine, "cs_mrt", S)
    with eng.step(f"{phase}/mir_w", em.size) as s:
        s.write(mrt, mirror, cur_rt)
    with eng.step(f"{phase}/mir_r", em.size) as s:
        their_rt = s.read(mrt, s_id[em])
    chosen = cur_rt < their_rt

    tgt = (s_row[em] == target_row) & chosen & (cur_x == 1)
    return s_col[em][tgt], s_pcol[em][tgt]


def _prefix_flip_sweep(machine, target_row, ref_row, phase):
    publish_mailboxes(machine, phase)
    flip_c, flip_p = _prefix_flip_repair_arrays(machine, target_row, ref_row, phase)
    if flip_c.size == 0:
        return
    eng = machine.engine
    with eng.step(f"{phase}/nodes_a", flip_c.size) as s:
        a = _read_mb(machine, s, target_row, "node", flip_c)
    with eng.step(f"{phase}/nodes_b", flip_c.size) as s:
        b = _read_mb(machine, s, target_row, "node", flip_p)
    swap_positions(machine, a, b, f"{phase}/flip")


def _verify_uniform(machine, target_row, ref_row, phase):
    publish_mailboxes(machine, phase)
    leaders, c_lo, c_hi, j0, j1, marked = detect_marks(
        machine, target_row, ref_row, phase)
    if marked.any():
        sel = np.flatnonzero(marked)[:8]
        snap = {
            "target_row": target_row,
            "reference_row": ref_row,
            "columns_lo": c_lo[sel].tolist(),
            "columns_hi": c_hi[sel].tolist(),
            "grid": machine.two_rows().grid().tolist(),
            "colors": machine.peek("color").tolist(),
        }
        raise UncoveredCaseError(
            f"{int(marked.sum())} reference pair(s) left non-uniform", snapshot=snap)


# -- row pipeline pieces ------------------------------------------------

def row_color_and_pair(machine: Machine, row, phase=None):
    """Color one row's localized lists and pair them off."""
    phase = phase or f"row{row}"
    ids = machine.in_array_ids()
    ids = ids[machine.peek("row")[ids] == row]
    if ids.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return None, _pairing.PairAssignment(empty, empty.copy(), empty.copy())
    sv, pv = restricted_neighbors(machine, ids, f"{phase}/nbr")
    coloring = three_color(machine.engine, machine.memory, ids, sv, pv,
                           phase=f"{phase}/color")
    colors = _pairing.eliminate_twos(machine, ids, sv, pv, coloring.final_color,
                                     f"{phase}/elim2")
    alive = machine.peek("status")[ids] == NONE
    ids2 = ids[alive]
    sv2, pv2 = restricted_neighbors(machine, ids2, f"{phase}/nbr2")
    pairs = _pairing.form_pairs(machine, ids2, sv2, pv2, colors[alive], f"{phase}/pairs")
    return coloring, pairs


def opposite_pair_shortcut(machine: Machine, phase="shortcut"):
    """Consume column-aligned pair stacks directly.

    When the tops over a bottom pair form a pair themselves, both pairs
    merge at once: the merged top pair lands in the bottom row slot of
    the 0-colored bottom member's column, the merged bottom pair in the
    other. Returns the number of aligned stacks consumed.
    """
    eng = machine.engine
    publish_mailboxes(machine, phase)
    leaders = pair_leaders(machine, 1)
    if leaders.size == 0:
        return 0
    col, pair, colr = machine.peek("col"), machine.peek("pair"), machine.peek("color")
    c_lo = col[leaders]
    partner = pair[leaders]
    c_hi = col[partner]
    k = leaders.size
    with eng.step(f"{phase}/rd_lo", k) as s:
        tn_lo = _read_mb(machine, s, 0, "node", c_lo)
        tp_lo = _read_mb(machine, s, 0, "pcol", c_lo)
    with eng.step(f"{phase}/rd_hi", k) as s:
        tn_hi = _read_mb(machine, s, 0, "node", c_hi)
    aligned = (tn_lo != NONE) & (tn_hi != NONE) & (tp_lo == c_hi)
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

    _contract_target_pair(machine, b_zero, b_one, f"{phase}/bot")
    _contract_target_pair(machine, top_j, top_i, f"{phase}/top")
    move_nodes(machine, top_i, 1, ci, f"{phase}/drop")
    return int(sel.size)
