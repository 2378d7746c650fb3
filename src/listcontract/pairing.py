"""Turn a proper 3-coloring into disjoint 0-1 pairs along each chain.

First every color-2 node is recolored or contracted away, then 1-nodes
propose to adjacent 0-nodes, address ties are broken toward the larger
node id, and leftover unpaired nodes are absorbed into a neighboring
pair.

Pairing clears no scratch: every cell a step reads has one writer in
the step before or in the same step's snapshot. A 1-node writes its
proposal, its id and column packed, into prop_p at its successor, into
prop_s at its predecessor its proposal when it has no successor and
NONE otherwise, and NONE into its own pair cell. A 0-node reads prop_p
only when its registers show a predecessor and prop_s only when they
show a successor, writes its own pair cell, its winner or NONE, and
hands the winner its own column in the winner's prop_p cell, which no
proposal reaches: a 1-node's neighbors are 0-nodes. Each node then
knows, without a further read, its partner, its partner's column and
on which side its partner sits: a 0-node took its winner from one
side, and a 1-node proposed to its successor when it has one. All of
that stays in the pass registers.
"""

from __future__ import annotations

import numpy as np

from .errors import ImproperColoringError
from .model import INBOX, Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
# restricted_neighbors stays importable here for bench/tracing.py
from .steps import PassState, contract_batch, restricted_neighbors, scratch  # noqa: F401


def eliminate_twos(machine: Machine, state: PassState, colors, phase="elim2"):
    """Remove color 2 from the live tasks of state, recoloring or
    contracting.

    colors, indexed by node id, holds the colors of the tasks in their
    registers, and each task's inbox_p and inbox_s cells its
    predecessor's and successor's, as three_color leaves them. One step
    reads both inbox cells of every color-2 task and writes the colors
    of the recolored ones, a different store. Returns the colors
    updated.
    """
    eng = machine.engine
    ids = state.live()
    t_ids = ids[colors[ids] == 2]
    colors = colors.copy()
    t_sv, t_pv = state.sv[t_ids], state.pv[t_ids]
    has_s, has_p = t_sv != NONE, t_pv != NONE
    inb_p, inb_s = (scratch(machine, st) for st in INBOX)
    with eng.step(f"{phase}/recolor", t_ids.size) as s:
        cp = s.read(inb_p, np.where(has_p, t_ids, NONE))
        cn = s.read(inb_s, np.where(has_s, t_ids, NONE))
        if ((has_s & (cn == 2)) | (has_p & (cp == 2))).any():
            raise ImproperColoringError("adjacent color-2 nodes")
        both = has_s & has_p
        mixed = both & (cp != cn)
        # between two equal colors take the other one, beside one
        # neighbor the color it lacks, and 0 alone
        new = np.where(both, np.where(mixed, NONE, 1 - cp),
                       np.where(has_s, 1 - cn, np.where(has_p, 1 - cp, 0)))
        rec = new != NONE
        s.write("color", np.where(rec, t_ids, NONE), new)
    colors[t_ids[rec]] = new[rec]
    contract_batch(machine, t_ids[mixed], t_sv[mixed], PRED_SIDE, phase, state)
    return colors


def form_pairs(machine: Machine, state: PassState, colors, phase="pairs"):
    """Pair every live task of state with an adjacent opposite-color one.

    Expects a proper {0,1} coloring, colors indexed by node id. Every
    1-node proposes to an adjacent 0-node (successor preferred); the
    larger proposer id wins a contested 0-node; unpaired nodes are
    contracted into a neighboring pair. Singleton lists stay unpaired.
    Fills the pair, pcol, color and at_succ registers of state.
    """
    eng = machine.engine
    ids = state.live()
    sv, pv, c = state.sv[ids], state.pv[ids], colors[ids]
    if not np.isin(c, (0, 1)).all():
        raise ImproperColoringError("form_pairs needs colors in {0, 1}")

    # a proposal arrives from the target's predecessor or successor,
    # packed as (id << bits) + col, so the larger id still wins the max
    bits = int(machine.columns).bit_length()
    prop_p, prop_s = (scratch(machine, st) for st in INBOX)
    n = state.row.size
    state.pair, state.pcol = np.full(n, NONE, dtype=np.int64), np.full(n, NONE, dtype=np.int64)
    state.color, state.at_succ = colors, np.zeros(n, dtype=bool)
    ones = np.flatnonzero(c == 1)
    o_ids, o_sv, o_pv = ids[ones], sv[ones], pv[ones]
    to_succ = o_sv != NONE
    with eng.step(f"{phase}/propose", ones.size) as s:
        msg = (o_ids << bits) + state.col[o_ids]
        s.write(prop_p, o_sv, msg)
        s.write(prop_s, o_pv, np.where(to_succ, NONE, msg))
        s.write("pair", o_ids, NONE)

    zeros = np.flatnonzero(c == 0)
    z_ids = ids[zeros]
    with eng.step(f"{phase}/resolve", zeros.size) as s:
        a = s.read(prop_p, np.where(pv[zeros] != NONE, z_ids, NONE))
        b = s.read(prop_s, np.where(sv[zeros] != NONE, z_ids, NONE))
        win = np.maximum(a, b)
        won = win != NONE
        w_id = np.where(won, win >> bits, NONE)
        s.write("pair", z_ids, w_id)
        s.write("pair", w_id, z_ids)
        s.write(prop_p, w_id, state.col[z_ids])
    state.pair[z_ids] = w_id
    state.pcol[z_ids] = np.where(won, win & ((1 << bits) - 1), NONE)
    state.at_succ[z_ids] = (win == b) & won
    with eng.step(f"{phase}/won", ones.size) as s:
        o_pair = s.read("pair", o_ids)
        o_pcol = s.read(prop_p, o_ids)
    state.pair[o_ids] = o_pair
    state.pcol[o_ids] = np.where(o_pair != NONE, o_pcol, NONE)
    state.at_succ[o_ids] = to_succ

    # absorb the unpaired into neighboring pairs; two waves cover
    # chains of two unpaired nodes. Absorbing one changes no partner
    for wave in range(2):
        sv, pv = state.sv[ids], state.pv[ids]
        unpaired = (state.row[ids] >= 0) & (state.pair[ids] == NONE) & (np.maximum(sv, pv) != NONE)
        if not unpaired.any():
            break
        u = np.flatnonzero(unpaired)
        u_ids, u_sv, u_pv = ids[u], sv[u], pv[u]
        # one step reads both neighbors' pair cells. No cell is read
        # twice: a paired node between two unpaired ones would be
        # paired with one of them, and pairing never leaves three
        # unpaired nodes in a row
        with eng.step(f"{phase}/abs{wave}_nbr", u.size) as s:
            succ_pair = s.read("pair", u_sv)
            pred_pair = s.read("pair", u_pv)
        use_s = (u_sv != NONE) & (succ_pair != NONE)
        use_p = ~use_s & (u_pv != NONE) & (pred_pair != NONE)
        host = np.where(use_s, u_sv, np.where(use_p, u_pv, NONE))
        # one side at a time: two adjacent unpaired nodes can take
        # opposite sides, which contract_batch cannot tell in one step
        for side, on in ((PRED_SIDE, use_s), (SUCC_SIDE, use_p)):
            contract_batch(machine, u_ids[on], host[on], side, f"{phase}/abs{wave}", state)
