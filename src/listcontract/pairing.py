"""Turn a proper 3-coloring into disjoint 0-1 pairs along each chain.

First every color-2 node is recolored or contracted away, then 1-nodes
propose to adjacent 0-nodes, address ties are broken toward the larger
node id, and leftover unpaired nodes are absorbed into a neighboring
pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImproperColoringError
from .model import INBOX, Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
# restricted_neighbors stays importable here for bench/tracing.py
from .steps import PassState, contract_batch, restricted_neighbors, scratch  # noqa: F401


@dataclass
class PairAssignment:
    ids: np.ndarray        # the live tasks after pairing
    pair_of: np.ndarray    # partner id per node, NONE when unpaired


def eliminate_twos(machine: Machine, state: PassState, colors, phase="elim2"):
    """Remove color 2 from the live tasks of state, recoloring or
    contracting.

    colors, indexed by node id, holds the colors of the tasks in their
    registers, and each task's inbox_p and inbox_s cells its
    predecessor's and successor's, as three_color leaves them. Returns
    the colors updated.
    """
    eng = machine.engine
    ids = state.live()
    t_ids = ids[colors[ids] == 2]
    colors = colors.copy()
    t_sv, t_pv = state.sv[t_ids], state.pv[t_ids]
    has_s, has_p = t_sv != NONE, t_pv != NONE
    inb_p, inb_s = (scratch(machine, st) for st in INBOX)
    with eng.step(f"{phase}/read_colors", t_ids.size) as s:
        cp = s.read(inb_p, np.where(has_p, t_ids, NONE))
        cn = s.read(inb_s, np.where(has_s, t_ids, NONE))
    if ((has_s & (cn == 2)) | (has_p & (cp == 2))).any():
        raise ImproperColoringError("adjacent color-2 nodes")

    both = has_s & has_p
    recolor_one = both & (cp == 0) & (cn == 0)
    recolor_zero = both & (cp == 1) & (cn == 1)
    mixed = both & (cp != cn)
    only_s = has_s & ~has_p
    only_p = has_p & ~has_s
    isolated = ~has_s & ~has_p

    new = np.full(t_ids.size, NONE, dtype=np.int64)
    new[recolor_one] = 1
    new[recolor_zero] = 0
    new[only_s] = 1 - cn[only_s]
    new[only_p] = 1 - cp[only_p]
    new[isolated] = 0
    rec = new != NONE
    with eng.step(f"{phase}/recolor", int(rec.sum())) as s:
        s.write("color", t_ids[rec], new[rec])
    colors[t_ids[rec]] = new[rec]
    contract_batch(machine, t_ids[mixed], t_sv[mixed], PRED_SIDE, phase, state)
    return colors


def form_pairs(machine: Machine, state: PassState, colors, phase="pairs"):
    """Pair every live task of state with an adjacent opposite-color one.

    Expects a proper {0,1} coloring, colors indexed by node id. Every
    1-node proposes to an adjacent 0-node (successor preferred); the
    larger proposer id wins a contested 0-node; unpaired nodes are
    contracted into a neighboring pair. Singleton lists stay unpaired.
    Returns the live tasks and their partners, from the registers.
    """
    eng = machine.engine
    ids = state.live()
    sv, pv, colors = state.sv[ids], state.pv[ids], colors[ids]
    k = ids.size
    if not np.isin(colors, (0, 1)).all():
        raise ImproperColoringError("form_pairs needs colors in {0, 1}")

    # a proposal arrives from the target's predecessor or successor
    prop_p, prop_s = (scratch(machine, st) for st in INBOX)
    with eng.step(f"{phase}/clear", k) as s:
        s.write(prop_p, ids, NONE)
        s.write(prop_s, ids, NONE)
        s.write("pair", ids, NONE)

    # each task keeps its partner in a register: a 0-node picks it, a
    # 1-node reads whether its proposal won
    my_pair = np.full(k, NONE, dtype=np.int64)
    ones = np.flatnonzero(colors == 1)
    o_ids, o_sv, o_pv = ids[ones], sv[ones], pv[ones]
    to_succ = o_sv != NONE
    with eng.step(f"{phase}/propose", ones.size) as s:
        s.write(prop_p, np.where(to_succ, o_sv, NONE), o_ids)
        s.write(prop_s, np.where(~to_succ, o_pv, NONE), o_ids)

    zeros = np.flatnonzero(colors == 0)
    z_ids = ids[zeros]
    with eng.step(f"{phase}/resolve", zeros.size) as s:
        a = s.read(prop_p, z_ids)
        b = s.read(prop_s, z_ids)
        win = np.maximum(a, b)
        got = win != NONE
        s.write("pair", np.where(got, z_ids, NONE), win)
        s.write("pair", np.where(got, win, NONE), z_ids)
    my_pair[zeros] = win
    with eng.step(f"{phase}/won", ones.size) as s:
        my_pair[ones] = s.read("pair", o_ids)

    # absorb the unpaired into neighboring pairs; two waves cover
    # chains of two unpaired nodes
    for wave in range(2):
        sv, pv = state.sv[ids], state.pv[ids]
        unpaired = (state.row[ids] >= 0) & (my_pair == NONE) & ((sv != NONE) | (pv != NONE))
        if not unpaired.any():
            break
        u = np.flatnonzero(unpaired)
        u_ids, u_sv, u_pv = ids[u], sv[u], pv[u]
        with eng.step(f"{phase}/abs{wave}_ps", u.size) as s:
            succ_pair = s.read("pair", u_sv)
        with eng.step(f"{phase}/abs{wave}_pp", u.size) as s:
            pred_pair = s.read("pair", u_pv)
        use_s = (u_sv != NONE) & (succ_pair != NONE)
        use_p = ~use_s & (u_pv != NONE) & (pred_pair != NONE)
        host = np.where(use_s, u_sv, np.where(use_p, u_pv, NONE))
        ok = host != NONE
        side = np.where(use_s[ok], PRED_SIDE, SUCC_SIDE)
        contract_batch(machine, u_ids[ok], host[ok], side, f"{phase}/abs{wave}", state)

    # absorbing an unpaired node changes no partner, so the registers
    # of the tasks still live hold every pair
    live = state.row[ids] >= 0
    return PairAssignment(ids[live], my_pair[live])

