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
from .model import Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
from .steps import contract_batch, restricted_neighbors, scratch


@dataclass
class PairAssignment:
    ids: np.ndarray        # nodes inspected (active after the pass)
    pair_of: np.ndarray    # partner id per node, NONE when unpaired
    role: np.ndarray       # 0 or 1, the node's pairing color


def eliminate_twos(machine: Machine, ids, sv, pv, colors, phase="elim2"):
    """Remove color 2 from active nodes, recoloring or contracting.

    ids/sv/pv describe the chains (virtual neighbors); colors are the
    current colors of ids, held in task registers. Returns the updated
    colors for the nodes of ids that stay active.
    """
    eng = machine.engine
    k = ids.size
    if k == 0:
        return colors
    colors = colors.copy()
    twos = np.flatnonzero(colors == 2)
    if twos.size == 0:
        return colors
    t_ids = ids[twos]
    t_sv, t_pv = sv[twos], pv[twos]
    with eng.step(f"{phase}/read_succ_color", twos.size) as s:
        cn = s.read("color", t_sv)
    with eng.step(f"{phase}/read_pred_color", twos.size) as s:
        cp = s.read("color", t_pv)
    has_s, has_p = t_sv != NONE, t_pv != NONE
    if ((has_s & (cn == 2)) | (has_p & (cp == 2))).any():
        raise ImproperColoringError("adjacent color-2 nodes")

    both = has_s & has_p
    recolor_one = both & (cp == 0) & (cn == 0)
    recolor_zero = both & (cp == 1) & (cn == 1)
    mixed = both & (cp != cn)
    only_s = has_s & ~has_p
    only_p = has_p & ~has_s
    isolated = ~has_s & ~has_p

    new = np.full(twos.size, NONE, dtype=np.int64)
    new[recolor_one] = 1
    new[recolor_zero] = 0
    new[only_s] = 1 - cn[only_s]
    new[only_p] = 1 - cp[only_p]
    new[isolated] = 0
    rec = new != NONE
    if rec.any():
        with eng.step(f"{phase}/recolor", int(rec.sum())) as s:
            s.write("color", t_ids[rec], new[rec])
        colors[twos[rec]] = new[rec]

    if mixed.any():
        contract_batch(machine, t_ids[mixed], t_sv[mixed], PRED_SIDE, phase)
    return colors


def form_pairs(machine: Machine, ids, sv, pv, colors, phase="pairs"):
    """Pair every active node with an adjacent opposite-color node.

    Expects a proper {0,1} coloring. Every 1-node proposes to an
    adjacent 0-node (successor preferred); the larger proposer id wins
    a contested 0-node; unpaired nodes are contracted into a
    neighboring pair. Singleton lists stay unpaired.
    """
    eng = machine.engine
    k = ids.size
    if k == 0:
        return PairAssignment(ids, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if not np.isin(colors, (0, 1)).all():
        raise ImproperColoringError("form_pairs needs colors in {0, 1}")

    prop_p = scratch(machine, "prop_p")
    prop_s = scratch(machine, "prop_s")
    with eng.step(f"{phase}/clear", k) as s:
        s.write(prop_p, ids, NONE)
        s.write(prop_s, ids, NONE)
        s.write("pair", ids, NONE)

    ones = np.flatnonzero(colors == 1)
    if ones.size:
        o_ids, o_sv, o_pv = ids[ones], sv[ones], pv[ones]
        to_succ = o_sv != NONE
        with eng.step(f"{phase}/propose", ones.size) as s:
            s.write(prop_p, np.where(to_succ, o_sv, NONE), o_ids)
            s.write(prop_s, np.where(~to_succ, o_pv, NONE), o_ids)

    zeros = np.flatnonzero(colors == 0)
    if zeros.size:
        z_ids = ids[zeros]
        with eng.step(f"{phase}/resolve", zeros.size) as s:
            a = s.read(prop_p, z_ids)
            b = s.read(prop_s, z_ids)
            win = np.maximum(a, b)
            got = win != NONE
            s.write("pair", np.where(got, z_ids, NONE), win)
            s.write("pair", np.where(got, win, NONE), z_ids)

    # absorb the unpaired into neighboring pairs; two waves cover
    # chains of two unpaired nodes
    for wave in range(2):
        live = ids[machine.peek("status")[ids] == NONE]
        if live.size == 0:
            break
        sv_w, pv_w = restricted_neighbors(machine, live, f"{phase}/abs{wave}")
        with eng.step(f"{phase}/abs{wave}_pair", live.size) as s:
            my_pair = s.read("pair", live)
        unpaired = (my_pair == NONE) & ((sv_w != NONE) | (pv_w != NONE))
        if not unpaired.any():
            break
        u = np.flatnonzero(unpaired)
        u_ids, u_sv, u_pv = live[u], sv_w[u], pv_w[u]
        with eng.step(f"{phase}/abs{wave}_ps", u.size) as s:
            succ_pair = s.read("pair", u_sv)
        with eng.step(f"{phase}/abs{wave}_pp", u.size) as s:
            pred_pair = s.read("pair", u_pv)
        use_s = (u_sv != NONE) & (succ_pair != NONE)
        use_p = ~use_s & (u_pv != NONE) & (pred_pair != NONE)
        host = np.where(use_s, u_sv, np.where(use_p, u_pv, NONE))
        ok = host != NONE
        if ok.any():
            side = np.where(use_s[ok], PRED_SIDE, SUCC_SIDE)
            contract_batch(machine, u_ids[ok], host[ok], side, f"{phase}/abs{wave}")

    alive = machine.peek("status")[ids] == NONE
    out_ids = ids[alive]
    pair_now = machine.peek("pair")[out_ids]
    color_now = machine.peek("color")[out_ids]
    return PairAssignment(out_ids, pair_now, color_now)


def validate_pairs(machine: Machine, assignment: PairAssignment):
    """Involution, adjacency and color checks; raises on failure."""
    ids, pair = assignment.ids, assignment.pair_of
    paired = pair != NONE
    p = pair[paired]
    if (machine.peek("pair")[p] != ids[paired]).any():
        raise ImproperColoringError("pair_of is not an involution")
    succ, pred = machine.peek("succ"), machine.peek("pred")
    me = ids[paired]
    adj = (succ[me] == p) | (pred[me] == p)
    if not adj.all():
        raise ImproperColoringError("paired nodes are not adjacent")
    col = machine.peek("color")
    if (col[me] + col[p] != 1).any():
        raise ImproperColoringError("pairs must join colors 0 and 1")
