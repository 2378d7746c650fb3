"""Turn a proper 3-coloring into disjoint 0-1 pairs along each chain.

First every color-2 node is recolored or contracted away. The {0, 1}
coloring left alternates along each chain, so a node finds its partner
in its own registers: a 1-node pairs with its successor and a 0-node
with its predecessor. That leaves loose only 0-colored chain heads and
1-colored chain ends. Two loose nodes that face each other pair up;
every other one is absorbed into its neighbor's pair. A loose node
cannot see whether its neighbor is loose too, so the loose nodes alone
run two steps: each drains its inbox and marks its neighbor's dct cell,
then reads its own.

Pairing clears no scratch, and memory keeps no partner or color:
partners, partner sides and colors stay in the pass registers. A mark
is -2 minus the ledger index of its step; a fresh dct cell holds NONE
and every other step writes 0 or more there, so a stale cell never
passes for a mark.
"""

from __future__ import annotations

import numpy as np

from .errors import ImproperColoringError
from .model import Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
# restricted_neighbors stays importable here for bench/tracing.py
from .steps import (UNREAD, PassState, contract_batch, drain,  # noqa: F401
                    restricted_neighbors, scratch)


def eliminate_twos(machine: Machine, state: PassState, colors, stores, phase="elim2"):
    """Remove color 2 from the live tasks of state, recoloring or
    contracting.

    colors, indexed by node id, holds the colors of the tasks in their
    registers, and stores the stores whose cells at each task hold its
    predecessor's and successor's, as three_color leaves them. One step
    reads both cells of every color-2 task; the new colors stay in the
    registers. A color-2 node between a 0 and a 1 goes into its
    successor, whose news waits in its inbox (contract_batch). Returns
    the colors updated.
    """
    eng = machine.engine
    ids = state.live()
    t_ids = ids[colors[ids] == 2]
    colors = colors.copy()
    has_s, has_p = state.sv[t_ids] != NONE, state.pv[t_ids] != NONE
    with eng.step(f"{phase}/recolor", t_ids.size) as s:
        cp = s.read(stores[0], np.where(has_p, t_ids, NONE))
        cn = s.read(stores[1], np.where(has_s, t_ids, NONE))
        if ((has_s & (cn == 2)) | (has_p & (cp == 2))).any():
            raise ImproperColoringError("adjacent color-2 nodes")
        both = has_s & has_p
        mixed = both & (cp != cn)
        # between two equal colors take the other one, beside one
        # neighbor the color it lacks, and 0 alone
        new = np.where(both, np.where(mixed, NONE, 1 - cp),
                       np.where(has_s, 1 - cn, np.where(has_p, 1 - cp, 0)))
    rec = new != NONE
    colors[t_ids[rec]] = new[rec]
    contract_batch(machine, t_ids[mixed], None, PRED_SIDE, phase, state)
    return colors


def form_pairs(machine: Machine, state: PassState, colors, phase="pairs"):
    """Pair every live task of state with an adjacent opposite-color one.

    Expects a proper {0,1} coloring, colors indexed by node id. A
    1-node pairs with its successor and a 0-node with its predecessor,
    where its registers, which know the cuts, hold one; a partner named
    by a message still waiting in the node's inbox is UNREAD until the
    node drains it (a color-2 node taken out between them leaves each
    of its neighbors one there). The loose nodes, 0-colored chain heads
    and 1-colored chain ends, drain their inboxes and mark each other
    in one step and read the marks in the next: a head and an end that
    face each other pair up, and every other loose node is contracted
    into its neighbor's pair. Singleton lists stay unpaired. Fills the
    pair, color and at_succ registers of state, and pcol with NONE
    (uniform.partner_columns fills it where it is read).
    """
    eng = machine.engine
    ids = state.live()
    sv, pv, c = state.sv[ids], state.pv[ids], colors[ids]
    if not np.isin(c, (0, 1)).all():
        raise ImproperColoringError("form_pairs needs colors in {0, 1}")
    n = state.row.size
    state.pair, state.pcol = np.full(n, NONE, dtype=np.int64), np.full(n, NONE, dtype=np.int64)
    state.color, state.at_succ = colors, np.zeros(n, dtype=bool)
    # a color-2 contraction leaves a neighbor on each side it names, so
    # a waiting side keeps one
    partner = np.where(c == 1, sv, pv)
    unread = (state.pending[ids] >> np.where(c == 1, SUCC_SIDE, PRED_SIDE)) & 1 == 1
    state.pair[ids] = np.where(unread & (partner != NONE), UNREAD, partner)
    state.at_succ[ids] = (c == 1) & (partner != NONE)
    loose = (partner == NONE) & (np.maximum(sv, pv) != NONE)
    if not loose.any():
        return
    l_ids, head = ids[loose], c[loose] == 0
    # a head marks its successor's dct cell and an end its
    # predecessor's; each then reads its own. No node is the neighbor of
    # two loose nodes (a head's is colored 1, an end's 0), and the
    # coloring's dct cells are dead by then
    dct = scratch(machine, "dct")
    mark = -2 - len(eng.trace)
    with eng.step(f"{phase}/mark", l_ids.size) as s:
        drain(s, machine, state, l_ids)
        nbr = np.where(head, state.sv[l_ids], state.pv[l_ids])
        s.write(dct, nbr, mark)
    with eng.step(f"{phase}/facing", l_ids.size) as s:
        facing = s.read(dct, l_ids) == mark
    state.pair[l_ids[facing]] = nbr[facing]
    state.at_succ[l_ids[facing]] = head[facing]
    # one side per call: memory keeps the cut links, so an end and the
    # head beyond its cut would read and write each other's links in
    # one contract step
    for side, on in ((PRED_SIDE, head & ~facing), (SUCC_SIDE, ~head & ~facing)):
        contract_batch(machine, l_ids[on], None, side, f"{phase}/abs", state)
