"""Turn a proper 3-coloring into disjoint 0-1 pairs along each chain.

First every color-2 node is recolored or contracted away. The {0, 1}
coloring left alternates along each chain, so a node finds its partner
in its own registers: a 1-node pairs with its successor and a 0-node
with its predecessor. That leaves loose only 0-colored chain heads and
1-colored chain ends. Two loose nodes that face each other pair up;
every other one is absorbed into its neighbor's pair. A loose node
cannot see whether its neighbor is loose too, so the loose nodes alone
run two steps: each marks its neighbor's inbox cell, then reads its own.

Pairing clears no scratch, and memory keeps no partner or color:
partners, partner sides and colors stay in the pass registers. A mark
is -2 minus the ledger index of its step; a fresh inbox cell holds NONE
and every other step writes 0 or more there, so a stale cell never
passes for a mark.
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
    reads both inbox cells of every color-2 task; the new colors stay
    in the registers. Returns the colors updated.
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
    colors[t_ids[rec]] = new[rec]
    contract_batch(machine, t_ids[mixed], t_sv[mixed], PRED_SIDE, phase, state)
    return colors


def form_pairs(machine: Machine, state: PassState, colors, phase="pairs"):
    """Pair every live task of state with an adjacent opposite-color one.

    Expects a proper {0,1} coloring, colors indexed by node id. A
    1-node pairs with its successor and a 0-node with its predecessor,
    where its registers, which know the cuts, hold one. The loose nodes,
    0-colored chain heads and 1-colored chain ends, mark each other in
    one step and read the marks in the next: a head and an end that
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
    partner = np.where(c == 1, sv, pv)
    state.pair[ids] = partner
    state.at_succ[ids] = (c == 1) & (partner != NONE)
    loose = (partner == NONE) & (np.maximum(sv, pv) != NONE)
    if not loose.any():
        return
    l_ids, head = ids[loose], c[loose] == 0
    nbr = np.where(head, sv[loose], pv[loose])
    # a head marks its successor's inbox_p cell and an end its
    # predecessor's inbox_s cell; each then reads its own other cell
    inb_p, inb_s = (scratch(machine, st) for st in INBOX)
    mark = -2 - len(eng.trace)
    with eng.step(f"{phase}/mark", l_ids.size) as s:
        s.write(inb_p, np.where(head, nbr, NONE), mark)
        s.write(inb_s, np.where(head, NONE, nbr), mark)
    with eng.step(f"{phase}/facing", l_ids.size) as s:
        got = np.where(head, s.read(inb_s, np.where(head, l_ids, NONE)),
                       s.read(inb_p, np.where(head, NONE, l_ids)))
    facing = got == mark
    state.pair[l_ids[facing]] = nbr[facing]
    state.at_succ[l_ids[facing]] = head[facing]
    # one side per call: memory keeps the cut links, so an end and the
    # head beyond its cut would read and write each other's links in
    # one contract step
    for side, on in ((PRED_SIDE, head & ~facing), (SUCC_SIDE, ~head & ~facing)):
        contract_batch(machine, l_ids[on], nbr[on], side, f"{phase}/abs", state)
