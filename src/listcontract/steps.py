"""Shared engine-step building blocks used by the pipeline phases."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import INBOX, ContractBatch, Machine, POOLED, PRED_SIDE, SUCC_SIDE, RETIRED
from .pram import NONE


def scratch(machine: Machine, name, size=None):
    """Scratch store of size cells, machine.n by default."""
    return machine.memory.scratch(name, machine.n if size is None else int(size))


def double(machine: Machine, name, ids, seed, ufuncs, limit=None, phase="double"):
    """Pointer doubling of tasks ids along their pointers j.

    seed is (j, values), one values array per ufunc, or a function
    that reads them inside the init step and returns them. Each round
    is one step: every task whose pointer is live reads j and the
    values at j from one buffer and folds them into its own values by
    the associative ufunc, and every task of the step writes its state
    at ids into the other buffer. A value only the root should pass on
    is folded by np.maximum from the root's value, NONE elsewhere.
    Stops when every pointer has run out, after limit rounds, or after
    a round in which none ran out (only closed chains are left: an open
    one loses a pointer every round) once the 2**rounds states each
    task has folded cover the live tasks, so every window has wrapped.
    Returns (stores, rounds): stores names the pointer store and the
    value stores holding the result, for every task at its id, where
    each caller reads its own. Pointers must stay within ids.

    Round 0 runs every task, and round r > 0 exactly those whose
    pointer was live at the start of round r - 1: a task whose pointer
    runs out writes its final state once more, into the buffer it did
    not just write, so a task that reaches it later reads that state
    from either buffer, and then leaves the registers.
    """
    eng = machine.engine
    size = max(machine.n, int(ids.max(initial=-1)) + 1)
    bufs = [[scratch(machine, f"{name}_{f}{b}", size)
             for f in ["j"] + [f"v{i}" for i in range(len(ufuncs))]] for b in (0, 1)]
    with eng.step(f"{phase}/init", ids.size) as s:
        j, values = seed(s) if callable(seed) else seed
        for st, v in zip(bufs[0], [j, *values]):
            s.write(st, ids, v)
    tid = ids
    need, was = None, 0   # pointer live at the start of the last round, and how many
    rounds = 0
    while limit is None or rounds < limit:
        live = j != NONE
        left = int(np.count_nonzero(live))
        if left == 0 or (left == was and 2 ** rounds >= left):
            break
        if need is not None and was < need.size:
            tid, j, live = tid[need], j[need], live[need]
            for i, v in enumerate(values):   # each old register goes as it is replaced
                values[i] = v[need]
        src, dst = bufs[rounds % 2], bufs[(rounds + 1) % 2]
        with eng.step(f"{phase}/r{rounds}", j.size) as s:
            # a finished task's pointer is NONE, so it reads nothing
            j, *got = [s.read(st, j) for st in src]
            # fold into the arrays the reads returned; a finished task keeps
            # its own values
            dead = ~live
            for f, v, g in zip(ufuncs, values, got):
                f(v, g, out=g, where=live)
                np.copyto(g, v, where=dead)
            values = got
            for st, v in zip(dst, [j, *values]):
                s.write(st, tid, v)
        need, was = live, left
        rounds += 1
    return bufs[rounds % 2], rounds


def restricted_neighbors(machine: Machine, ids, phase):
    """Metered read of each node's neighbors in one step: the
    successor and predecessor node ids, NONE at a list end. Memory
    keeps every link, so a caller that needs them cut where they cross
    rows drops those links itself, as a pass does in its registers.
    """
    k = ids.size
    if k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    with machine.engine.step(f"{phase}/nbr", k) as s:
        return s.read("succ", ids), s.read("pred", ids)


# the pair register of a node whose partner is named only by a message
# still waiting in its inbox: the node learns it when it drains
UNREAD = -4


@dataclass
class PassState:
    """Task registers of one pass, indexed by node id: the virtual
    successor and predecessor (NONE at a list end or across a cut
    link), the row, the rows of those two neighbors (NONE where they
    are) and the column; memory holds no cut. The pool fills them in
    its one wide step, the neighbors' rows from their ids after the
    layout and from the fold's inbox messages after a fold.
    contract_batch retires the row of every task it absorbs, as memory
    does, and localize.settle pools the row of a task it pools. A
    contraction's news for the other tasks waits in their inbox cells,
    with bit d of pending set while the side-d cell holds a message its
    node has not read; only drain moves it into the registers.

    form_pairs adds each node's partner (pair, UNREAD while a message
    names it), color and at_succ, True where the partner is the
    successor; the partner's column (pcol) is filled at the both
    columns alone (uniform.partner_columns). Memory keeps no copy of
    them outside the uniformity step's cell mailboxes. The pass drops
    the link registers after pairing; the merges, moves, swaps and
    exempt patch the rest.
    """

    ids: np.ndarray
    sv: np.ndarray
    pv: np.ndarray
    row: np.ndarray
    row_s: np.ndarray
    row_p: np.ndarray
    col: np.ndarray
    pair: np.ndarray = None
    pcol: np.ndarray = None
    color: np.ndarray = None
    at_succ: np.ndarray = None
    live_ids: np.ndarray = field(init=False)
    pending: np.ndarray = field(init=False)

    def __post_init__(self):
        self.live_ids = self.ids[self.row[self.ids] >= 0]
        self.pending = np.zeros(self.row.size, dtype=np.int8)

    def live(self):
        return self.live_ids

    def drop(self, ids, row):
        """Give tasks ids the off-array row and drop them from the live tasks."""
        self.row[ids] = row
        self.live_ids = self.live_ids[self.row[self.live_ids] >= 0]

    def side(self, d):
        return (self.pv, self.row_p) if d == PRED_SIDE else (self.sv, self.row_s)


def drain(s, machine: Machine, state: PassState, t):
    """Tasks t of step s, one node each, read the messages waiting in
    their inbox cells, as state.pending marks them: each moves the
    neighbor and row a message names into its link registers while the
    pass keeps them, takes an UNREAD partner from the message on its
    partner's side, and adds the weights the messages carry to its
    weight cell. Returns those weights, 0 where none waits."""
    t = np.asarray(t, dtype=np.int64)
    got = state.pending[t]
    w = np.zeros(t.size, dtype=np.int64)
    if not got.any():
        return w
    bits = machine.n.bit_length()
    for d, store in zip((PRED_SIDE, SUCC_SIDE), INBOX):
        on = (got >> d) & 1 == 1
        if not on.any():
            continue
        msg = s.read(store, _pick(on, t, NONE))
        if not on.all():
            msg[~on] = 0   # names no neighbor
        w += msg >> (bits + 1)
        nbr, row = read_neighbor(machine, msg)
        if state.sv is not None:
            reg, reg_row = state.side(d)
            reg[t[on]], reg_row[t[on]] = nbr[on], row[on]
        if state.pair is not None:
            mate = on & (state.pair[t] == UNREAD) & (state.at_succ[t] == (d == SUCC_SIDE))
            state.pair[t[mate]] = nbr[mate]
    state.pending[t] = 0
    if w.any():
        at = _pick(w > 0, t, NONE)
        s.write("weight", at, s.read("weight", at) + w)
    return w


def contract_batch(machine: Machine, absorbed, host, side, phase, state=None):
    """Contract absorbed[i] into adjacent host[i] in one step.

    side[i] is PRED_SIDE when absorbed[i] precedes its host. The hosts
    of one side must be distinct, and absorbed and host sets must not
    overlap. Its row alone records that an absorbed node is retired;
    the log gets one entry per side.

    Without a PassState the hosts must be distinct over the batch, and
    the step sums each host's weight. With one, each absorbed task
    first drains its inbox (drain), and then:

    - While the pass keeps its link registers, host is None: each
      absorbed node's host is its successor where it precedes its host,
      else its predecessor, from its drained registers. side may also
      be a function that the step calls once the tasks have drained,
      which returns their sides and meet_row from what they read; a
      task whose side is NONE contracts nothing. Each absorbed task
      sends its host its weight, its far neighbor (the one beyond it
      from its host) and that neighbor's row, and the far neighbor its
      host and the host's row, into inbox cells the receivers own. A
      message waits there until its receiver drains it in a step it
      runs anyway; a task that finds one still waiting in a cell it
      sends to reads it first and carries its weight on, which no other
      task touches: a host takes at most one node per side per batch. A
      far neighbor across a cut link is NONE there, so the link stays
      cut.
    - Once the pass has dropped its link registers, every host drains
      too, an absorbed entry UNREAD is the partner its host reads
      there, and the step sums each host's weight, as without a state.

    An absorbed node's far neighbor may be absorbed in the same batch
    only toward the other side, as a meeting pair x, y between hosts
    hx, hy; meet_row marks both, with the row of the other one's host,
    NONE elsewhere. Each of x and y reads the other's host from memory
    and links its own host to it.
    """
    a = np.asarray(absorbed, dtype=np.int64)
    if a.size == 0:
        return
    with machine.engine.step(f"{phase}/contract", a.size) as s:
        a, h, sd, wa = _contract_step(s, machine, a, host, side, state)
    for d in (PRED_SIDE, SUCC_SIDE):
        on = sd == d
        if on.any():
            machine.log.append(ContractBatch(absorbed=a[on], host=h[on],
                                             side=np.full(int(on.sum()), d), weight=wa[on]))
    if state is not None:
        state.drop(a[sd != NONE], RETIRED)


# a receiver's new neighbor on side d arrives in its inbox[d] cell,
# packed with that neighbor's row (0 or 1) and, for a host, the
# absorbed weight w, as ((w << bits) + id + 1) * 2 + row, where
# id + 1 <= n < 2**bits; no neighbor packs as id NONE, row 0
def neighbor_message(nbr, row):
    """The inbox message naming neighbor nbr, on row row; nbr NONE
    names no neighbor."""
    return (nbr + 1) * 2 + np.where(nbr != NONE, row, 0)


def read_neighbor(machine: Machine, msg):
    """The neighbor and its row an inbox message names, NONE for both
    where it names none; a host's weight bits are masked off."""
    rest = (msg >> 1) & ((1 << machine.n.bit_length()) - 1)   # id + 1
    return rest - 1, np.where(rest > 0, msg & 1, NONE)


def _contract_step(s, machine: Machine, a, host, side, state):
    """The body of contract_batch's step s; returns the absorbed nodes,
    their hosts, their sides (NONE where a task contracts nothing) and
    their weights."""
    skip = np.full(a.size, NONE)
    w_a = w_h = 0
    if state is not None and host is not None:
        w_h = drain(s, machine, state, host)
        a = np.where(a == UNREAD, state.pair[host], a)
    if state is not None:
        w_a = drain(s, machine, state, a)
    meet_row = skip
    if callable(side):
        side, meet_row = side(s)
    sd = np.broadcast_to(np.asarray(side, dtype=np.int64), a.shape)
    go, ps = sd != NONE, sd == PRED_SIDE
    h = (np.asarray(host, dtype=np.int64) if host is not None
         else _pick(go, _at(ps, a, state.sv, state.pv), skip))
    ag = _pick(go, a, skip)
    meet = meet_row != NONE
    wa = s.read("weight", ag) + w_a
    ra = s.read("row", ag)
    ca = s.read("col", ag)
    # the outer neighbor, and in a meeting the other host beyond it
    outer = _pick(ps, s.read("pred", _pick(ps, ag, skip)), s.read("succ", _pick(ps, skip, ag)))
    link = outer
    if meet.any():
        beyond = _pick(ps, s.read("pred", np.where(meet & ps, outer, NONE)),
                       s.read("succ", np.where(meet & ~ps, outer, NONE)))
        link, outer = np.where(meet, beyond, outer), np.where(meet, NONE, outer)
    fa = s.read("first", _pick(ps, ag, skip))
    s.write("succ", _pick(ps, outer, h), _pick(ps, h, link))
    s.write("pred", _pick(ps, h, outer), _pick(ps, link, h))
    s.write("first", _pick(ps, h, skip), fa)
    s.write("slot", machine.cell(ra, ca), NONE)
    s.write("row", ag, RETIRED)
    s.write("col", ag, RETIRED)
    if state is None or state.sv is None:
        s.write("weight", h, wa + s.read("weight", h) + w_h)
        return a, h, sd, wa
    bits = machine.n.bit_length()
    far = _at(ps, a, state.pv, state.sv)
    far_row = _at(ps, a, state.row_p, state.row_s)
    # in a meeting the host's new neighbor is the other host, and the
    # far neighbor, absorbed too, hears nothing
    new, new_row = _pick(meet, link, far), _pick(meet, meet_row, far_row)
    host_row = _at(ps, a, state.row_s, state.row_p)
    far = _pick(go & ~meet, far, skip)
    # the receivers of the inbox_p and inbox_s messages, and the weight
    # of a message still waiting in each of those cells
    to = [_pick(ps, h, far), _pick(ps, far, h)]
    held = []
    for d in (PRED_SIDE, SUCC_SIDE):
        wait = (to[d] != NONE) & ((state.pending[to[d]] >> d) & 1 == 1)
        held.append(np.where(wait, s.read(INBOX[d], np.where(wait, to[d], NONE)), 0)
                    >> (bits + 1) if wait.any() else 0)
    to_host = ((wa + _pick(ps, held[PRED_SIDE], held[SUCC_SIDE])) << (bits + 1)
               ) + neighbor_message(new, new_row)
    to_far = (_pick(ps, held[SUCC_SIDE], held[PRED_SIDE]) << (bits + 1)
              ) + neighbor_message(h, host_row)
    s.write(INBOX[PRED_SIDE], to[PRED_SIDE], _pick(ps, to_host, to_far))
    s.write(INBOX[SUCC_SIDE], to[SUCC_SIDE], _pick(ps, to_far, to_host))
    for d in (PRED_SIDE, SUCC_SIDE):
        state.pending[to[d][to[d] != NONE]] |= 1 << d
    return a, h, sd, wa


def _pick(mask, x, y):
    """np.where(mask, x, y), returning x or y itself where mask is
    uniform: the engine then sees one index array where it can."""
    if mask.all():
        return x
    return np.where(mask, x, y) if mask.any() else y


def _at(mask, a, x, y):
    """x[a] where mask holds and y[a] elsewhere, for registers x, y
    indexed by node; reads only the one in use where mask is uniform."""
    if mask.all():
        return x[a]
    return np.where(mask, x[a], y[a]) if mask.any() else y[a]


def pool_writes(s, nodes, cells):
    """The writes of step s that take nodes[i] out of the array: clear
    its slot cell cells[i] and set its row and col to POOLED; a NONE
    entry skips its task."""
    s.write("slot", cells, NONE)
    s.write("row", nodes, POOLED)
    s.write("col", nodes, POOLED)


def move_nodes(machine: Machine, nodes, frm, row, col, phase, state=None):
    """Move each node from the slot cell frm[i] that holds it to the
    vacant cell at (row[i], col[i]), in one step: the caller already
    holds the cell it leaves, from the read that chose the node. With a
    PassState, each node's row and col registers follow it, and it
    writes its color and partner column registers into the mb_color
    and mb_pcol cells of its new cell (uniform)."""
    cells = machine.cell(row, col)
    with machine.engine.step(f"{phase}/move_wr", np.size(nodes)) as s:
        s.write("slot", frm, NONE)
        s.write("slot", cells, nodes)
        s.write("row", nodes, row)
        s.write("col", nodes, col)
        if state is not None:
            s.write("mb_color", cells, state.color[nodes])
            s.write("mb_pcol", cells, state.pcol[nodes])
    if state is not None:
        state.row[nodes], state.col[nodes] = row, col
