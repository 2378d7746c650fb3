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
    Stops when every pointer has run out, or after limit rounds.
    Returns (j, values, stores, rounds); stores names the pointer store
    and the value stores holding the result, for every task. Pointers
    must stay within ids.

    Round 0 runs every task, and round r > 0 those whose pointer was
    live at the start of round r - 1: a task whose pointer runs out
    writes its final state once more, into the buffer it did not just
    write, so a task that reaches it later reads that state from
    either buffer. The step's tasks stay a superset of those: the
    finished ones leave the registers only when that lowers the step's
    ceil(t / p), and until then keep rewriting their final state,
    reading nothing. Their results wait in chunks until the end.
    """
    eng = machine.engine
    p = eng.config.num_processors
    k = ids.size
    size = max(machine.n, int(ids.max(initial=-1)) + 1)
    bufs = [[scratch(machine, f"{name}_{f}{b}", size)
             for f in ["j"] + [f"v{i}" for i in range(len(ufuncs))]] for b in (0, 1)]
    with eng.step(f"{phase}/init", k) as s:
        j, values = seed(s) if callable(seed) else seed
        for st, v in zip(bufs[0], [j, *values]):
            s.write(st, ids, v)
    # the registers hold the tasks at positions run of ids, all while
    # run is None; the dropped tasks' positions and values, in chunks
    run, tid, gone_at, gone_values = None, ids, [], []
    need = None   # pointer live at the start of the last round
    rounds = 0
    while limit is None or rounds < limit:
        live = j != NONE
        if not live.any():
            break
        if need is not None and -(-np.count_nonzero(need) // p) < -(-j.size // p):
            keep, gone = np.flatnonzero(need), np.flatnonzero(~need)
            gone_at.append(gone if run is None else run[gone])
            gone_values.append([v[gone] for v in values])
            run = keep if run is None else run[keep]
            tid, j = ids[run], j[keep]
            live = j != NONE
            for i, v in enumerate(values):   # each old register goes as it is replaced
                values[i] = v[keep]
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
        need = live
        rounds += 1
    if run is not None:
        j_all = np.full(k, NONE, dtype=np.int64)
        j_all[run] = j
        j, values = j_all, [_gather(k, run, v, [g[i] for g in gone_values], gone_at)
                            for i, v in enumerate(values)]
    return j, values, bufs[rounds % 2], rounds


def _gather(k, run, v, chunks, at):
    """The k results of one value register: v at positions run, each
    chunk at its positions in at."""
    out = np.empty(k, dtype=v.dtype)
    out[run] = v
    for pos, c in zip(at, chunks):
        out[pos] = c
    return out


def pair_leaders(machine: Machine, row):
    """Leader node of every pair on one row: the smaller-column member."""
    rw, pair, col = (machine.peek(n) for n in ("row", "pair", "col"))
    ids = np.flatnonzero((rw == row) & (pair != NONE))
    if ids.size == 0:
        return ids
    return ids[col[ids] < col[pair[ids]]]


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


@dataclass
class PassState:
    """Task registers of one pass, indexed by node id: the virtual
    successor and predecessor (NONE at a list end or across a cut
    link), the row, the rows of those two neighbors (NONE where they
    are) and the column, which no step changes while they live; memory
    holds no cut. contract_batch keeps them current and, as in memory,
    retires the row of every task it absorbs, as pool_nodes pools it.
    """

    ids: np.ndarray
    sv: np.ndarray
    pv: np.ndarray
    row: np.ndarray
    row_s: np.ndarray
    row_p: np.ndarray
    col: np.ndarray
    live_ids: np.ndarray = field(init=False)

    def __post_init__(self):
        self.live_ids = self.ids[self.row[self.ids] >= 0]

    def live(self):
        return self.live_ids

    def drop(self, ids, row):
        """Give tasks ids the off-array row and drop them from the live tasks."""
        self.row[ids] = row
        self.live_ids = self.live_ids[self.row[self.live_ids] >= 0]

    def side(self, d):
        return (self.pv, self.row_p) if d == PRED_SIDE else (self.sv, self.row_s)


def contract_batch(machine: Machine, absorbed, host, side, phase, state=None, meet_row=None):
    """Contract absorbed[i] into adjacent host[i] in one step.

    side[i] is PRED_SIDE when absorbed[i] precedes its host. The hosts
    of one side must be distinct, and absorbed and host sets must not
    overlap. Its row alone records that an absorbed node is retired;
    the log gets one entry per side.

    An absorbed node's far neighbor (the one beyond it from its host)
    may be absorbed in the same batch only toward the other side, as a
    meeting pair x, y between hosts hx, hy; meet_row marks both, with
    the row of the other one's host, NONE elsewhere. Each of x and y
    reads the other's host from memory and links its own host to it.

    Without a PassState the hosts must be distinct over the batch,
    and the step sums each host's weight. With one, a host may take one
    node on each side: each absorbed task forwards its weight, its far
    neighbor and that neighbor's row to its host, and its host and the
    host's row to the far neighbor, through inbox cells the receivers
    own, and the refresh step sums the weights. A far neighbor across a
    cut link is NONE there, so the link stays cut.
    """
    a = np.asarray(absorbed, dtype=np.int64)
    h = np.asarray(host, dtype=np.int64)
    if a.size == 0:
        return
    sd = np.broadcast_to(np.asarray(side, dtype=np.int64), a.shape)
    wa, far = _contract_step(machine, a, h, sd == PRED_SIDE, meet_row, phase, state)
    for d in (PRED_SIDE, SUCC_SIDE):
        on = sd == d
        if on.any():
            machine.log.append(ContractBatch(absorbed=a[on], host=h[on],
                                             side=np.full(int(on.sum()), d), weight=wa[on]))
    if state is not None:
        state.drop(a, RETIRED)
        _refresh_step(machine, state, h, sd, far, phase)


# a receiver's new neighbor on side d arrives in its inbox[d] cell,
# packed with that neighbor's row (0 or 1) and, for a host, the
# absorbed weight w, as ((w << bits) + id + 1) * 2 + row, where
# id + 1 <= n < 2**bits
def _contract_step(machine: Machine, a, h, ps, meet_row, phase, state):
    """The contract step of contract_batch, ps marking its pred-side
    tasks; returns the absorbed weights and, with a state, each task's
    far neighbor that hears from it (NONE where none does)."""
    skip = np.full(a.size, NONE)
    meet_row = skip if meet_row is None else np.asarray(meet_row)
    meet = meet_row != NONE
    far = None
    with machine.engine.step(f"{phase}/contract", a.size) as s:
        wa = s.read("weight", a)
        ra = s.read("row", a)
        ca = s.read("col", a)
        # the outer neighbor, and in a meeting the other host beyond it
        outer = _pick(ps, s.read("pred", _pick(ps, a, skip)), s.read("succ", _pick(ps, skip, a)))
        link = outer
        if meet.any():
            beyond = _pick(ps, s.read("pred", np.where(meet & ps, outer, NONE)),
                           s.read("succ", np.where(meet & ~ps, outer, NONE)))
            link, outer = np.where(meet, beyond, outer), np.where(meet, NONE, outer)
        fa = s.read("first", _pick(ps, a, skip))
        s.write("succ", _pick(ps, outer, h), _pick(ps, h, link))
        s.write("pred", _pick(ps, h, outer), _pick(ps, link, h))
        s.write("first", _pick(ps, h, skip), fa)
        s.write("slot", machine.cell(ra, ca), NONE)
        s.write("row", a, RETIRED)
        s.write("col", a, RETIRED)
        if state is None:
            s.write("weight", h, wa + s.read("weight", h))
        else:
            bits = machine.n.bit_length()
            far = _at(ps, a, state.pv, state.sv)
            far_row = _at(ps, a, state.row_p, state.row_s)
            # in a meeting the host's new neighbor is the other host,
            # and the far neighbor, absorbed too, hears nothing
            new, new_row = _pick(meet, link, far), _pick(meet, meet_row, far_row)
            to_host = ((wa << bits) + new + 1) * 2 + np.where(new != NONE, new_row, 0)
            to_far = (h + 1) * 2 + _at(ps, a, state.row_s, state.row_p)
            far = _pick(meet, skip, far)
            inbox = [scratch(machine, st) for st in INBOX]
            s.write(inbox[PRED_SIDE], _pick(ps, h, far), _pick(ps, to_host, to_far))
            s.write(inbox[SUCC_SIDE], _pick(ps, far, h), _pick(ps, to_far, to_host))
    return wa, far


def _refresh_step(machine: Machine, state: PassState, h, sd, far, phase):
    """The refresh step of contract_batch: hosts read their side-d
    inbox and far neighbors the other one (a task that is both, or a
    host on both sides, reads both) into their registers, and each
    host adds the weights it took."""
    got = np.zeros(state.row.size, dtype=np.int8)
    for d in (PRED_SIDE, SUCC_SIDE):
        on = sd == d
        got[h[on]] |= 1 << d
        got[far[on & (far != NONE)]] |= 1 << (1 - d)
    t = np.flatnonzero(got)
    got = got[t]
    bits = machine.n.bit_length()
    with machine.engine.step(f"{phase}/refresh", t.size) as s:
        add = np.zeros(t.size, dtype=np.int64)
        for d, store in zip((PRED_SIDE, SUCC_SIDE), INBOX):
            on = (got >> d) & 1 == 1
            msg = s.read(store, t if on.all() else np.where(on, t, NONE))[on]
            nbr, row = state.side(d)
            rest = (msg >> 1) & ((1 << bits) - 1)   # id + 1, 0 for NONE
            tt = t[on]
            nbr[tt] = rest - 1
            row[tt] = np.where(rest > 0, msg & 1, NONE)
            add[on] += msg >> (bits + 1)
        hosts = np.where(add > 0, t, NONE)
        s.write("weight", hosts, s.read("weight", hosts) + add)


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


def pool_nodes(machine: Machine, nodes, cells, phase, state=None):
    """Take nodes out of the array in one write step: clear their cells
    and set their row and col to POOLED. Their links stay intact, and
    pointer jumping finishes their lists; with a PassState, they leave
    its live tasks too."""
    with machine.engine.step(f"{phase}/out_wr", np.size(nodes)) as s:
        s.write("slot", cells, NONE)
        s.write("row", nodes, POOLED)
        s.write("col", nodes, POOLED)
    if state is not None:
        state.drop(nodes, POOLED)


def move_nodes(machine: Machine, nodes, frm, to, phase):
    """Move each node from the slot cell frm[i] that holds it to the
    vacant cell to[i], in one step: the caller already holds both
    cells, from the read or the plan that chose the node."""
    row, col = np.divmod(to, machine.columns)
    with machine.engine.step(f"{phase}/move_wr", np.size(nodes)) as s:
        s.write("slot", frm, NONE)
        s.write("slot", to, nodes)
        s.write("row", nodes, row)
        s.write("col", nodes, col)
