"""Shared engine-step building blocks used by the pipeline phases."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import INBOX, ContractBatch, Machine, PRED_SIDE, SUCC_SIDE, RETIRED
from .pram import NONE


def scratch(machine: Machine, name, size=None):
    """Scratch store of size cells, machine.n by default."""
    return machine.memory.scratch(name, machine.n if size is None else int(size))


def double(machine: Machine, name, ids, seed, ufuncs, limit=None, phase="double"):
    """Pointer doubling of tasks ids along their pointers j.

    seed is (j, values), one values array per ufunc, or a function
    that reads them inside the init step and returns them. Each round
    is one step of ids.size tasks: every task whose pointer is live
    reads j and the values at j from one buffer, folds them into its
    own values by the associative ufunc, and every task writes its
    state at ids into the other buffer. A value only the root should
    pass on is folded by np.maximum from the root's value, NONE
    elsewhere. Stops when every pointer has run out, or after limit
    rounds. Returns (j, values, stores, rounds); stores names the
    pointer store and the value stores holding the result. Pointers
    must stay within ids.
    """
    eng = machine.engine
    k = ids.size
    size = max(machine.n, int(ids.max(initial=-1)) + 1)
    bufs = [[scratch(machine, f"{name}_{f}{b}", size)
             for f in ["j"] + [f"v{i}" for i in range(len(ufuncs))]] for b in (0, 1)]
    with eng.step(f"{phase}/init", k) as s:
        j, values = seed(s) if callable(seed) else seed
        for st, v in zip(bufs[0], [j, *values]):
            s.write(st, ids, v)
    rounds = 0
    while limit is None or rounds < limit:
        live = j != NONE
        if not live.any():
            break
        src, dst = bufs[rounds % 2], bufs[(rounds + 1) % 2]
        with eng.step(f"{phase}/r{rounds}", k) as s:
            got = [s.read(st, j) for st in src]
            j = np.where(live, got[0], j)
            values = [np.where(live, f(v, g), v) for f, v, g in zip(ufuncs, values, got[1:])]
            for st, v in zip(dst, [j, *values]):
                s.write(st, ids, v)
        rounds += 1
    return j, values, bufs[rounds % 2], rounds


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
    link), the row, and the rows of those two neighbors (NONE where
    they are); memory holds no cut. contract_batch keeps them current
    and, as in memory, retires the row of every task of ids it absorbs.
    """

    ids: np.ndarray
    sv: np.ndarray
    pv: np.ndarray
    row: np.ndarray
    row_s: np.ndarray
    row_p: np.ndarray

    def live(self):
        return self.ids[self.row[self.ids] >= 0]

    def side(self, d):
        return (self.pv, self.row_p) if d == PRED_SIDE else (self.sv, self.row_s)


def contract_batch(machine: Machine, absorbed, host, side, phase, state=None):
    """Contract absorbed[i] into adjacent host[i], all pairs independent.

    side is PRED_SIDE when the absorbed node precedes its host. Hosts
    must be distinct; absorbed and host sets must not overlap. Its row
    alone records that an absorbed node is retired. With a PassState,
    each absorbed task forwards its far neighbor and that neighbor's
    row to its host, and its host and the host's row to the far
    neighbor, through inbox cells the receivers own; a far neighbor
    across a cut link is NONE there, so the link stays cut.
    """
    a = np.asarray(absorbed, dtype=np.int64)
    h = np.asarray(host, dtype=np.int64)
    side_arr = np.broadcast_to(np.asarray(side, dtype=np.int64), a.shape)
    eng = machine.engine
    if state is not None:
        # a receiver's new neighbor on side d arrives in inbox[d], packed
        # with that neighbor's row (0 or 1) as 2 * id + row
        inbox = [scratch(machine, st) for st in INBOX]
    for sd in (PRED_SIDE, SUCC_SIDE):
        m = side_arr == sd
        if not m.any():
            continue
        aa, hh = a[m], h[m]
        with eng.step(f"{phase}/contract", aa.size) as s:
            wa = s.read("weight", aa)
            wh = s.read("weight", hh)
            ra = s.read("row", aa)
            ca = s.read("col", aa)
            outer = s.read("pred" if sd == PRED_SIDE else "succ", aa)
            if sd == PRED_SIDE:
                fa = s.read("first", aa)
                s.write("succ", outer, hh)
                s.write("pred", hh, outer)
                s.write("first", hh, fa)
            else:
                s.write("pred", outer, hh)
                s.write("succ", hh, outer)
            s.write("weight", hh, wa + wh)
            s.write("slot", machine.cell(ra, ca), NONE)
            s.write("row", aa, RETIRED)
            s.write("col", aa, RETIRED)
            if state is not None:
                (far, far_row), (_, host_row) = state.side(sd), state.side(1 - sd)
                far, far_row, host_row = far[aa], far_row[aa], host_row[aa]
                s.write(inbox[sd], hh, np.where(far != NONE, 2 * far + far_row, NONE))
                s.write(inbox[1 - sd], far, 2 * hh + host_row)
        machine.log.append(
            ContractBatch(absorbed=aa.copy(), host=hh.copy(),
                          side=np.full(aa.size, sd), weight=wa.copy())
        )
        if state is not None:
            # hosts read their side-sd inbox and far neighbors the other
            # one; a task that is both reads both
            state.row[aa] = RETIRED
            got = np.zeros(state.row.size, dtype=np.int8)
            got[hh] |= 1 << sd
            got[far[far != NONE]] |= 1 << (1 - sd)
            t = np.flatnonzero(got)
            with eng.step(f"{phase}/refresh", t.size) as s:
                for d in (PRED_SIDE, SUCC_SIDE):
                    on = got[t] >> d & 1 == 1
                    msg = s.read(inbox[d], np.where(on, t, NONE))[on]
                    nbr, row = state.side(d)
                    nbr[t[on]], row[t[on]] = msg >> 1, np.where(msg != NONE, msg & 1, NONE)


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
