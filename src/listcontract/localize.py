"""Confine every list to single-row runs of the two-row array.

A run is a maximal stretch of a list on one row; a *flank* is a node
of the other row next to one of its ends. Short runs are contracted
into their flanks, split at the run midpoint. Phase (a) takes the
lower-row runs of fewer than min_run nodes with a flank; phase (b)
takes only the upper-row runs of one node with a flank. Phase (a) has
absorbed every short flanked lower run by then, so each flank phase
(b) sees belongs to a long lower run, and an upper run of two or more
nodes is cut from its flanks and becomes a chain of its own, which
pairing and the pack handle like any chain; the cut would leave a
one-node run without a link, so that one must go.

Each node of a short run needs its distance to both ends of its run
and whether each end is flanked. A one-node run reads all of that in
its own registers, so phase (b) walks no run. Longer lower runs are
classified by the flank walk: two walkers per run of two or more
nodes, one from each end, hop toward the other end at once, one step
per hop. A walker marks every node it reaches with its
hop count and its end's flank flag, and learns the next node and its
row from the node's own neighbor message: the start walker reads
inbox_s, the end walker inbox_p, so the two never read one cell, even
on the middle node of an odd run, which both reach in one step. A
walker stops at the run's far end, or after min_run - 2 steps, which
reach every node of a run shorter than min_run. A node both walkers
reached knows its run length and both flank flags, so a run of L nodes
is classified in L - 1 steps. Walkers of different runs touch disjoint
cells, and a run ending at a list end walks too, since its other end
cannot tell locally whether that end is flanked.

The walk needs every node's inbox_s and inbox_p cells to name its
successor and predecessor and their rows (no neighbor at a list end):
the pool's wide step leaves them so, written by each node itself after
the layout and by the previous pass's fold after a fold, and each
contract step sends a host and the far neighbor of the node it absorbs
their new neighbors, which wait there until each receiver drains them.
A short run then goes into its flanks in log-depth waves: each half
counts its nodes q = 1, 2, ... from its flank, and wave j absorbs the
nodes whose q has lowest set bit 2**j into their neighbor toward the
flank, so a half of h nodes takes ceil(log2(h + 1)) waves, both halves
of every run in one contract step per wave. In that step each node
first drains the messages of the earlier waves and reads its own walk
marks, and takes its host and side from those reads. What still waits
when localization ends is drained by settle, in the first coloring
step: a list the waves leave as one node pools itself there, and
links that still cross rows are virtually deleted: both ends drop
them from their pass registers, memory keeps them, and the next pass
reads them again.
"""

from __future__ import annotations

import numpy as np

from .model import INBOX, Machine, POOLED, PRED_SIDE, SUCC_SIDE
from .pram import NONE
# restricted_neighbors stays importable here for bench/tracing.py
from .steps import (PassState, contract_batch, drain, pool_writes, read_neighbor,  # noqa: F401
                    restricted_neighbors, scratch)

MIN_RUN = 100


def check_min_run(min_run):
    """Refuse a min_run below 2: a one-node run with a flank must be
    short, or localization can leave a node of a longer list without a
    link."""
    if min_run < 2:
        raise ValueError(f"min_run must be at least 2, got {min_run}")


def localize(machine: Machine, state: PassState, min_run=MIN_RUN, phase="localize"):
    """Absorb short runs into the other row. The lists this leaves as
    one node are pooled, and the remaining cross links cut, by settle in
    the first coloring step, where every task reads the messages still
    waiting for it.

    Phase (a) absorbs the flanked lower-row runs of fewer than min_run
    nodes, phase (b) the flanked one-node upper-row runs, with no walk;
    after both, every link left joins two nodes of the same row or
    crosses rows. Links, rows and cells come from the pass state, whose
    registers each task updates from its inbox in its own contract step.
    min_run must be at least 2, so that the cut leaves no node without
    a link.
    """
    check_min_run(min_run)
    _absorb_short_runs(machine, state, target_row=1, min_run=min_run, phase=f"{phase}/a")
    _absorb_short_runs(machine, state, target_row=0, min_run=2, phase=f"{phase}/b")


def settle(s, machine: Machine, state: PassState):
    """The end of localization, in step s of the live tasks of state, in
    their order: each reads the messages still waiting in its inbox, a
    task then alone in its list pools itself, and every other one cuts
    the links whose ends sit on different rows, in its registers alone.
    Returns the mask of the tasks that stay."""
    ids = state.live()
    drain(s, machine, state, ids)
    lone = (state.sv[ids] == NONE) & (state.pv[ids] == NONE)
    if lone.any():
        pool_writes(s, np.where(lone, ids, NONE),
                    machine.cell(np.where(lone, state.row[ids], NONE), state.col[ids]))
        state.drop(ids[lone], POOLED)
    _cut_cross_links(state)
    return ~lone


def _run_ends(state: PassState, target_row):
    """The live target-row nodes, and per node whether it starts and
    whether it ends its run, and whether that start or end is flanked
    (its neighbor beyond sits on the other row rather than the list
    ending there); all from the node's registers. A side whose message
    waits unread may start or end the run but flanks nothing: it names
    a target-row node or none (phase (a) absorbs whole lower runs)."""
    nodes = state.live()
    nodes = nodes[state.row[nodes] == target_row]
    wait_p, wait_s = (((state.pending[nodes] >> d) & 1 == 1) for d in (PRED_SIDE, SUCC_SIDE))
    row_s, row_p = state.row_s[nodes], state.row_p[nodes]   # NONE without a neighbor
    start, end = wait_p | (row_p != target_row), wait_s | (row_s != target_row)
    return (nodes, start, end, start & ~wait_p & (row_p != NONE),
            end & ~wait_s & (row_s != NONE))


def _absorb_short_runs(machine: Machine, state: PassState, target_row, min_run, phase):
    """Absorb the target-row runs of fewer than min_run nodes that have
    a flank into their flanks, in log-depth waves; min_run 2 takes only
    the one-node runs and runs no walk.

    The walk's classes schedule the waves. Each task of a wave's
    contract step then drains its inbox and reads its own walk marks,
    and plans its absorption from those reads and its registers alone
    (_read_classes); a task that finds it is no short run contracts
    nothing, as a phase (b) node does whose unread side names a node of
    its own row."""
    nodes, _, _, start_flank, end_flank = ends = _run_ends(state, target_row)
    # a run without a flank is never short
    if not (start_flank | end_flank).any():
        return
    *classes, stamp = classify_by_walk(machine, state, target_row, ends, min_run, phase)
    # without a walk every short run is one node, absorbed in wave 0
    wave = (_plan_waves(*classes, target_row)[1] if stamp is not None
            else np.where(classes[4], 0, NONE))
    for j in range(int(wave.max()) + 1):
        plan = _wave_plan(machine, state, nodes[wave == j], target_row, min_run, stamp)
        contract_batch(machine, nodes[wave == j], None, plan, f"{phase}/w{j}", state)


def _wave_plan(machine: Machine, state: PassState, a, target_row, min_run, stamp):
    """The side function of a wave's contract step over tasks a: each
    goes toward the flank of its half, meeting the other half's
    frontier where _plan_waves says, from its own reads (_read_classes)."""
    def plan(s):
        classes = _read_classes(s, machine, state, a, target_row, min_run, stamp)
        if stamp is None:   # one-node runs alone: each goes to a flank, and none meets
            to_left, meet_row = classes[2], np.full(a.size, NONE)
        else:
            to_left, _, meet_row = _plan_waves(*classes, target_row)
        return np.where(classes[4], np.where(to_left, SUCC_SIDE, PRED_SIDE), NONE), meet_row
    return plan


def _read_classes(s, machine: Machine, state: PassState, a, target_row, min_run, stamp):
    """What classify_by_walk gives the target-row tasks a, as each reads
    it in step s once drained: a run end knows its distance, 0, and its
    flank flag from its registers, and every other node of a short run
    from the marks the walk left in its walk_pos and walk_rem cells,
    which the walk's stamp (None where no walk ran) tells from the
    marks of earlier walks."""
    row_p, row_s = state.row_p[a], state.row_s[a]
    start, end = row_p != target_row, row_s != target_row
    pos, rem = np.where(start, 0, NONE), np.where(end, 0, NONE)
    head, tail = start & (row_p != NONE), end & (row_s != NONE)
    if stamp is not None:
        for store, dist, flag in (("walk_pos", pos, head), ("walk_rem", rem, tail)):
            mark = s.read(store, a)
            hops = (mark >> 1) - stamp
            fresh = hops > 0
            dist[fresh], flag[fresh] = hops[fresh], mark[fresh] & 1 == 1
    short = (pos != NONE) & (rem != NONE) & (pos + rem + 1 < min_run) & (head | tail)
    return (np.where(short, pos, NONE), np.where(short, rem, NONE), short & head,
            short & tail, short)


def _plan_waves(pos, rem, head_flag, tail_flag, short, target_row):
    """Each target-row node's absorption wave (NONE off short runs),
    whether it goes to the left flank, and, where its half meets the
    other one in that wave, the row of the other frontier's host (NONE
    elsewhere); from the classifier's outputs alone.

    A short run splits at its midpoint, and each half counts its nodes
    q = 1, 2, ... from its flank. Wave j absorbs the nodes whose q has
    lowest set bit 2**j into their neighbor toward the flank, which
    after the earlier waves is the node at q - 2**j (the flank at 0)
    and stays this wave: a host takes at most one node per side. The
    two halves' frontiers (their farthest nodes left) meet when both
    go in one wave; the other frontier's host is the flank when that
    frontier sits at q = 2**j.
    """
    length = pos + rem + 1
    half = -(-length // 2)  # ceil; left half gets the extra node
    to_left = short & head_flag & ((pos < half) | ~tail_flag)
    to_right = short & tail_flag & ~to_left
    left = np.where(head_flag, np.where(tail_flag, half, length), 0)
    q = np.where(to_left, pos + 1, np.where(to_right, rem + 1, 0))
    low = q & -q
    wave = np.where(short, np.log2(np.maximum(low, 1)), NONE).astype(np.int64)  # exact on 2**j
    mine = np.where(to_left, left, length - left)   # the node's half, in nodes
    other = (length - mine) >> np.maximum(wave, 0)   # the other half, in units of 2**wave
    meets = short & (q + low > mine) & (other & 1 == 1)
    return to_left, wave, np.where(meets, np.where(other == 1, 1 - target_row, target_row), NONE)


def classify_by_walk(machine: Machine, state: PassState, target_row, ends, min_run, phase):
    """Classify the target-row runs with two walkers per run, one from
    each end; ends is what _run_ends gives for target_row.

    Returns (pos, rem, head_flag, tail_flag, short) over the live
    target-row nodes, in the order of ends: the distances to the run's
    start and end and the flags of those ends, exact wherever short is
    set, which it is on every node of a flanked run of fewer than
    min_run nodes; then the walk's stamp, None where no walk ran.

    A run end knows its own distance and flank flag from its registers,
    and its walker the first node to reach. Step k serves every walker
    still going: the walker k + 1 hops from its end writes k + 1 and its
    end's flank flag into the node it has reached (walk_pos from the
    start, walk_rem from the end) and reads that node's neighbor message
    on its side (inbox_s from the start, inbox_p from the end) for the
    next node and its row. A next node off the row, or none, makes the
    node the run's far end, and the walker stops. Each mark carries the
    stamp, the ledger index of the walk's first step times n, above
    every hop count, so a mark an earlier walk left in the store never
    passes for one of this walk.
    The classes schedule the absorption waves; each node of a short run
    reads its own marks in its wave's contract step (_read_classes).
    """
    eng = machine.engine
    nodes, start, end, start_flank, end_flank = ends
    pos, rem = np.where(start, 0, NONE), np.where(end, 0, NONE)
    head_flag, tail_flag = start & start_flank, end & end_flank
    # both ends of every run of two or more nodes walk, when such a run can be short
    walk = np.flatnonzero(start ^ end) if min_run > 2 else np.empty(0, dtype=np.int64)
    first, last = walk[start[walk]], walk[end[walk]]   # the walking run ends
    fwd_flag, bwd_flag = start_flank[first], end_flank[last]
    fwd, bwd = state.sv[nodes[first]], state.pv[nodes[last]]   # each walker's next node
    if walk.size:   # the loop below runs only then; its stores cost n cells each
        marks = [scratch(machine, "walk_pos"), scratch(machine, "walk_rem")]
        inbox = [scratch(machine, st) for st in INBOX]
        index = np.full(state.row.size, NONE, dtype=np.int64)   # node -> place in nodes
        index[nodes] = np.arange(nodes.size)
    stamp = len(eng.trace) * machine.n if walk.size else None
    # a run shorter than min_run has at most min_run - 2 hops
    for k in range(min_run - 2):
        f, b = fwd.size, bwd.size
        if f + b == 0:
            break
        with eng.step(f"{phase}/walk{k}", f + b) as s:
            at_f, at_b = np.r_[fwd, np.full(b, NONE)], np.r_[np.full(f, NONE), bwd]
            mark = (stamp + k + 1) * 2 + np.r_[fwd_flag, bwd_flag]
            s.write(marks[0], at_f, mark)
            s.write(marks[1], at_b, mark)
            nxt_f, row_f = read_neighbor(machine, s.read(inbox[SUCC_SIDE], at_f)[:f])
            nxt_b, row_b = read_neighbor(machine, s.read(inbox[PRED_SIDE], at_b)[f:])
        i, j = index[fwd], index[bwd]
        pos[i], head_flag[i] = k + 1, fwd_flag
        rem[j], tail_flag[j] = k + 1, bwd_flag
        go_f, go_b = row_f == target_row, row_b == target_row
        fwd, fwd_flag, bwd, bwd_flag = nxt_f[go_f], fwd_flag[go_f], nxt_b[go_b], bwd_flag[go_b]

    known = (pos != NONE) & (rem != NONE)
    short = known & (pos + rem + 1 < min_run) & (head_flag | tail_flag)
    return (np.where(short, pos, NONE), np.where(short, rem, NONE),
            short & head_flag, short & tail_flag, short, stamp)


def _cut_cross_links(state: PassState):
    """Cut every link whose ends sit on different rows, in the pass
    registers alone: both ends see it in their own row registers, so
    the cut takes no step."""
    ids = state.live()
    row = state.row[ids]
    cross_s = ids[(state.row_s[ids] >= 0) & (state.row_s[ids] != row)]
    cross_p = ids[(state.row_p[ids] >= 0) & (state.row_p[ids] != row)]
    state.sv[cross_s] = state.row_s[cross_s] = NONE
    state.pv[cross_p] = state.row_p[cross_p] = NONE


def clear_cuts(machine: Machine, phase="uncut"):
    """No-op, kept only because bench/tracing.py wraps it by name:
    cuts live in the pass registers, which die with the pass."""
