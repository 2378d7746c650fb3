"""Confine every list to single-row runs of the two-row array.

Short runs (fewer than min_run nodes on one row) are contracted into
the flanking nodes of the other row, split at the run midpoint. Each
node finds its distance to both ends of its run by pointer doubling
capped at ceil(log2 min_run) rounds: a short run has every node fewer
than min_run hops from both ends, so a node whose end lies farther is
on a long run, and any min_run is classified exactly. Links
that still cross rows afterwards are virtually deleted: they get a cut
flag, the lists are never physically severed, and the flags are
cleared once the contraction pass finishes.
"""

from __future__ import annotations

import numpy as np

from .model import Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
# restricted_neighbors stays importable here for bench/tracing.py
from .steps import PassState, contract_batch, double, restricted_neighbors  # noqa: F401

MIN_RUN = 100


def localize(machine: Machine, state: PassState, min_run=MIN_RUN, phase="localize"):
    """Absorb short runs into the other row, then cut remaining cross links.

    Phase (a) handles lower-row runs, phase (b) upper-row runs; after
    both, every non-cut link joins two nodes of the same row. Links
    and rows come from the pass state, which contract_batch keeps current.
    """
    _absorb_short_runs(machine, state, target_row=1, min_run=min_run, phase=f"{phase}/a")
    _absorb_short_runs(machine, state, target_row=0, min_run=min_run, phase=f"{phase}/b")
    _cut_cross_links(machine, state, phase=f"{phase}/cut")


def _absorb_short_runs(machine: Machine, state: PassState, target_row, min_run, phase):
    ids = state.live()
    row_s, row_p = state.row_s[ids], state.row_p[ids]   # NONE without a neighbor

    on_row = state.row[ids] == target_row
    run_start = on_row & (row_p != target_row)
    run_end = on_row & (row_s != target_row)
    # flank exists when the neighbor beyond the run boundary sits on
    # the other row (rather than the list simply ending)
    start_flank = run_start & (row_p != NONE)
    end_flank = run_end & (row_s != NONE)

    # every flank is on the target row, and a run without one is never
    # short, so with no flank the distances would go unused
    if not (start_flank | end_flank).any():
        return
    sel = np.flatnonzero(on_row)
    nodes = ids[sel]
    # a run shorter than min_run has every node within min_run - 2
    # hops of both its ends, which ceil(log2 min_run) rounds resolve
    limit = max(0, min_run - 1).bit_length()
    pos, head_flag = _boundary_distance(machine, nodes, np.where(run_start[sel], NONE, state.pv[nodes]),
                                        start_flank[sel], limit, f"{phase}/dhead")
    rem, tail_flag = _boundary_distance(machine, nodes, np.where(run_end[sel], NONE, state.sv[nodes]),
                                        end_flank[sel], limit, f"{phase}/dtail")

    resolved = (pos != NONE) & (rem != NONE)
    length = np.where(resolved, pos + rem + 1, NONE)
    short = resolved & (length < min_run) & (head_flag | tail_flag)
    if not short.any():
        return

    half = -(-length // 2)  # ceil; left half gets the extra node
    to_left = short & head_flag & ((pos < half) | ~tail_flag)
    to_right = short & tail_flag & ~to_left
    step_idx = np.where(to_left, pos, np.where(to_right, rem, NONE))
    max_step = int(step_idx.max()) if (step_idx != NONE).any() else -1

    # wave k absorbs the nodes k hops from their run's end into the
    # flank; by then the flank is their neighbor in the state
    for k in range(max_step + 1):
        for to, side, host in ((to_left, SUCC_SIDE, state.pv), (to_right, PRED_SIDE, state.sv)):
            a = nodes[to & (step_idx == k)]
            contract_batch(machine, a, host[a], side, f"{phase}/{'RL'[side]}{k}", state)


def _boundary_distance(machine: Machine, ids, back, boundary_flag, limit, phase):
    """Distance to the run boundary and the boundary's flank flag.

    back[i] is the in-run neighbor toward the boundary (NONE at the
    boundary itself). Entries more than 2**limit - 1 hops from the
    boundary return NONE, which classifies the run as long.
    """
    if (back == NONE).all():
        # every node is its own boundary
        return np.zeros(ids.size, dtype=np.int64), boundary_flag
    j, (d, f), _, _ = double(machine, "run", ids,
                             (back, [np.where(back != NONE, 1, 0), boundary_flag.astype(np.int64)]),
                             (np.add, np.maximum), limit, phase)
    done = j == NONE
    return np.where(done, d, NONE), done & (f == 1)


def _cut_cross_links(machine: Machine, state: PassState, phase):
    """Cut every link whose ends sit on different rows. Both ends see
    it in their own row registers, so the cut needs no read."""
    ids = state.live()
    row = state.row[ids]
    cross_s = ids[(state.row_s[ids] >= 0) & (state.row_s[ids] != row)]
    cross_p = ids[(state.row_p[ids] >= 0) & (state.row_p[ids] != row)]
    with machine.engine.step(f"{phase}/mark", cross_s.size) as s:
        s.write("cut", cross_s, 1)
    state.sv[cross_s] = state.row_s[cross_s] = NONE
    state.pv[cross_p] = state.row_p[cross_p] = NONE


def clear_cuts(machine: Machine, phase="uncut"):
    ids = np.flatnonzero(machine.peek("cut") == 1)
    if ids.size:
        with machine.engine.step(f"{phase}/clear", ids.size) as s:
            s.write("cut", ids, 0)
