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
from .steps import contract_batch, double, restricted_neighbors

MIN_RUN = 100


def localize(machine: Machine, min_run=MIN_RUN, phase="localize"):
    """Absorb short runs into the other row, then cut remaining cross links.

    Phase (a) handles lower-row runs, phase (b) upper-row runs; after
    both, every non-cut link joins two nodes of the same row.
    """
    _absorb_short_runs(machine, target_row=1, min_run=min_run, phase=f"{phase}/a")
    _absorb_short_runs(machine, target_row=0, min_run=min_run, phase=f"{phase}/b")
    _cut_cross_links(machine, phase=f"{phase}/cut")


def _absorb_short_runs(machine: Machine, target_row, min_run, phase):
    eng = machine.engine
    ids = machine.in_array_ids()
    if ids.size == 0:
        return
    sv, pv = restricted_neighbors(machine, ids, phase)
    with eng.step(f"{phase}/rows", ids.size) as s:
        my_row = s.read("row", ids)
    with eng.step(f"{phase}/row_s", ids.size) as s:
        row_s = s.read("row", sv)
    with eng.step(f"{phase}/row_p", ids.size) as s:
        row_p = s.read("row", pv)

    on_row = my_row == target_row
    run_start = on_row & ((pv == NONE) | (row_p != target_row))
    run_end = on_row & ((sv == NONE) | (row_s != target_row))
    # flank exists when the neighbor beyond the run boundary sits on
    # the other row (rather than the list simply ending)
    start_flank = run_start & (pv != NONE) & (row_p != target_row)
    end_flank = run_end & (sv != NONE) & (row_s != target_row)

    # every flank is on the target row, and a run without one is never
    # short, so with no flank the distances would go unused
    if not (start_flank | end_flank).any():
        return
    sel = np.flatnonzero(on_row)
    # a run shorter than min_run has every node within min_run - 2
    # hops of both its ends, which ceil(log2 min_run) rounds resolve
    limit = max(0, min_run - 1).bit_length()
    pos, head_flag = _boundary_distance(machine, ids[sel], np.where(run_start[sel], NONE, pv[sel]),
                                        start_flank[sel], limit, f"{phase}/dhead")
    rem, tail_flag = _boundary_distance(machine, ids[sel], np.where(run_end[sel], NONE, sv[sel]),
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

    nodes = ids[sel]
    for k in range(max_step + 1):
        left_k = np.flatnonzero(to_left & (step_idx == k))
        if left_k.size:
            with eng.step(f"{phase}/hostL{k}", left_k.size) as s:
                hosts = s.read("pred", nodes[left_k])
            contract_batch(machine, nodes[left_k], hosts, SUCC_SIDE, f"{phase}/L{k}")
        right_k = np.flatnonzero(to_right & (step_idx == k))
        if right_k.size:
            with eng.step(f"{phase}/hostR{k}", right_k.size) as s:
                hosts = s.read("succ", nodes[right_k])
            contract_batch(machine, nodes[right_k], hosts, PRED_SIDE, f"{phase}/R{k}")


def _boundary_distance(machine: Machine, ids, back, boundary_flag, limit, phase):
    """Distance to the run boundary and the boundary's flank flag.

    back[i] is the in-run neighbor toward the boundary (NONE at the
    boundary itself). Entries more than 2**limit - 1 hops from the
    boundary return NONE, which classifies the run as long.
    """
    j, (d, f), _, _ = double(machine, "run", ids,
                             (back, [np.where(back != NONE, 1, 0), boundary_flag.astype(np.int64)]),
                             (np.add, np.maximum), limit, phase)
    done = j == NONE
    return np.where(done, d, NONE), done & (f == 1)


def _cut_cross_links(machine: Machine, phase):
    eng = machine.engine
    ids = machine.in_array_ids()
    if ids.size == 0:
        return
    with eng.step(f"{phase}/nbr", ids.size) as s:
        sv = s.read("succ", ids)
        my_row = s.read("row", ids)
    with eng.step(f"{phase}/rows", ids.size) as s:
        row_s = s.read("row", sv)
    cross = (sv != NONE) & (row_s != my_row) & (row_s >= 0)
    if cross.any():
        with eng.step(f"{phase}/mark", int(cross.sum())) as s:
            s.write("cut", ids[cross], 1)


def clear_cuts(machine: Machine, phase="uncut"):
    ids = np.flatnonzero(machine.peek("cut") == 1)
    if ids.size:
        with machine.engine.step(f"{phase}/clear", ids.size) as s:
            s.write("cut", ids, 0)
