"""Confine every list to single-row runs of the two-row array.

Short runs (fewer than min_run nodes on one row, with a node of the
other row next to one of their ends, a *flank*) are contracted into
their flanks, split at the run midpoint. Each node of a short run
needs its distance to both ends of its run and whether each end is
flanked. A one-node run reads all of that in its own registers.
Longer runs get one of two classifiers, whichever the host's counts
price lower:

- the flank walk: one walker per run of two or more nodes starts at
  the run's first node and hops along it, one step per hop, writing
  its hop count into every node it stands on. It stops at the run's
  far end, or once min_run nodes show the run is long. A short run's
  walker then walks back, writing the run length and the two flank
  flags into every node. Walkers of different runs touch disjoint
  cells, and a run starting at a list head walks too, since its end
  cannot tell locally whether its start is flanked;
- run-distance doubling: every target-row node finds its distance to
  both ends of its run by pointer doubling capped at
  ceil(log2 min_run) rounds, so a node whose end lies farther is on a
  long run.

Both classify any min_run exactly. A short run then goes into its
flanks in log-depth waves: each half counts its nodes q = 1, 2, ...
from its flank, and wave j absorbs the nodes whose q has lowest set
bit 2**j into their register neighbor toward the flank, so a half of
h nodes takes ceil(log2(h + 1)) waves, both halves of every run in one
contract step and one refresh step per wave. A list the waves leave
as one node is pooled. Links that still cross rows afterwards are
virtually deleted: both ends drop them from their pass registers,
memory keeps them, and the next pass reads them again.
"""

from __future__ import annotations

import numpy as np

from .model import Machine, PRED_SIDE, SUCC_SIDE
from .pram import NONE
# restricted_neighbors stays importable here for bench/tracing.py
from .steps import (PassState, contract_batch, double, pool_nodes,  # noqa: F401
                    restricted_neighbors, scratch)

MIN_RUN = 100


def localize(machine: Machine, state: PassState, min_run=MIN_RUN, phase="localize"):
    """Absorb short runs into the other row, pool the lists that leaves
    as one node (pairing would leave them colored and unpaired), then
    cut the remaining cross links in the pass registers. Returns the
    number pooled.

    Phase (a) handles lower-row runs, phase (b) upper-row runs; after
    both, every link left in the registers joins two nodes of the same
    row. Links, rows and cells come from the pass state, which
    contract_batch keeps current. With min_run >= 2 the cut leaves no
    node without a link, since a one-node run with a flank is short.
    """
    _absorb_short_runs(machine, state, target_row=1, min_run=min_run, phase=f"{phase}/a")
    _absorb_short_runs(machine, state, target_row=0, min_run=min_run, phase=f"{phase}/b")
    ids = state.live()
    lone = ids[(state.sv[ids] == NONE) & (state.pv[ids] == NONE)]
    if lone.size:
        pool_nodes(machine, lone, machine.cell(state.row[lone], state.col[lone]),
                   f"{phase}/lone", state)
    _cut_cross_links(state)
    return int(lone.size)


def _run_ends(state: PassState, target_row):
    """The live target-row nodes, and per node whether it starts and
    whether it ends its run, and whether that start or end is flanked
    (its neighbor beyond sits on the other row rather than the list
    ending there); all from the node's registers."""
    nodes = state.live()
    nodes = nodes[state.row[nodes] == target_row]
    row_s, row_p = state.row_s[nodes], state.row_p[nodes]   # NONE without a neighbor
    start, end = row_p != target_row, row_s != target_row
    return nodes, start, end, start & (row_p != NONE), end & (row_s != NONE)


def _walkers(start, end, min_run):
    """Positions of the run starts that walk: every run of two or more
    nodes, when such a run can be short."""
    return np.flatnonzero(start & ~end) if min_run > 2 else np.empty(0, dtype=np.int64)


def walk_is_cheaper(walkers, tasks, p, min_run):
    """Whether the flank walk's rounds bound, 2 (min_run - 1) + 1 steps
    of walkers tasks, is at most the doubling's, two doublings of
    (min_run - 1).bit_length() + 1 steps of tasks each."""
    limit = max(0, min_run - 1).bit_length()
    return (2 * (min_run - 1) + 1) * -(-walkers // p) <= 2 * (limit + 1) * -(-tasks // p)


def _absorb_short_runs(machine: Machine, state: PassState, target_row, min_run, phase):
    nodes, start, end, start_flank, end_flank = _run_ends(state, target_row)
    # a run without a flank is never short
    if not (start_flank | end_flank).any():
        return
    if walk_is_cheaper(_walkers(start, end, min_run).size, nodes.size,
                       machine.config.num_processors, min_run):
        classify = classify_by_walk
    else:
        classify = classify_by_doubling
    to_left, wave, meet_row = _plan_waves(*classify(machine, state, target_row, min_run, phase),
                                          target_row)
    for j in range(int(wave.max()) + 1):
        on = wave == j
        a = nodes[on]
        contract_batch(machine, a, np.where(to_left[on], state.pv[a], state.sv[a]),
                       np.where(to_left[on], SUCC_SIDE, PRED_SIDE), f"{phase}/w{j}", state,
                       meet_row[on])


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


def classify_by_walk(machine: Machine, state: PassState, target_row, min_run, phase):
    """Classify the target-row runs with one walker per run.

    Returns (pos, rem, head_flag, tail_flag, short) over the live
    target-row nodes, in _run_ends order: the distances to the run's
    start and end and the flags of those ends, exact wherever short is
    set, which it is on every node of a flanked run of fewer than
    min_run nodes.

    Each step serves every walker still going. A forward walker stands
    on hop k of its run and knows the next node from the last read
    (from its registers at the start); it reads that node's row and
    successor, and writes k into the node it stands on. A next node
    off the row makes this one the run's far end: a short run's walker
    writes the run word 4 L + 2 tail + head (length, end and start
    flank flags) here in the same step, then walks back, one step per
    hop, reading the pred of the node it stands on and writing the
    word there. No link is cut while localization runs, so memory's
    succ and pred are the state's links.
    """
    eng = machine.engine
    nodes, start, end, start_flank, end_flank = _run_ends(state, target_row)
    hop = np.where(start, 0, NONE)
    word = np.where(start & end & (start_flank | end_flank) & (min_run > 1),
                    4 + 2 * end_flank + start_flank, NONE)
    fwd = nodes[_walkers(start, end, min_run)]
    if fwd.size:   # the loop below runs only then; its stores cost n cells each
        hop_st, run_st = scratch(machine, "walk_hop"), scratch(machine, "walk_run")
        index = np.full(state.row.size, NONE, dtype=np.int64)   # node -> place in nodes
        index[nodes] = np.arange(nodes.size)
        nxt, head = state.sv[fwd], start_flank[index[fwd]].astype(np.int64)
    back = back_word = np.empty(0, dtype=np.int64)
    k = 0
    while fwd.size or back.size:
        f, b = fwd.size, back.size
        with eng.step(f"{phase}/walk{k}", f + b) as s:
            ahead, behind = np.r_[nxt, np.full(b, NONE)], np.r_[np.full(f, NONE), back]
            row = s.read("row", ahead)[:f]
            link = s.read("succ", ahead)[:f]
            prv = s.read("pred", behind)[f:]
            on = row == target_row
            ends = ~on & ((nxt != NONE) | (head == 1))
            end_word = 4 * (k + 1) + 2 * (nxt != NONE) + head
            s.write(hop_st, np.r_[fwd, np.full(b, NONE)], k)
            s.write(run_st, np.r_[np.where(ends, fwd, NONE), prv],
                    np.r_[end_word, back_word])
        hop[index[fwd]] = k
        word[index[fwd[ends]]] = end_word[ends]
        word[index[prv]] = back_word
        # a walker k + 1 hops in with the next node on the row has seen
        # k + 2 nodes; at min_run of them the run is long
        go = on & (k + 2 < min_run)
        back_more = prv[hop[index[prv]] > 0]
        back_word = np.r_[word[index[back_more]], end_word[ends & (k > 0)]]
        back = np.r_[back_more, fwd[ends & (k > 0)]]
        fwd, nxt, head = nxt[go], link[go], head[go]
        k += 1

    short = word != NONE
    length = word >> 2
    pos = np.where(short, hop, NONE)
    return (pos, np.where(short, length - 1 - hop, NONE),
            short & (word & 1 == 1), short & (word >> 1 & 1 == 1), short)


def classify_by_doubling(machine: Machine, state: PassState, target_row, min_run, phase):
    """Classify the target-row runs by run-distance doubling over
    every target-row node; returns what classify_by_walk returns."""
    nodes, start, end, start_flank, end_flank = _run_ends(state, target_row)
    # a run shorter than min_run has every node within min_run - 2
    # hops of both its ends, which ceil(log2 min_run) rounds resolve
    limit = max(0, min_run - 1).bit_length()
    pos, head_flag = _boundary_distance(machine, nodes, np.where(start, NONE, state.pv[nodes]),
                                        start_flank, limit, f"{phase}/dhead")
    rem, tail_flag = _boundary_distance(machine, nodes, np.where(end, NONE, state.sv[nodes]),
                                        end_flank, limit, f"{phase}/dtail")
    resolved = (pos != NONE) & (rem != NONE)
    length = np.where(resolved, pos + rem + 1, NONE)
    short = resolved & (length < min_run) & (head_flag | tail_flag)
    return pos, rem, head_flag, tail_flag, short


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
