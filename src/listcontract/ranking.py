"""End-to-end list ranking pipelines and the rank-recovery replay.

list_rank contracts with repeated uniform passes until the active
count crosses the pointer-jumping threshold, ranks the survivors by
weighted pointer jumping, then replays the contraction log backward to
assign every original node its rank. wyllie_rank and sequential_rank
are the baselines the pipeline is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ForestFormatError
from .model import LinkedForest, Machine, layout, PRED_SIDE
from .localize import MIN_RUN
from .orientation import uniform_contraction_pass
from .pram import NONE, PramConfig
from .steps import double, scratch


@dataclass
class RankResult:
    rank: np.ndarray       # 0-based distance from the list head
    list_id: np.ndarray    # head node id per node

    def to_csv(self):
        lines = ["node_id,list_head,rank"]
        for i in range(self.rank.size):
            lines.append(f"{i},{int(self.list_id[i])},{int(self.rank[i])}")
        return "\n".join(lines) + "\n"

    def same_as(self, other):
        return (np.array_equal(self.rank, other.rank)
                and np.array_equal(self.list_id, other.list_id))


@dataclass
class RankRun:
    result: RankResult
    metrics: object
    passes: list = field(default_factory=list)
    jump_rounds: int = 0
    trace: list = field(default_factory=list)


def sequential_rank(forest: LinkedForest) -> RankResult:
    """Ground-truth traversal oracle; detects cycles."""
    n = forest.n
    rank = np.full(n, NONE, dtype=np.int64)
    head = np.full(n, NONE, dtype=np.int64)
    for h in forest.heads:
        v = int(h)
        r = 0
        while v != NONE:
            if rank[v] != NONE:
                raise ForestFormatError("cycle while ranking")
            rank[v] = r
            head[v] = int(h)
            r += 1
            v = int(forest.succ[v])
        if r > n:
            raise ForestFormatError("cycle while ranking")
    if (rank == NONE).any():
        raise ForestFormatError("nodes unreachable from any head")
    return RankResult(rank=rank, list_id=head)


def pointer_jump(machine: Machine, phase="jump"):
    """Weighted pointer jumping over the active nodes.

    Each active node learns its list head and the total weight of the
    active nodes before it, in ceil(log2 l) synchronous rounds of
    jumps along predecessor pointers. Returns (ids, before, head,
    rounds).
    """
    ids = machine.active_ids()
    w = None

    def seed(s):
        # the weight folds inclusively, so before = d - weight
        nonlocal w
        pv = s.read("pred", ids)
        first = s.read("first", ids)
        w = s.read("weight", ids)
        return pv, [w, np.where(pv == NONE, first, NONE)]

    _, (d, head), _, rounds = double(machine, "pj", ids, seed, (np.add, np.maximum),
                                     phase=phase)
    return ids, d - w, head, rounds


def contract_to_threshold(machine: Machine, threshold=None, max_passes=64,
                          min_run=MIN_RUN, phase="contract"):
    """Repeat uniform contraction passes until the active count is at
    or below the threshold (default n / ceil(log2 l)). min_run must be
    at least 2, so that localization leaves every node a link."""
    if min_run < 2:
        raise ValueError(f"min_run must be at least 2, got {min_run}")
    if threshold is None:
        l = machine.forest.longest()
        denom = max(1, int(np.ceil(np.log2(l)))) if l >= 2 else 1
        threshold = machine.forest.n / denom
    reports = []
    for i in range(max_passes):
        active = machine.active_ids().size
        if active <= threshold or machine.in_array_ids().size == 0:
            break
        rep = uniform_contraction_pass(machine, min_run=min_run, phase=f"{phase}/p{i}")
        reports.append(rep)
        if rep.survivors >= rep.pre_active and rep.pooled == 0:
            break
    return reports


def replay_groups(log, n):
    """The log entries in replay order, newest first, cut into runs
    whose entries touch pairwise disjoint cells (absorbed and host
    nodes, ids below n). Entries of one run read no cell another one
    writes, so each run replays in one step with the ranks the
    one-by-one replay gives."""
    groups, touched = [], np.zeros(n, dtype=bool)
    for batch in reversed(log):
        cells = np.concatenate([batch.absorbed, batch.host])
        if not groups or touched[cells].any():
            groups.append([])
            touched[:] = False
        groups[-1].append(batch)
        touched[cells] = True
    return groups


def replay_ranks(machine: Machine, ids, before, head, phase="replay"):
    """Walk the contraction log backward, assigning each absorbed node
    its rank interval start from its host's.

    A log entry reads its hosts' rank, weight and head and writes its
    hosts and absorbed nodes, which are distinct, so it replays in one
    step; each group of replay_groups shares that step.
    """
    eng = machine.engine
    n = machine.n
    rnk = scratch(machine, "rp_rank", n)
    wgt = scratch(machine, "rp_w", n)
    hed = scratch(machine, "rp_h", n)
    if ids.size:
        with eng.step(f"{phase}/seed", ids.size) as s:
            w_now = s.read("weight", ids)
            s.write(rnk, ids, before)
            s.write(hed, ids, head)
            s.write(wgt, ids, w_now)
    for group in replay_groups(machine.log, n):
        # a lone entry's arrays serve as they are, without a copy
        fields = [[getattr(b, f) for b in group] for f in ("absorbed", "host", "side", "weight")]
        a, h, side, w = (x[0] if len(x) == 1 else np.concatenate(x) for x in fields)
        pred_side = side == PRED_SIDE
        with eng.step(f"{phase}/group", a.size) as s:
            rh = s.read(rnk, h)
            wh = s.read(wgt, h)
            hh = s.read(hed, h)
            s.write(rnk, a, np.where(pred_side, rh, rh + wh - w))
            s.write(rnk, np.where(pred_side, h, NONE), rh + w)
            s.write(wgt, h, wh - w)
            s.write(wgt, a, w)
            s.write(hed, a, hh)
    rank = machine.peek(rnk)[: machine.forest.n].copy()
    heads = machine.peek(hed)[: machine.forest.n].copy()
    return RankResult(rank=rank, list_id=heads)


def list_rank(forest: LinkedForest, p=1, *, config=None, threshold=None,
              min_run=MIN_RUN, layout_mode="columns") -> RankRun:
    """Contract, pointer-jump, and replay; exact ranks for every node."""
    config = config or PramConfig(num_processors=p)
    machine = Machine(forest, config)
    run = RankRun(result=None, metrics=None)
    layout(machine, mode=layout_mode)
    run.passes = contract_to_threshold(machine, threshold=threshold,
                                       min_run=min_run)
    ids, before, head, rounds = pointer_jump(machine)
    run.jump_rounds = rounds
    run.result = replay_ranks(machine, ids, before, head)
    run.metrics = machine.engine.metrics()
    run.trace = machine.engine.trace
    return run


def wyllie_rank(forest: LinkedForest, p=1, *, config=None) -> RankRun:
    """Pure pointer-jumping baseline: every node starts, and each round
    runs the nodes whose pointer was live the round before, as double
    does."""
    config = config or PramConfig(num_processors=p)
    machine = Machine(forest, config)
    ids, before, head, rounds = pointer_jump(machine, phase="wyllie")
    rank = np.full(machine.n, NONE, dtype=np.int64)
    heads = np.full(machine.n, NONE, dtype=np.int64)
    rank[ids] = before
    heads[ids] = head
    result = RankResult(rank=rank[: forest.n], list_id=heads[: forest.n])
    return RankRun(result=result, metrics=machine.engine.metrics(),
                   jump_rounds=rounds, trace=machine.engine.trace)
