"""End-to-end list ranking pipelines and the rank-recovery replay.

list_rank contracts with uniform passes until the active count crosses
the pointer-jumping threshold, or until the next pass is priced dearer
than the jumping it saves, ranks the survivors by weighted pointer
jumping, then replays the contraction log backward to assign every
original node its rank. wyllie_rank and sequential_rank are the
baselines the pipeline is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ForestFormatError
from .model import LinkedForest, Machine, layout, PRED_SIDE
from .localize import MIN_RUN, check_min_run
from .orientation import uniform_contraction_pass
from .pram import NONE, PramConfig
from .steps import double


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
    stopped_by: str = None    # why contraction stopped, as contract_to_threshold says

    @property
    def trace(self):
        """The engine's ledger: one StepRecord per step."""
        return self.metrics.trace


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
    jumps along predecessor pointers. The doubling is seeded
    exclusively: each node starts from the weight of its predecessor
    (0 at a head), which no other node reads, so its value ends as
    that total itself. Returns the stores holding the totals and the
    heads, indexed by node id, and the rounds.
    """
    ids = machine.active_ids()

    def seed(s):
        pv = s.read("pred", ids)
        at_head = pv == NONE
        return pv, [np.where(at_head, 0, s.read("weight", pv)),
                    np.where(at_head, s.read("first", ids), NONE)]

    (_, rank, head), rounds = double(machine, "pj", ids, seed, (np.add, np.maximum),
                                     phase=phase)
    return (rank, head), rounds


def jump_price(x, l, n, p):
    """Rounds of pointer jumping over x of the n nodes, l the longest
    list: a uniform pass shrinks every list by the same factor, so the
    longest then has about l x / n nodes, and the jump takes ceil(log2)
    of that in rounds plus its init step, each of ceil(x / p) rounds."""
    return (math.ceil(math.log2(max(1.0, l * x / n))) + 1) * math.ceil(x / p)


def pass_price(records, active, before, p):
    """Rounds of the next pass over active nodes, priced from the step
    records of the previous one, which started with before of them:
    the next pass opens with the previous one's fold, one step over its
    survivors, at most the active nodes, and every other step's tasks
    scale by active / before (a fold the records open with is the one
    of the pass before, and is not scaled)."""
    tasks = (-(-r.tasks * active // before) for r in records if "/fold/" not in r.label)
    return -(-active // p) + sum(-(-t // p) for t in tasks)


def contract_to_threshold(machine: Machine, threshold=None, max_passes=64,
                          min_run=MIN_RUN, phase="contract"):
    """Repeat uniform contraction passes until the active count is at
    or below the threshold. min_run must be at least 2, so that
    localization leaves every node a link.

    The default threshold, the paper's n / ceil(log2 l), is a ceiling:
    after the first pass, the next one runs only while its price
    (pass_price: its opening fold, plus the previous pass's other step
    records scaled to the nodes now active), plus jumping over the
    nodes it would leave, is below jumping over the nodes now active. A
    pass that kept a fraction s of its nodes is expected to keep s of
    the next one's too. An explicit threshold contracts until at or
    below it, whatever the price.

    Returns the pass reports and why contraction stopped: "threshold"
    (the active count is at or below it), "priced" (the next pass costs
    more rounds than it saves) or "stalled" (the last pass neither
    contracted nor pooled a node, no node is left in the array, or
    max_passes ran out). The last pass's fold stays pending in
    machine.pending_fold."""
    check_min_run(min_run)
    forest = machine.forest
    priced = threshold is None
    if priced:
        l = forest.longest()
        denom = max(1, int(np.ceil(np.log2(l)))) if l >= 2 else 1
        threshold = forest.n / denom
    p = machine.engine.config.num_processors
    trace = machine.engine.trace
    reports, last, before = [], [], 0
    for i in range(max_passes):
        active = machine.active_ids().size
        if active <= threshold:
            return reports, "threshold"
        if machine.in_array_ids().size == 0:
            return reports, "stalled"
        if priced and last:
            kept = active * active / before
            if (pass_price(last, active, before, p) + jump_price(kept, l, forest.n, p)
                    >= jump_price(active, l, forest.n, p)):
                return reports, "priced"
        start = len(trace)
        rep = uniform_contraction_pass(machine, min_run=min_run, phase=f"{phase}/p{i}")
        reports.append(rep)
        last, before = trace[start:], active
        if rep.survivors >= rep.pre_active and rep.pooled == 0:
            return reports, "stalled"
    return reports, "stalled"


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


def replay_ranks(machine: Machine, stores, phase="replay"):
    """Walk the contraction log backward, assigning each absorbed node
    its rank interval start from its host's.

    The replay works in the rank and head stores pointer_jump returns
    and in the weight store. An absorbed node's contract step adds to
    its weight cell whatever weight still waited in its inbox, and no
    step writes a retired node's weight, so when an entry replays, its
    absorbed nodes still hold the weights it logged; the entry takes
    them off its hosts' again, and the weight store ends at its
    original ones. A log entry reads its hosts' rank,
    weight and head and writes its hosts and absorbed nodes, which are
    distinct, so it replays in one step; each group of replay_groups
    shares that step.
    """
    eng = machine.engine
    rnk, hed = stores
    for group in replay_groups(machine.log, machine.n):
        # a lone entry's arrays serve as they are, without a copy
        fields = [[getattr(b, f) for b in group] for f in ("absorbed", "host", "side", "weight")]
        a, h, side, w = (x[0] if len(x) == 1 else np.concatenate(x) for x in fields)
        pred_side = side == PRED_SIDE
        with eng.step(f"{phase}/group", a.size) as s:
            rh = s.read(rnk, h)
            wh = s.read("weight", h)
            hh = s.read(hed, h)
            s.write(rnk, a, np.where(pred_side, rh, rh + wh - w))
            s.write(rnk, np.where(pred_side, h, NONE), rh + w)
            s.write("weight", h, wh - w)
            s.write(hed, a, hh)
    return read_result(machine, stores)


def read_result(machine: Machine, stores):
    """The RankResult of the original nodes from the rank and head
    stores, read on the host."""
    rank, head = (machine.peek(st)[: machine.forest.n].copy() for st in stores)
    return RankResult(rank=rank, list_id=head)


def list_rank(forest: LinkedForest, p=1, *, min_run=MIN_RUN,
              layout_mode="columns") -> RankRun:
    """Contract, pointer-jump, and replay; exact ranks for every node."""
    machine = Machine(forest, PramConfig(num_processors=p))
    run = RankRun(result=None, metrics=None)
    layout(machine, mode=layout_mode)
    run.passes, run.stopped_by = contract_to_threshold(machine, min_run=min_run)
    machine.pending_fold = None   # no pass follows to read it
    stores, run.jump_rounds = pointer_jump(machine)
    run.result = replay_ranks(machine, stores)
    run.metrics = machine.engine.metrics()
    return run


def wyllie_rank(forest: LinkedForest, p=1) -> RankRun:
    """Pure pointer-jumping baseline: every node starts, and each round
    runs the nodes whose pointer was live the round before, as double
    does."""
    machine = Machine(forest, PramConfig(num_processors=p))
    stores, rounds = pointer_jump(machine, phase="wyllie")
    return RankRun(result=read_result(machine, stores), metrics=machine.engine.metrics(),
                   jump_rounds=rounds)
