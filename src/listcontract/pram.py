"""Synchronous round-based EREW PRAM simulator.

The engine executes *steps*. A step is one synchronous parallel
instruction over ``n_tasks`` virtual tasks: every task first reads a
fixed set of cells, then writes a fixed set of cells. With ``p``
processors a step with ``t`` tasks costs ``ceil(t / p)`` engine rounds
(Brent scheduling) and ``t`` units of work. Reads observe the memory
state at the start of the step; writes become visible when the step
ends.

The engine keeps one access rule: no cell may be touched, read or
written in any mix, by two distinct tasks of one step. A task may
touch its own cell several times, and its writes land in call order.
A step that keeps the rule is exclusive over its tasks, so it runs
EREW in ``ceil(t / p)`` rounds on any ``p`` processors with the same
outcome: ``p`` sets the rounds alone, and one run at any ``p`` proves
each step EREW for every ``p``. A step that breaks the rule is
refused at every ``p``, with the count of its shared cells.

The check looks for shared cells store by store. When every access
to a store that keeps a cell at all uses one index array whose
non-negative entries strictly increase, task ``i`` alone touches cell
``idx[i]``, and one sequential compare proves the store has none. The
other stores scatter each access's task ids into a reusable owner
buffer and gather them back: a cell where some task reads back
another task's id is shared. A step costs O(m) for m accesses.

Every step with tasks, one that raises on a violation too, appends
one ``StepRecord`` to the ledger ``Engine.trace``: its label, tasks,
rounds, work and the wall seconds of its checks and of applying its
writes. ``RoundMetrics`` rolls the ledger up per label.

Execution is sequential under the hood; the contract is observational
equivalence to the synchronous machine, which the access rule makes
sound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ErewViolationError

NONE = -1


@dataclass
class PramConfig:
    """Machine parameters: the processor count."""

    num_processors: int = 1

    def __post_init__(self):
        if self.num_processors < 1:
            raise ValueError("num_processors must be >= 1")


@dataclass
class RoundMetrics:
    """Running totals beside the ledger, with its per-label sums."""

    trace: list = field(default_factory=list)
    rounds: int = 0
    total_work: int = 0
    erew_violations: int = 0

    @property
    def phase_breakdown(self):
        """Rounds per step label, in order of first use."""
        return _per_label(self.trace, "rounds")

    @property
    def phase_work(self):
        """Work per step label, in order of first use."""
        return _per_label(self.trace, "work")


def _per_label(trace, name):
    out = {}
    for r in trace:
        out[r.label] = out.get(r.label, 0) + getattr(r, name)
    return out


@dataclass(frozen=True)
class StepRecord:
    """One step of the ledger: wall seconds of its access checks and of
    applying its writes, beside its metered cost."""

    label: str
    tasks: int
    rounds: int
    work: int
    check_s: float
    apply_s: float


class Memory:
    """Named dense int64 stores addressed as (name, index) cells."""

    def __init__(self):
        self._stores = {}

    def alloc(self, name, size, fill=NONE):
        if name in self._stores:
            raise ValueError(f"store {name!r} already allocated")
        self._stores[name] = np.full(int(size), fill, dtype=np.int64)
        return name

    def free(self, name):
        del self._stores[name]

    def scratch(self, name, size):
        """Reuse store name when it holds at least size cells, else
        (re)allocate it; returns the name."""
        if self.has(name):
            if self._stores[name].size >= size:
                return name
            self.free(name)
        self.alloc(name, size)
        return name

    def has(self, name):
        return name in self._stores

    def size(self, name):
        return self._stores[name].size

    def peek(self, name):
        """Host-side view for orchestration; not metered.

        Mutating the returned array bypasses the machine model; use
        ``poke`` only during setup and steps for everything else.
        """
        return self._stores[name]

    def poke(self, name, idx, values):
        """Unmetered setup write; not for use inside algorithm phases."""
        self._stores[name][idx] = values


class _StepContext:
    def __init__(self, engine, label, n_tasks):
        self.engine = engine
        self.label = label
        self.n_tasks = int(n_tasks)
        self._reads = []   # (store, idx_array)
        self._writes = []  # (store, idx_array, values_array)

    def read(self, store, idx):
        """Gather one cell per task; idx of -1 skips the read for that task.

        Returns the cell values as of the start of the step (writes of
        this step are not yet visible). Skipped entries return NONE.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.shape != (self.n_tasks,):
            raise ValueError(f"read index array must have shape ({self.n_tasks},)")
        out = self.engine.memory.peek(store)[idx]
        out[idx < 0] = NONE
        self._reads.append((store, idx))
        return out

    def write(self, store, idx, values):
        """Buffer one write per task; idx of -1 skips the task's write."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.shape != (self.n_tasks,):
            raise ValueError(f"write index array must have shape ({self.n_tasks},)")
        values = np.broadcast_to(np.asarray(values, dtype=np.int64), (self.n_tasks,))
        self._writes.append((store, idx, values))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # the buffered accesses hold every index and value array of the
        # step; release them once it is applied or has raised
        try:
            if exc_type is None:
                self.engine._finish_step(self)
        finally:
            self._reads.clear()
            self._writes.clear()
        return False


class Engine:
    """Sequential reference implementation of the synchronous machine."""

    def __init__(self, memory: Memory, config: PramConfig):
        self.memory = memory
        self.config = config
        self._metrics = RoundMetrics()
        self.trace = self._metrics.trace   # the ledger, one StepRecord per step
        # one cell longer than the largest store a step has touched, so
        # that index -1 lands past every store's cells
        self._owner = np.empty(1, dtype=np.int64)

    # -- metrics ------------------------------------------------------

    def metrics(self) -> RoundMetrics:
        return self._metrics

    # -- step execution -----------------------------------------------

    def step(self, label, n_tasks):
        """Context manager for one step; checks and writes run on exit."""
        return _StepContext(self, label, n_tasks)

    # -- internals ------------------------------------------------------

    def _finish_step(self, ctx: _StepContext):
        t = ctx.n_tasks
        if t == 0:
            return
        rounds = -(-t // self.config.num_processors)
        start = time.perf_counter()
        violations = self._shared_cells(ctx)
        checked = time.perf_counter()
        if not violations:
            self._apply_writes(ctx)
        m = self._metrics
        m.rounds += rounds
        m.total_work += t
        m.erew_violations += violations
        m.trace.append(StepRecord(ctx.label, t, rounds, t, checked - start,
                                  time.perf_counter() - checked))
        if violations:
            raise ErewViolationError(
                f"{violations} EREW violation(s) in phase {ctx.label!r}",
                violations=violations,
            )

    def _shared_cells(self, ctx):
        """Count the cells that two distinct tasks of the step touch.

        A store that ``_one_increasing`` proves has none. Every other
        store scatters its accesses' task ids into the owner buffer,
        then every access gathers them back. A cell that tasks i != j
        both touch keeps only one id, so i or j reads back another; a
        cell that one task alone touches gives back its id every time.
        """
        by_store = _by_store(ctx._reads + [(st, ix) for st, ix, _ in ctx._writes])
        scatter = {st: ixs for st, ixs in by_store.items() if not _one_increasing(ixs)}
        if not scatter:
            return 0
        need = 1 + max(self.memory.peek(st).size for st in scatter)
        if self._owner.size < need:
            self._owner = np.empty(need, dtype=np.int64)
        owner = self._owner
        tasks = np.arange(ctx.n_tasks, dtype=np.int64)
        count = 0
        for idx_list in scatter.values():
            for ix in idx_list:
                owner[ix] = tasks
            shared = [ix[(owner[ix] != tasks) & (ix >= 0)] for ix in idx_list]
            count += np.unique(np.concatenate(shared)).size
        return count

    def _apply_writes(self, ctx):
        """Apply the buffered writes in call order. No cell has two
        writers, so only a task's own writes to one cell can meet, and
        its last one lands."""
        for store, idx, values in ctx._writes:
            mask = idx >= 0
            if mask.all():
                self.memory.peek(store)[idx] = values
            elif mask.any():
                self.memory.peek(store)[idx[mask]] = values[mask]


def _by_store(accesses):
    """Group (store, idx) accesses into store -> list of idx arrays."""
    grouped = {}
    for store, idx in accesses:
        grouped.setdefault(store, []).append(idx)
    return grouped


def _one_increasing(idx_list):
    """True when every index array in idx_list that keeps a cell equals
    the first such one, and its non-negative entries strictly increase:
    then task i alone touches cell idx[i]. A False only means the store
    is not proved."""
    ix = idx_list[0]
    if any(other is not ix and not np.array_equal(other, ix)
           for other in idx_list[1:]):
        # an access that skips every task touches no cell
        kept = [other for other in idx_list if other.max() >= 0]
        return not kept or (len(kept) < len(idx_list) and _one_increasing(kept))
    # a fully increasing array has its skips (negatives) first
    up = ix[1:] > ix[:-1]
    if up.all():
        return True
    # a drop onto a kept cell repeats or reverses two kept cells
    if ix[up.argmin() + 1] >= 0:
        return False
    # the kept cells increase when every other drop lands on a skip too
    # and the cell after each run of skips tops the cell before it
    skip = ix < 0
    if not (up | skip[1:]).all():
        return False
    edge = np.flatnonzero(skip[1:] != skip[:-1])
    before, after = edge[skip[edge + 1]], edge[skip[edge]] + 1
    if skip[0]:
        after = after[1:]   # a leading run of skips has no cell before it
    return bool((ix[after] > ix[before[:after.size]]).all())
