"""Synchronous round-based EREW PRAM simulator.

The engine executes *steps*. A step is one synchronous parallel
instruction over ``n_tasks`` virtual tasks: every task first reads a
fixed set of cells, then writes a fixed set of cells. With ``p``
processors a step with ``t`` tasks costs ``ceil(t / p)`` engine rounds
(Brent scheduling) and ``t`` units of work. Reads observe the memory
state at the start of the step; writes become visible when the step
ends, and a cell written in several rounds keeps the latest round's
value.

Exclusive access is checked per engine round: virtual task ``i`` runs
in round ``i // p`` on processor ``i % p``, and no cell may be read,
or written, by two distinct processors of the same round. On top of
that the engine refuses any step in which one task reads a cell that
a different task writes, because the outcome of such a step would
depend on the processor count.

Both rules can only fail on a cell that two distinct tasks of the step
touch, so the checks first look for such cells store by store. When
every access to a store that keeps a cell at all uses one index array
whose non-negative entries strictly increase, task ``i`` alone touches
cell ``idx[i]``,
and one sequential compare proves the store uncontested. The other
stores scatter each access's task ids into a reusable owner buffer and
gather them back; a store where some task reads back another task's id
is *contested*. The exact, sort-based rules then run on the contested
stores alone, so a step costs O(m) for m accesses when none is.

Every step with tasks, one that raises on a violation too, appends
one ``StepRecord`` to the ledger ``Engine.trace``: its label, tasks,
rounds, work and the wall seconds of its checks and of applying its
writes. ``RoundMetrics`` rolls the ledger up per label.

Execution is sequential under the hood; the contract is observational
equivalence to the synchronous machine, which the access checks make
sound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BatchDependenceError, ErewViolationError

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
        p = self.config.num_processors
        rounds = -(-t // p)
        start = time.perf_counter()

        violations = 0
        contested = self._contested_stores(ctx)
        if contested:
            reads = [(st, ix) for st, ix in ctx._reads if st in contested]
            writes = [(st, ix) for st, ix, _ in ctx._writes if st in contested]
            violations = (_check_exclusive(reads, p, rounds)
                          + _check_exclusive(writes, p, rounds))
            _check_batch_isolation(ctx.label, reads, writes)

        checked = time.perf_counter()
        if not violations:
            self._apply_writes(ctx, contested)
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

    def _contested_stores(self, ctx):
        """Stores in which two distinct tasks of the step touch one cell.

        A store that ``_one_increasing`` proves is left out at once.
        Every other store scatters its accesses' task ids into the owner
        buffer, then every access gathers them back. A cell that tasks
        i != j both touch keeps only one id, so i or j reads back
        another: a store left out of the result has no shared cell, and
        no exclusive-access or isolation rule can fail on it.
        """
        by_store = _by_store(ctx._reads + [(st, ix) for st, ix, _ in ctx._writes])
        scatter = {st: ixs for st, ixs in by_store.items() if not _one_increasing(ixs)}
        if not scatter:
            return set()
        need = 1 + max(self.memory.peek(st).size for st in scatter)
        if self._owner.size < need:
            self._owner = np.empty(need, dtype=np.int64)
        owner = self._owner
        tasks = np.arange(ctx.n_tasks, dtype=np.int64)
        contested = set()
        for store, idx_list in scatter.items():
            for ix in idx_list:
                owner[ix] = tasks
            for ix in idx_list:
                if ((owner[ix] != tasks) & (ix >= 0)).any():
                    contested.add(store)
                    break
        return contested

    def _apply_writes(self, ctx, contested):
        """Apply the buffered writes. Only a contested store can have
        two tasks write one cell; there each cell keeps the write of
        the latest round, the last one made by its task."""
        p = self.config.num_processors
        nrounds = -(-ctx.n_tasks // p) + 1
        shared = {}
        for store, idx, values in ctx._writes:
            if store in contested:
                shared.setdefault(store, []).append((idx, values))
                continue
            mask = idx >= 0
            if mask.all():
                self.memory.peek(store)[idx] = values
            elif mask.any():
                self.memory.peek(store)[idx[mask]] = values[mask]
        for store, accesses in shared.items():
            tasks, cells = _flat([ix for ix, _ in accesses])
            vals = np.concatenate([v[ix >= 0] for ix, v in accesses])
            if cells.size == 0:
                continue
            order = np.argsort(cells * nrounds + tasks // p, kind="stable")
            cells, vals = cells[order], vals[order]
            last = np.r_[cells[1:] != cells[:-1], True]
            self.memory.peek(store)[cells[last]] = vals[last]


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


def _flat(idx_list):
    """(tasks, cells) of every access that idx_list does not skip,
    each index array's in task order, back to back."""
    tasks = np.concatenate([np.flatnonzero(ix >= 0) for ix in idx_list])
    cells = np.concatenate([ix[ix >= 0] for ix in idx_list])
    return tasks, cells


def _check_exclusive(accesses, p, nrounds):
    """Count the (cell, round) pairs that two distinct tasks of the
    round touch, over a step of nrounds rounds."""
    count = 0
    for idx_list in _by_store(accesses).values():
        tasks, cells = _flat(idx_list)
        if cells.size < 2:
            continue
        key = cells * nrounds + tasks // p
        order = np.argsort(key, kind="stable")
        k_s = key[order]
        t_s = tasks[order]
        # same task touching the same cell twice is allowed
        bad = (k_s[1:] == k_s[:-1]) & (t_s[1:] != t_s[:-1])
        count += np.unique(k_s[1:][bad]).size
    return count


def _check_batch_isolation(label, reads, writes):
    """Refuse a step in which task i reads a cell that any task j != i
    writes, whatever rounds i and j fall in."""
    read_stores = {store for store, _ in reads}
    writes = [(st, ix) for st, ix in writes if st in read_stores]
    if not writes:
        return
    reads = _by_store(reads)
    for store, idx_list in _by_store(writes).items():
        w_tasks, w_cells = _flat(idx_list)
        if w_cells.size == 0:
            continue
        order = np.argsort(w_cells, kind="stable")
        w_tasks, w_cells = w_tasks[order], w_cells[order]
        r_tasks, r_cells = _flat(reads[store])
        # one group per written cell, with its lowest and highest writer
        start = np.flatnonzero(np.r_[True, w_cells[1:] != w_cells[:-1]])
        cells = w_cells[start]
        lo = np.minimum.reduceat(w_tasks, start)
        hi = np.maximum.reduceat(w_tasks, start)
        pos = np.minimum(np.searchsorted(cells, r_cells), cells.size - 1)
        hit = cells[pos] == r_cells
        other = hit & ((lo[pos] != r_tasks) | (hi[pos] != r_tasks))
        if other.any():
            cell = int(r_cells[other][0])
            raise BatchDependenceError(
                f"phase {label!r}: cell ({store}, {cell}) is read and "
                "written by different tasks of one step"
            )
