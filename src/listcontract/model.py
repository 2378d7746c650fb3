"""Core data model: linked forests, the two-row array, contraction state.

All mutable algorithm state lives in named engine stores so that the
parallel phases can be metered and checked:

======== ===================================================
store    meaning
======== ===================================================
succ     next node id, -1 at a list tail
pred     previous node id, -1 at a list head
status   -1 while active, else the id of the node absorbed into
weight   number of original nodes this node represents
color    working color, -1 when unset
row      0 or 1 while placed; -1 unplaced, -2 retired, -3 pooled
col      column while placed
slot     flattened 2 x columns array of node ids, -1 when vacant
cut      1 when the link node -> succ[node] is virtually deleted
pair     pairing partner, -1 when unpaired
mb_color scratch, indexed like slot: color of the cell's node
mb_pcol  scratch, indexed like slot: column of that node's partner
======== ===================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ForestFormatError
from .pram import Engine, Memory, PramConfig, NONE

UNPLACED = -1
RETIRED = -2
POOLED = -3

PRED_SIDE = 0   # absorbed node preceded its host
SUCC_SIDE = 1   # absorbed node followed its host

# scratch stores, one cell per node, for a message from the node's
# predecessor side and from its successor side; indexed by side
INBOX = ("inbox_p", "inbox_s")

STORES = ("succ", "pred", "status", "weight", "color", "row", "col", "slot", "cut", "pair")


class LinkedForest:
    """Immutable host-side forest: dense node ids, succ/pred arrays.

    heads holds the list heads in ascending id; lengths[i] is the length
    of the list headed by heads[i]; order is every node in list order,
    the lists back to back in heads order.
    """

    def __init__(self, succ):
        succ = np.asarray(succ, dtype=np.int64)
        self.n = succ.size
        self.succ = succ
        head, dist = self._validate()
        self.heads = np.flatnonzero(self.pred == NONE)
        self.list_count = self.heads.size
        k = np.searchsorted(self.heads, head)   # list index of every node
        self.lengths = np.bincount(k, minlength=self.list_count)
        start = np.cumsum(self.lengths) - self.lengths
        self.order = np.empty(self.n, dtype=np.int64)
        self.order[start[k] + dist] = np.arange(self.n)

    def _validate(self):
        """Check the forest and set pred; return each node's head and
        its distance from it, found by pointer doubling along pred."""
        n = self.n
        if n == 0:
            raise ForestFormatError("empty forest")
        s = self.succ
        if ((s < -1) | (s >= n)).any():
            raise ForestFormatError("successor id out of range")
        if (s == np.arange(n)).any():
            raise ForestFormatError("self-loop")
        if np.bincount(s[s >= 0], minlength=n).max(initial=0) > 1:
            raise ForestFormatError("two nodes share a successor")
        self.pred = pred = _invert(s)
        up = np.where(pred == NONE, np.arange(n), pred)
        dist = (pred != NONE).astype(np.int64)
        live = np.flatnonzero(pred != NONE)
        for _ in range(n.bit_length()):
            u = up[live]
            dist[live] += dist[u]
            up[live] = up[u]
            live = live[pred[up[live]] != NONE]
        # with one pred per node, a pointer that never reaches a head
        # after 2^bit_length(n) > n hops lies on a cycle
        if live.size:
            raise ForestFormatError("cycle detected")
        return up, dist

    def longest(self):
        """Length of the longest list (the quantity written l)."""
        return int(self.lengths.max())

    # -- text format: one line per node, "node_id succ_id" -------------

    @classmethod
    def from_text(cls, text):
        succ_map = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ForestFormatError(f"line {lineno}: expected 'node_id succ_id'")
            try:
                v, s = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ForestFormatError(f"line {lineno}: non-integer field") from exc
            if v in succ_map:
                raise ForestFormatError(f"line {lineno}: duplicate node {v}")
            succ_map[v] = s
        n = len(succ_map)
        if sorted(succ_map) != list(range(n)):
            raise ForestFormatError("node ids must be dense 0..n-1")
        succ = np.array([succ_map[i] for i in range(n)], dtype=np.int64)
        return cls(succ)

    def to_text(self):
        return "\n".join(f"{i} {int(self.succ[i])}" for i in range(self.n)) + "\n"


def _invert(succ):
    n = succ.size
    pred = np.full(n, NONE, dtype=np.int64)
    mask = succ >= 0
    pred[succ[mask]] = np.flatnonzero(mask)
    return pred


# -- contraction log ----------------------------------------------------


@dataclass
class ContractBatch:
    absorbed: np.ndarray
    host: np.ndarray
    side: np.ndarray
    weight: np.ndarray  # weight of the absorbed node at contraction time


class Machine:
    """Engine, memory, log, and the store layout for one algorithm run.

    log is the list of ContractBatch entries, in contraction order,
    that the rank replay walks backward.
    """

    def __init__(self, forest: LinkedForest, config: PramConfig | None = None):
        self.forest = forest
        self.config = config or PramConfig()
        self.memory = Memory()
        self.engine = Engine(self.memory, self.config)
        self.log = []

        n = forest.n
        self.sentinel = None
        if n % 2:
            self.sentinel = n
            n += 1
        self.n = n
        self.columns = n // 2

        m = self.memory
        m.alloc("succ", n)
        m.alloc("pred", n)
        m.alloc("status", n, fill=NONE)
        m.alloc("weight", n, fill=1)
        m.alloc("color", n, fill=NONE)
        m.alloc("row", n, fill=UNPLACED)
        m.alloc("col", n, fill=UNPLACED)
        m.alloc("slot", 2 * self.columns, fill=NONE)
        m.alloc("cut", n, fill=0)
        m.alloc("pair", n, fill=NONE)
        m.alloc("first", n)   # first original node of this node's segment
        m.poke("succ", np.arange(forest.n), forest.succ)
        m.poke("pred", np.arange(forest.n), forest.pred)
        m.poke("first", np.arange(n), np.arange(n))

    # -- direct store access (host orchestration) ----------------------

    def peek(self, name):
        return self.memory.peek(name)

    def active_ids(self):
        return np.flatnonzero(self.peek("status") == NONE)

    def in_array_ids(self):
        st, row = self.peek("status"), self.peek("row")
        return np.flatnonzero((st == NONE) & (row >= 0))

    def grid(self):
        """Copy of the 2 x columns slot array."""
        return self.peek("slot")[: 2 * self.columns].reshape(2, self.columns).copy()

    def cell(self, row, col):
        """Slot index of each (row, col) under the current column count;
        NONE wherever the row or the column is negative (unplaced,
        retired or pooled nodes, missing partners)."""
        row, col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
        return np.where((row >= 0) & (col >= 0), row * self.columns + col, NONE)


def layout(machine: Machine, mode="columns"):
    """Place lists in succ order, back to back, two nodes per column.

    The default fills column by column (consecutive list nodes share a
    column). mode="rows" fills row 0 first and then row 1, which
    splits each long list into an upper and a lower part; that is the
    placement that keeps both rows populated through localization.

    This is the input placement the contraction machinery assumes; it
    is harness setup, performed before the metered phases start. An odd
    node count is padded with one isolated sentinel node.
    """
    m = machine.memory
    order = machine.forest.order
    if machine.sentinel is not None:
        order = np.append(order, machine.sentinel)
    k = np.arange(machine.n)
    if mode == "columns":
        rows, cols = k % 2, k // 2
    elif mode == "rows":
        rows, cols = k // machine.columns, k % machine.columns
    else:
        raise ValueError(f"unknown layout mode {mode!r}")
    m.poke("row", order, rows)
    m.poke("col", order, cols)
    m.poke("slot", machine.cell(rows, cols), order)
