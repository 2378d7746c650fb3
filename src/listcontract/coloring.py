"""Deterministic 3-coloring of linked chains by coin tossing.

Colors start as the unique node ids and shrink by comparing each
node's color with its successor's: the new color packs the position of
the lowest differing bit with the node's own bit there. Coin tossing
stops once dropping the colors above 2 costs no more than going on
would. The step that stops ranks the color classes by size and maps
them to the published colors: the two largest become 0 and 1, the
third 2 and the rest 3, 4, ..., so the drops recolor the smallest
classes. Then one drop step per color above 2, highest first, recolors
the nodes of that color; with at most six classes these are at most
three drops. The first iteration runs on the task registers and each
later one is one engine step. The step that ends coin tossing, and
each drop, write a node's color straight into its neighbors' inbox
cells, where the drops and the color-2 elimination read it.

Callers pass explicit id, successor and predecessor arrays, so the
same code colors whole lists and row-restricted lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ImproperColoringError
from .model import INBOX
from .pram import NONE


@dataclass
class ColorAssignment:
    ids: np.ndarray
    final_color: np.ndarray
    dct_iterations: int


def dct_new_colors(color, succ_color, has_succ):
    """One coin-tossing transition, as a pure array function.

    Nodes with a successor take 2k + bit_k(color) for k the lowest bit
    where their color differs from the successor's. Nodes without one
    compare against a virtual all-zeros successor at bit 0, taking
    their own bit 0 as the new color.
    """
    color = np.asarray(color, dtype=np.int64)
    diff = color ^ np.asarray(succ_color, dtype=np.int64)
    low = diff & -diff
    k = np.zeros(color.shape, dtype=np.int64)
    nz = low > 0
    k[nz] = np.round(np.log2(low[nz])).astype(np.int64)
    new = 2 * k + ((color >> k) & 1)
    return np.where(has_succ, new, color & 1)


def class_table(color, heads):
    """Published color of each coin-tossing color class, indexed by
    class: classes by descending size (ties by label) take 0, 1, 2,
    3, ... Of the two largest, the one holding more chain heads (heads
    is a mask over the tasks) takes 1: a 1-colored head pairs with its
    successor, where a 0-colored one is left loose."""
    counts = np.bincount(color)
    order = np.argsort(-counts, kind="stable")
    if order.size > 1 and counts[order[1]]:
        at_head = np.bincount(color[heads], minlength=counts.size)
        if at_head[order[0]] > at_head[order[1]]:
            order[:2] = order[1::-1]
    table = np.empty_like(order)
    table[order] = np.arange(order.size)
    return table


def drops_are_cheaper(color, p):
    """Whether one drop step per published color above 2, each of the
    tasks that hold it, costs at most the ceil(k/p) + 3 rounds that
    going on pays: one more full-width iteration, then at most three
    drops, since it leaves at most six classes and the three largest
    are kept. A coloring of at most six classes passes, so coin
    tossing always ends. A step has at most k tasks, so every p >= k
    prices as p = k does."""
    counts = np.bincount(color)[3:]
    k = color.size
    p = min(p, k)
    return int((-(-counts // p)).sum()) <= -(-k // p) + 3


def three_color(engine, memory, ids, succ_ids, pred_ids, *, phase="three_color"):
    """Proper 3-coloring of the chains given by succ_ids/pred_ids.

    ids are machine node ids; succ_ids/pred_ids give each node's chain
    neighbors as node ids (-1 for none) and must describe disjoint
    simple chains. Returns the final colors, which memory keeps only in
    each node's neighbors' cells: its inbox_p and inbox_s cells hold its
    predecessor's and successor's final colors.

    Coin tossing publishes after the first iteration whose colors,
    mapped through class_table, drops_are_cheaper accepts: one more
    iteration costs a full-width step and still leaves up to three
    classes to drop, so stopping pays off once the drops of every
    published color above 2 cost at most that. The publishing step
    maps each task's color in its registers, and the colors above 2
    are then dropped in any number, highest first.
    """
    ids = np.asarray(ids, dtype=np.int64)
    k = ids.size
    if k == 0:
        return ColorAssignment(ids, np.empty(0, dtype=np.int64), 0)

    p = engine.config.num_processors
    size = memory.size("succ")
    has_succ, has_pred = succ_ids >= 0, pred_ids >= 0
    buf, inb_p, inb_s = (memory.scratch(st, size) for st in ("dct", *INBOX))

    # colors live in registers. The initial colors are the ids, so a
    # task already holds its successor's and the first iteration needs
    # no step.
    color = ids.copy()
    iterations = 0
    if int(color.max()) > 5:
        color = dct_new_colors(color, succ_ids, has_succ)
        iterations = 1
    # Each later iteration is one step: a task reads its successor's
    # color from the buffer the previous step wrote and writes its own
    # into the other, as (store, write cells, read cells). In dct a
    # node's color goes to its predecessor's cell, in inbox_p to its
    # own. Either way no other task writes the cell a task reads when
    # the step publishes (inbox_p[succ], inbox_s[pred]), so any
    # iteration can be the last.
    bufs = ((buf, pred_ids, np.where(has_succ, ids, NONE)),
            (inb_p, ids, succ_ids))
    for t in itertools.count():
        with engine.step(f"{phase}/dct", k) as s:
            if t > 0:
                store, _, read_at = bufs[1 - t % 2]
                color = dct_new_colors(color, s.read(store, read_at), has_succ)
                iterations += 1
            ranked = class_table(color, ~has_pred)[color]
            if drops_are_cheaper(ranked, p):
                color = ranked
                s.write(inb_p, succ_ids, color)
                s.write(inb_s, pred_ids, color)
                break
            store, write_at, _ = bufs[t % 2]
            s.write(store, write_at, color)

    # a proper coloring never recolors two neighbors in one drop, so
    # each recolored node forwards its new color itself. An inbox cell
    # with no neighbor behind it may hold a buffer value and is not read.
    for drop in np.unique(color[color > 2])[::-1]:
        sel = np.flatnonzero(color == drop)
        t_ids = ids[sel]
        with engine.step(f"{phase}/drop{drop}", sel.size) as s:
            cp = s.read(inb_p, np.where(has_pred[sel], t_ids, NONE))
            cn = s.read(inb_s, np.where(has_succ[sel], t_ids, NONE))
            used = np.zeros((sel.size, 3), dtype=bool)
            for arr in (cp, cn):
                m = (arr >= 0) & (arr <= 2)
                used[m, arr[m]] = True
            new = np.where(~used[:, 0], 0, np.where(~used[:, 1], 1, 2))
            color[sel] = new
            s.write(inb_p, succ_ids[sel], new)
            s.write(inb_s, pred_ids[sel], new)

    # callers read only the final colors, so one host-side check of
    # them guards every iteration and drop
    if (color > 2).any():
        raise ImproperColoringError("colors above 2 survived elimination")
    pos_arr = np.full(size, NONE, dtype=np.int64)
    pos_arr[ids] = np.arange(k)
    if (color[has_succ] == color[pos_arr[succ_ids[has_succ]]]).any():
        raise ImproperColoringError("coloring is improper")
    return ColorAssignment(ids, color, iterations)
