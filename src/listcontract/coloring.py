"""Deterministic 3-coloring of linked chains by coin tossing.

Colors start as the unique node ids and shrink by comparing each
node's color with its successor's: the new color packs the position of
the lowest differing bit with the node's own bit there. Once every
color fits in {0..5} three elimination passes remove colors 5, 4, 3.

Callers pass explicit id, successor and predecessor arrays, so the
same code colors whole lists and row-restricted lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImproperColoringError
from .model import INBOX
from .pram import NONE


@dataclass
class ColorAssignment:
    ids: np.ndarray
    final_color: np.ndarray
    rounds_used: int
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


def three_color(engine, memory, ids, succ_ids, pred_ids, *, phase="three_color"):
    """Proper 3-coloring of the chains given by succ_ids/pred_ids.

    ids are machine node ids; succ_ids/pred_ids give each node's chain
    neighbors as node ids (-1 for none) and must describe disjoint
    simple chains. Final colors land in color[ids].
    """
    ids = np.asarray(ids, dtype=np.int64)
    k = ids.size
    if k == 0:
        return ColorAssignment(ids, np.empty(0, dtype=np.int64), 0, 0)

    size = memory.peek("color").size
    has_succ = succ_ids >= 0
    has_pred = pred_ids >= 0

    inb_p, inb_s = (memory.scratch(st, size) for st in INBOX)

    # colors live in registers between iterations; memory holds the
    # copy neighbors read
    color = ids.copy()
    with engine.step(f"{phase}/init", k) as s:
        s.write("color", ids, color)

    iterations = 0
    while int(color.max()) > 5:
        with engine.step(f"{phase}/dct", k) as s:
            cs = s.read("color", np.where(has_succ, succ_ids, NONE))
        color = dct_new_colors(color, cs, has_succ)
        with engine.step(f"{phase}/dct_write", k) as s:
            s.write("color", ids, color)
        iterations += 1

    for drop in (5, 4, 3):
        with engine.step(f"{phase}/bcast", k) as s:
            s.write(inb_p, np.where(has_succ, succ_ids, NONE), color)
            s.write(inb_s, np.where(has_pred, pred_ids, NONE), color)
        sel = np.flatnonzero(color == drop)
        if sel.size:
            with engine.step(f"{phase}/drop{drop}", sel.size) as s:
                cp = s.read(inb_p, ids[sel])
                cn = s.read(inb_s, ids[sel])
                used = np.zeros((sel.size, 3), dtype=bool)
                for arr, have in ((cp, has_pred[sel]), (cn, has_succ[sel])):
                    m = have & (arr >= 0) & (arr <= 2)
                    used[m, arr[m]] = True
                new = np.where(~used[:, 0], 0, np.where(~used[:, 1], 1, 2))
                color[sel] = new
                s.write("color", ids[sel], new)

    # callers read only the final colors, so one host-side check of
    # them guards every iteration and drop
    if (color > 2).any():
        raise ImproperColoringError("colors above 2 survived elimination")
    pos_arr = np.full(size, NONE, dtype=np.int64)
    pos_arr[ids] = np.arange(k)
    if (color[has_succ] == color[pos_arr[succ_ids[has_succ]]]).any():
        raise ImproperColoringError("coloring is improper")
    return ColorAssignment(ids, color, iterations + 3, iterations)

