"""Deterministic workload generation for benchmarks and regression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LinkedForest
from .pram import NONE

UNIFORM = "UNIFORM"
GEOMETRIC = "GEOMETRIC"
FIXED = "FIXED"
SINGLE = "SINGLE"


@dataclass
class Workload:
    n: int
    num_lists: int = 1
    length_distribution: str = UNIFORM
    fixed_length: int = 0
    seed: int = 0
    layout_shuffle: bool = False


def generate(workload: Workload) -> LinkedForest:
    """Build the forest for a workload; byte-stable for a given seed."""
    w = workload
    if w.n < 1:
        raise ValueError("n must be >= 1")
    if w.num_lists < 1:
        raise ValueError("num_lists must be >= 1")
    if not 0 <= w.seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {w.seed}")
    rng = np.random.default_rng(np.uint64(w.seed))
    if w.length_distribution == SINGLE:
        lengths = [w.n]
    elif w.length_distribution == FIXED:
        if w.fixed_length < 1 or w.n % w.fixed_length:
            raise ValueError(
                f"FIXED length {w.fixed_length} must divide n={w.n}")
        lengths = [w.fixed_length] * (w.n // w.fixed_length)
    elif w.length_distribution == UNIFORM:
        lengths = _partition_uniform(w.n, w.num_lists, rng)
    elif w.length_distribution == GEOMETRIC:
        lengths = _partition_geometric(w.n, w.num_lists, rng)
    else:
        raise ValueError(f"unknown distribution {w.length_distribution!r}")

    order = np.arange(w.n)
    if w.layout_shuffle:
        order = rng.permutation(w.n)
    succ = np.full(w.n, NONE, dtype=np.int64)
    pos = 0
    for length in lengths:
        chain = order[pos: pos + length]
        succ[chain[:-1]] = chain[1:]
        pos += length
    return LinkedForest(succ)


def _partition_uniform(n, k, rng):
    k = min(k, n)
    if k == 1:
        return [n]
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    return list(np.diff(bounds))


def _partition_geometric(n, k, rng):
    k = min(k, n)
    mean = max(1.0, n / k)
    lengths = []
    left = n
    while left > 0:
        ln = int(min(left, 1 + rng.geometric(1.0 / mean)))
        lengths.append(ln)
        left -= ln
    return lengths
