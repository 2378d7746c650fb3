"""The benchmark's workloads: how each input is made from the seed and
which ranking call runs on it.

The program only ever sees ``generate(Workload(...))`` output; the seed
is the one argument that varies between runs. FIXED lists are not
shuffled, so ``fixed64`` and ``wyllie256`` get the same forest for every
seed; ``geo_rows`` draws its list lengths and node ids from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from listcontract import ranking
from listcontract.workloads import Workload, generate


@dataclass(frozen=True)
class Case:
    name: str
    algo: str                      # "list_rank" or "wyllie_rank"
    log2n: int
    distribution: str
    fixed_length: int = 0
    mean_length: int = 0           # GEOMETRIC: n // mean_length lists
    shuffle: bool = False
    p_div: int = 1                 # p = n // p_div
    options: dict = field(default_factory=dict)


CASES = {c.name: c for c in (
    Case("fixed64", "list_rank", 18, "FIXED", fixed_length=64, p_div=6),
    Case("geo_rows", "list_rank", 16, "GEOMETRIC", mean_length=256,
         shuffle=True, p_div=8, options={"layout_mode": "rows", "min_run": 8}),
    Case("wyllie256", "wyllie_rank", 18, "FIXED", fixed_length=256, p_div=8),
)}


def make_forest(case: Case, seed: int, log2n: int | None = None):
    n = 2 ** (case.log2n if log2n is None else log2n)
    num_lists = max(1, n // case.mean_length) if case.mean_length else 1
    return generate(Workload(n=n, num_lists=num_lists,
                             length_distribution=case.distribution,
                             fixed_length=case.fixed_length, seed=seed,
                             layout_shuffle=case.shuffle))


def rank(case: Case, forest):
    """One ranking call; looked up on the module at call time so the
    traced run sees the same entry point as the untraced one."""
    fn = getattr(ranking, case.algo)
    return fn(forest, p=max(1, forest.n // case.p_div), **case.options)
