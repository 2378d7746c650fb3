"""Benchmark runs behind the recorded regression constants.

The acceptance suite and the constant regeneration both call these,
so recorded values and checked values always come from the same
workloads. ``python -m listcontract.benchmarks`` prints measured.py
with fresh values of its constants; ``--write`` saves it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np

from .coloring import three_color
from .model import Machine, layout
from .orientation import fold_array, uniform_contraction_pass
from .pram import PramConfig
from .ranking import list_rank, wyllie_rank
from .steps import restricted_neighbors
from .workloads import Workload, generate


def pass_vs_coloring_rounds(exponent, seed=4):
    """Rounds of one contraction pass, its pending fold included, and
    of one 3-coloring of the same single-list instance; their ratio is
    the recorded K, the paper's contract and pack against coloring."""
    n = 2 ** exponent
    fo = generate(Workload(n=n, length_distribution="SINGLE", seed=seed))
    m = Machine(fo, PramConfig(num_processors=max(1, n // 6)))
    layout(m)
    uniform_contraction_pass(m)
    fold_array(m, *m.pending_fold)
    pass_rounds = m.engine.metrics().rounds

    m2 = Machine(fo, PramConfig(num_processors=max(1, n // 6)))
    ids = m2.active_ids()
    sv, pv = restricted_neighbors(m2, ids, "nbr")
    ca = three_color(m2.engine, m2.memory, ids, (sv, pv), phase="tc")
    color_rounds = m2.engine.metrics().rounds
    return pass_rounds, color_rounds, ca.dct_iterations


def fixed_l_round_sweep(exponents=range(12, 19), l=64, seed=2):
    """list_rank rounds with l fixed and p = n / ceil(log2 l)."""
    out = []
    for e in exponents:
        n = 2 ** e
        fo = generate(Workload(n=n, length_distribution="FIXED",
                               fixed_length=l, seed=seed))
        run = list_rank(fo, p=max(1, n // int(np.ceil(np.log2(l)))))
        out.append({"exponent": e, "rounds": run.metrics.rounds,
                    "violations": run.metrics.erew_violations})
    return out


def single_list_round_sweep(exponents=(12, 14, 16, 18), seed=2):
    out = []
    for e in exponents:
        n = 2 ** e
        fo = generate(Workload(n=n, length_distribution="SINGLE", seed=seed))
        run = list_rank(fo, p=max(1, n // 6))
        out.append({"exponent": e, "rounds": run.metrics.rounds})
    return out


def work_ratio_sweep(lengths=(4, 16, 64, 256), exponent=16, seed=6):
    """total_work(wyllie) / total_work(list_rank) per list length."""
    n = 2 ** exponent
    out = []
    for l in lengths:
        fo = generate(Workload(n=n, length_distribution="FIXED",
                               fixed_length=l, seed=seed))
        wy = wyllie_rank(fo, p=n // 8)
        un = list_rank(fo, p=n // 8)
        out.append({"l": l,
                    "wyllie_work": int(wy.metrics.total_work),
                    "uniform_work": int(un.metrics.total_work),
                    "ratio": wy.metrics.total_work / un.metrics.total_work})
    return out


def measured_constants():
    """Fresh values of the four constants recorded in measured.py."""
    k = {}
    for e in (10, 12, 14, 16, 18):
        pass_rounds, color_rounds, _ = pass_vs_coloring_rounds(e)
        k[e] = round(pass_rounds / color_rounds, 4)
    return {"PASS_OVER_COLORING_K": k,
            "FIXED_L_ROUNDS": {r["exponent"]: r["rounds"] for r in fixed_l_round_sweep()},
            "SINGLE_LIST_ROUNDS": {r["exponent"]: r["rounds"] for r in single_list_round_sweep()},
            "WORK_RATIO": {r["l"]: round(r["ratio"], 4) for r in work_ratio_sweep()}}


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit("usage: python -m listcontract.benchmarks [--write]")
    path = Path(__file__).with_name("measured.py")
    text = path.read_text()
    for name, value in measured_constants().items():
        text = re.sub(rf"^{name} = {{.*?}}$", f"{name} = {value}", text, flags=re.M | re.S)
    if sys.argv[1:]:
        path.write_text(text)
    else:
        print(text, end="")
