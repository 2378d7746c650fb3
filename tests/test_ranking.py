import hashlib
import re

import numpy as np
import pytest

from listcontract import (ForestFormatError, LinkedForest, Machine, PramConfig,
                          Workload, contract_to_threshold, generate, layout,
                          list_rank, pointer_jump, ranking, sequential_rank, wyllie_rank)
from listcontract.model import PRED_SIDE, SUCC_SIDE, ContractBatch
from listcontract.pram import NONE
from listcontract.steps import contract_batch
from conftest import (check_inverse, contract_fully, forest_from_lists, odd_chain_forest,
                      path_forest)


# -- sequential oracle -------------------------------------------------------

def test_sequential_path_of_three():
    r = sequential_rank(path_forest(3))
    assert r.rank.tolist() == [0, 1, 2]
    assert r.list_id.tolist() == [0, 0, 0]


def test_sequential_two_lists_independent():
    f = forest_from_lists([[2, 0], [1, 3, 4]])
    r = sequential_rank(f)
    assert r.rank[2] == 0 and r.rank[0] == 1
    assert r.rank[1] == 0 and r.rank[3] == 1 and r.rank[4] == 2
    assert r.list_id[4] == 1


def test_sequential_ranks_increase_along_succ():
    f = generate(Workload(n=200, num_lists=7, seed=1))
    r = sequential_rank(f)
    for v in range(200):
        s = f.succ[v]
        if s != NONE:
            assert r.rank[s] == r.rank[v] + 1


def test_sequential_detects_cycle():
    f = path_forest(4)
    f.succ[3] = 0   # corrupt the structure after validation
    f.pred[0] = 3
    f.heads = np.array([], dtype=np.int64)
    with pytest.raises(ForestFormatError):
        sequential_rank(f)


# -- pointer jumping ----------------------------------------------------------

def jumped(m):
    """pointer_jump over machine m: the active ids, the totals and heads
    its stores hold for them, and its rounds."""
    (rank, head), rounds = pointer_jump(m)
    ids = m.active_ids()
    return ids, m.peek(rank)[ids], m.peek(head)[ids], rounds


def test_jump_single_node():
    m = Machine(path_forest(1), PramConfig())
    ids, before, head, rounds = jumped(m)
    real = ids < 1
    assert before[real].tolist() == [0]
    assert head[real].tolist() == [0]


def test_jump_path_of_four_two_rounds():
    m = Machine(path_forest(4), PramConfig(num_processors=4))
    ids, before, head, rounds = jumped(m)
    assert rounds == 2
    assert before.tolist() == [0, 1, 2, 3]
    assert (head == 0).all()


def test_jump_path_of_five_three_rounds():
    m = Machine(path_forest(5), PramConfig(num_processors=8))
    ids, before, head, rounds = jumped(m)
    order = np.argsort(ids)
    assert rounds == 3
    assert before[order][:5].tolist() == [0, 1, 2, 3, 4]


def test_jump_weighted_distances():
    m = Machine(path_forest(4), PramConfig(num_processors=4))
    layout(m)
    contract_batch(m, [1], [0], SUCC_SIDE, "test")    # weight(0) = 2
    ids, before, head, rounds = jumped(m)
    got = dict(zip(ids.tolist(), before.tolist()))
    assert got[0] == 0 and got[2] == 2 and got[3] == 3


@pytest.mark.parametrize("mode", ["columns", "rows"])
def test_exclusive_seed_gives_each_node_the_weight_before_it(mode):
    # after passes of real contraction the active nodes carry weights
    # above 1; each one's total is the weight of the active nodes
    # before it in its list, as walking the links on the host sums it
    f = generate(Workload(n=999, num_lists=5, length_distribution="GEOMETRIC", seed=4,
                          layout_shuffle=True))
    m = Machine(f, PramConfig(num_processors=7))
    layout(m, mode=mode)
    contract_to_threshold(m, threshold=0, max_passes=2)
    succ, weight, first = m.peek("succ"), m.peek("weight"), m.peek("first")
    assert weight.max() > 1
    want_before, want_head = {}, {}
    for h in m.active_ids()[m.peek("pred")[m.active_ids()] == NONE]:
        v, total = int(h), 0
        while v != NONE:
            want_before[v], want_head[v] = total, int(first[h])
            total += int(weight[v])
            v = int(succ[v])
    ids, before, head, _ = jumped(m)
    assert dict(zip(ids.tolist(), before.tolist())) == want_before
    assert dict(zip(ids.tolist(), head.tolist())) == want_head
    assert m.engine.metrics().erew_violations == 0


# -- contraction to threshold --------------------------------------------------

def test_threshold_1024_nodes_lists_of_16():
    f = generate(Workload(n=1024, length_distribution="FIXED",
                          fixed_length=16, seed=0))
    m = Machine(f, PramConfig(num_processors=64))
    layout(m)
    reports, stopped_by = contract_to_threshold(m)   # threshold 1024/4 = 256
    assert len(reports) <= 2 and stopped_by == "threshold"
    assert m.active_ids().size <= 256


def test_threshold_all_singletons_zero_passes():
    f = generate(Workload(n=64, num_lists=64, length_distribution="FIXED",
                          fixed_length=1, seed=0))
    m = Machine(f, PramConfig(num_processors=8))
    layout(m)
    assert contract_to_threshold(m) == ([], "threshold")


@pytest.mark.parametrize("seed", range(4))
def test_threshold_met_on_random_forests(seed):
    f = generate(Workload(n=512, num_lists=4, seed=seed, layout_shuffle=True))
    l = f.longest()
    m = Machine(f, PramConfig(num_processors=32))
    layout(m)
    threshold = f.n / max(1, int(np.ceil(np.log2(l))))
    # the default stops where a pass costs more than it saves; an
    # explicit threshold is contracted to
    _, stopped_by = contract_to_threshold(m, threshold=threshold)
    assert m.active_ids().size <= threshold and stopped_by == "threshold"


@pytest.mark.parametrize("dist, passes", [("SINGLE", 2), ("FIXED", 1)])
def test_default_stops_once_a_pass_costs_more_rounds_than_it_saves(dist, passes):
    # a later pass costs about a pass's narrow steps and saves one
    # doubling step of the jump per halving; the price picks the pass
    # count with the fewest rounds
    n = 2 ** 16
    f = generate(Workload(n=n, length_distribution=dist, fixed_length=64, seed=2))
    run = list_rank(f, p=n // 6)
    assert run.result.same_as(sequential_rank(f))
    assert (len(run.passes), run.stopped_by) == (passes, "priced")
    for k in (passes - 1, passes, passes + 1):
        if k:
            m, reports, result = contract_fully(f, n // 6, max_passes=k)
            assert result.same_as(run.result) and len(reports) == k
            rounds = m.engine.metrics().rounds
            assert rounds == run.metrics.rounds if k == passes else rounds > run.metrics.rounds
    # the paper's threshold stays a ceiling, and an explicit one is met
    # whatever the price
    threshold = n / int(np.ceil(np.log2(f.longest())))
    assert run.passes[-1].survivors > threshold
    m = Machine(f, PramConfig(num_processors=n // 6))
    layout(m)
    reports, stopped_by = contract_to_threshold(m, threshold=threshold)
    assert stopped_by == "threshold" and len(reports) > passes
    assert m.active_ids().size <= threshold


def test_contraction_that_leaves_the_array_empty_reports_a_stall():
    # lists of one node leave the array in pass 0's pool; no node is
    # left for a pass, though every one is still active (the default
    # threshold, n for l = 1, would run no pass)
    f = generate(Workload(n=96, length_distribution="FIXED", fixed_length=1, seed=1))
    m = Machine(f, PramConfig(num_processors=8))
    layout(m)
    reports, stopped_by = contract_to_threshold(m, threshold=0)
    assert [r.pooled for r in reports] == [96] and stopped_by == "stalled"
    assert m.in_array_ids().size == 0 and m.pending_fold is None
    # lists of three stay in the array: pass 0 contracts each to one
    # node, which pass 1's pool takes out
    f = generate(Workload(n=96, length_distribution="FIXED", fixed_length=3, seed=1))
    m = Machine(f, PramConfig(num_processors=8))
    layout(m)
    reports, stopped_by = contract_to_threshold(m, threshold=0)
    assert [(r.pooled, r.survivors) for r in reports] == [(16, 16), (16, 0)]
    assert stopped_by == "stalled" and m.in_array_ids().size == 0


# -- log replay -------------------------------------------------------------------

def batch(absorbed, host, side=SUCC_SIDE):
    a = np.asarray(absorbed, dtype=np.int64)
    return ContractBatch(absorbed=a, host=np.asarray(host, dtype=np.int64),
                         side=np.full(a.size, side), weight=np.ones(a.size, dtype=np.int64))


def test_replay_groups_split_at_a_shared_cell():
    # newest first: entries 4 and 3 touch disjoint cells; 2 reuses
    # host 4 of entry 3, 1 is disjoint from 2, and 0 reuses host 8 of 1
    log = [batch([9], [8]), batch([5], [8], PRED_SIDE), batch([6], [4]), batch([2], [4]),
           batch([1, 3], [0, 7])]
    groups = ranking.replay_groups(log, 10)
    order = {id(b): i for i, b in enumerate(log)}
    assert [[order[id(b)] for b in g] for g in groups] == [[4, 3], [2, 1], [0]]
    # entries that share an absorbed node never share a group either
    assert len(ranking.replay_groups([batch([1], [0]), batch([1], [2])], 3)) == 2


@pytest.mark.parametrize("seed", range(6))
def test_grouped_replay_matches_one_entry_at_a_time(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 3000))
    f = generate(Workload(n=n, num_lists=max(1, n // int(rng.integers(8, 200))),
                          length_distribution="GEOMETRIC", seed=seed, layout_shuffle=True))
    kwargs = dict(p=int(rng.integers(1, 64)), min_run=(4, 8, 100)[seed % 3],
                  layout_mode=("columns", "rows")[seed % 2])
    grouped = list_rank(f, **kwargs)
    monkeypatch.setattr(ranking, "replay_groups", lambda log, n: [[b] for b in reversed(log)])
    single = list_rank(f, **kwargs)
    assert grouped.result.same_as(single.result)
    assert grouped.result.same_as(sequential_rank(f))
    assert grouped.metrics.erew_violations == 0
    replay = [sum(v for k, v in run.metrics.phase_breakdown.items() if k.startswith("replay/"))
              for run in (grouped, single)]
    assert replay[0] <= replay[1]


def log_digest(log):
    h = hashlib.sha1()
    for b in log:
        for arr in (b.absorbed, b.host, b.side, b.weight):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return len(log), h.hexdigest()


@pytest.mark.parametrize("mode", ["columns", "rows"])
@pytest.mark.parametrize("p", [1, 3, None])
def test_replay_works_in_the_jump_stores_and_restores_weight(mode, p, monkeypatch):
    # the replay reads and writes the jump's rank and head stores and
    # the weight store: no seed step copies them, no rp_* store exists,
    # each absorbed node is one task of one group step, and every sum
    # the contraction made is taken off again
    machines = []
    replay = ranking.replay_ranks
    monkeypatch.setattr(ranking, "replay_ranks",
                        lambda machine, *a: machines.append(machine) or replay(machine, *a))
    f = generate(Workload(n=999, num_lists=5, length_distribution="GEOMETRIC", seed=11,
                          layout_shuffle=True))
    run = list_rank(f, p=p or f.n, min_run=8, layout_mode=mode)
    assert run.result.same_as(sequential_rank(f))
    assert run.metrics.erew_violations == 0
    (m,) = machines
    assert m.sentinel is not None and m.log
    assert "replay/seed" not in run.metrics.phase_breakdown
    assert not [s for s in ("rp_rank", "rp_w", "rp_h") if m.memory.has(s)]
    assert (sum(r.tasks for r in run.trace if r.label == "replay/group")
            == sum(b.absorbed.size for b in m.log))
    assert (m.peek("weight") == 1).all()


@pytest.mark.parametrize("n, seed, digest", [
    (4096, 3, (14, "8e233ad6474119a234c1392fb718906ae98d88ef")),
    (2 ** 14, 1, (16, "7ccb10ecda8e9c0c743c7f0c64859b36b678043c")),
])
def test_contraction_log_matches_recorded_run(n, seed, digest, monkeypatch):
    # GEOMETRIC lists of mean 256, shuffled, rows layout, min_run 8,
    # p = n/8; the entries (absorbed, host, side, weight) were recorded
    # when the layout placed nodes by id, localization pooled the lists
    # it left as one node, the coloring kept its largest color classes,
    # pairing took partners by the alternation rule and the priced stop
    # ran pass 0 alone (the log of the two passes run before was this
    # one and 7 and 10 more)
    logs = []
    replay = ranking.replay_ranks
    monkeypatch.setattr(ranking, "replay_ranks",
                        lambda machine, *a: logs.append(machine.log) or replay(machine, *a))
    f = generate(Workload(n=n, num_lists=n // 256, length_distribution="GEOMETRIC",
                          seed=seed, layout_shuffle=True))
    run = list_rank(f, p=n // 8, layout_mode="rows", min_run=8)
    assert run.result.same_as(sequential_rank(f))
    assert log_digest(logs[0]) == digest
    # the replay reads each entry's hosts in one step
    for b in logs[0]:
        assert np.unique(b.host).size == b.host.size
        assert not np.isin(b.host, b.absorbed).any()
    assert [k for k in run.metrics.phase_breakdown if "/localize/" in k and "/walk" in k]


# -- end to end -----------------------------------------------------------------

def test_list_rank_single_node():
    run = list_rank(LinkedForest(np.array([-1])))
    assert run.result.rank.tolist() == [0]


def test_list_rank_path_of_three():
    run = list_rank(path_forest(3), p=2)
    assert run.result.rank.tolist() == [0, 1, 2]


@pytest.mark.parametrize("seed", range(12))
def test_list_rank_matches_oracle_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 700))
    f = generate(Workload(n=n, num_lists=max(1, n // int(rng.integers(3, 30))),
                          length_distribution=("UNIFORM", "GEOMETRIC")[seed % 2],
                          seed=seed, layout_shuffle=bool(seed % 2)))
    run = list_rank(f, p=int(rng.integers(1, 48)))
    assert run.result.same_as(sequential_rank(f))
    assert run.metrics.erew_violations == 0


@pytest.mark.parametrize("seed", range(6))
def test_list_rank_row_layout_small_runs(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(24, 600))
    f = generate(Workload(n=n, num_lists=max(1, n // 40), seed=seed,
                          layout_shuffle=True))
    run = list_rank(f, p=16, min_run=4, layout_mode="rows")
    assert run.result.same_as(sequential_rank(f))
    assert run.metrics.erew_violations == 0


@pytest.mark.parametrize("mode", ["columns", "rows"])
def test_a_processor_count_past_int64_costs_what_one_per_task_costs(mode):
    # p = 2n + 2 already runs every step in one round, so p = 2**63
    # must price and run every step the same
    f = generate(Workload(n=64, num_lists=4, length_distribution="FIXED", fixed_length=16))
    big, wide = (list_rank(f, p=p, layout_mode=mode) for p in (2**63, 2 * f.n + 2))
    assert big.result.same_as(sequential_rank(f)) and wide.result.same_as(big.result)
    assert ((big.metrics.rounds, big.metrics.total_work)
            == (wide.metrics.rounds, wide.metrics.total_work))
    assert big.metrics.erew_violations == 0


@pytest.mark.parametrize("p", [1, 8])
def test_pair_claiming_an_unpaired_nodes_column_takes_its_other_column(p):
    # rows layout: when the layout placed lists in list order, a one-node
    # list was left by localization in the top row of the column a bottom
    # pair's keys pointed it to, and both would have survived into that
    # column's bottom cell; localization now pools such a list
    f = generate(Workload(n=56, num_lists=3, length_distribution="GEOMETRIC",
                          seed=40219035, layout_shuffle=True))
    run = list_rank(f, p=p, layout_mode="rows", min_run=100)
    assert run.result.same_as(sequential_rank(f))
    assert run.metrics.erew_violations == 0


@pytest.mark.parametrize("n, lists, seed, p, min_run", [
    (18, 3, 1309607927, 4, 100), (82, 3, 151439735, 5, 8), (116, 1, 533436600, 2, 100),
    (50, 2, 1637311011, 7, 100), (74, 2, 1495382808, 8, 100),
])
def test_open_chain_walks_from_its_colored_end(n, lists, seed, p, min_run):
    # when the layout placed lists in list order, these gave open column
    # chains with a colored unpaired node in the other-row cell at one
    # end, which the uniformity walk had to start from and turn its root
    # pair away from; localization now pools those one-node lists, and
    # either end of a chain serves
    f = generate(Workload(n=n, num_lists=lists, length_distribution="GEOMETRIC",
                          seed=seed, layout_shuffle=True))
    for procs in (1, p):
        run = list_rank(f, p=procs, layout_mode="rows", min_run=min_run)
        assert run.result.same_as(sequential_rank(f))
        assert run.metrics.erew_violations == 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("min_run", [8, 100])
@pytest.mark.parametrize("mode", ["columns", "rows"])
def test_grid_and_placement_agree_after_every_pass(mode, min_run, seed, monkeypatch):
    # the moves write from the source cells their callers hold; a wrong
    # one would leave a node behind in a cell it no longer occupies
    contract_pass, reports = ranking.uniform_contraction_pass, []

    def checked(machine, *args, **kwargs):
        reports.append(contract_pass(machine, *args, **kwargs))
        check_inverse(machine)
        return reports[-1]

    monkeypatch.setattr(ranking, "uniform_contraction_pass", checked)
    f = generate(Workload(n=1500, num_lists=6, seed=seed, layout_shuffle=True))
    _, _, result = contract_fully(f, 32, min_run, mode)
    assert result.same_as(sequential_rank(f))
    assert len(reports) >= 2


@pytest.mark.parametrize("e", [16, 18])
def test_pass_price_bounds_the_pass_it_prices(e, monkeypatch):
    # every pass runs one pool shape, so the records of pass i - 1,
    # scaled to the nodes pass i starts with, price pass i from above
    # and within 2 rounds; ordered single lists, p = n / 6
    n = 2 ** e
    p = n // 6
    forest = generate(Workload(n=n, length_distribution="SINGLE", seed=2))
    m = Machine(forest, PramConfig(num_processors=p))
    layout(m)
    trace, starts, active = m.engine.trace, [], []
    contract_pass = ranking.uniform_contraction_pass

    def marked(machine, *args, **kwargs):
        starts.append(len(trace))
        active.append(machine.active_ids().size)
        return contract_pass(machine, *args, **kwargs)

    monkeypatch.setattr(ranking, "uniform_contraction_pass", marked)
    contract_to_threshold(m, threshold=0, max_passes=3)
    starts.append(len(trace))
    for i in (1, 2):
        price = ranking.pass_price(trace[starts[i - 1]:starts[i]], active[i], active[i - 1], p)
        rounds = sum(r.rounds for r in trace[starts[i]:starts[i + 1]])
        assert rounds <= price <= rounds + 2, (i, price, rounds)


# the layers under a pass, as the second part of contract/p<i>/<layer>/...
PASS_LAYERS = {"pool", "localize", "rows", "both", "shortcut", "uniform", "orient", "pack",
               "fold"}


def test_every_step_label_belongs_to_a_known_layer():
    # per-layer accounting groups the step labels by these prefixes; a
    # fold runs only in a pass after the first, so a run forced through
    # two passes joins the default runs
    seen = set()
    for mode in ("columns", "rows"):
        f = generate(Workload(n=1000, num_lists=8, seed=5, layout_shuffle=True))
        forced, _, _ = contract_fully(f, 32, min_run=8, layout_mode=mode, max_passes=2)
        for label in [*list_rank(f, p=32, min_run=8, layout_mode=mode).metrics.phase_breakdown,
                      *forced.engine.metrics().phase_breakdown]:
            m = re.fullmatch(r"contract/p\d+/(\w+)/.+|(jump|replay)/.+", label)
            assert m and (m[2] or m[1] in PASS_LAYERS), label
            seen.add(m[1] or m[2])
    assert seen == PASS_LAYERS | {"jump", "replay"}


def test_list_rank_keeps_cuts_and_retirement_out_of_memory():
    # the pass registers hold every cut and row marks every absorbed
    # node, so no store or step keeps either
    f = generate(Workload(n=1000, num_lists=8, seed=5, layout_shuffle=True))
    m, reports, result = contract_fully(f, 32, 8, "rows")
    assert result.same_as(sequential_rank(f))
    assert len(reports) >= 2 and m.log
    assert not [s for s in ("cut", "status") if m.memory.has(s)]
    assert not [label for label in m.engine.metrics().phase_breakdown
                if label.endswith(("/cut/mark", "/uncut/clear", "/nbr2"))]


@pytest.mark.parametrize("min_run", [1, 0, -3])
def test_min_run_below_two_is_rejected(min_run):
    # a one-node run must be short, or localization could leave a node
    # of a longer list without a link; with min_run 1 FIXED l=256 lists
    # broke the orientation of the columns layout
    f = generate(Workload(n=4096, length_distribution="FIXED", fixed_length=256))
    with pytest.raises(ValueError, match="min_run"):
        list_rank(f, p=64, min_run=min_run)
    m = Machine(f, PramConfig(num_processors=64))
    layout(m)
    with pytest.raises(ValueError, match="min_run"):
        contract_to_threshold(m, min_run=min_run)
    assert m.engine.metrics().rounds == 0
    assert list_rank(f, p=64, min_run=2).result.same_as(sequential_rank(f))


def test_list_rank_without_contraction_matches():
    f = generate(Workload(n=300, num_lists=5, seed=3))
    a = wyllie_rank(f, p=8)
    b = sequential_rank(f)
    assert a.result.same_as(b)


def test_rank_csv_export():
    run = list_rank(path_forest(3))
    lines = run.result.to_csv().strip().splitlines()
    assert lines[0] == "node_id,list_head,rank"
    assert lines[1] == "0,0,0"
    assert lines[3] == "2,0,2"


# -- wyllie baseline --------------------------------------------------------------

def test_wyllie_matches_oracle():
    for seed in range(5):
        f = generate(Workload(n=257, num_lists=6, seed=seed, layout_shuffle=True))
        assert wyllie_rank(f, p=16).result.same_as(sequential_rank(f))


def test_wyllie_work_tracks_closed_form():
    n = 2**12
    for l in (4, 16, 64):
        f = generate(Workload(n=n, length_distribution="FIXED",
                              fixed_length=l, seed=2))
        run = wyllie_rank(f, p=64)
        closed = n * int(np.ceil(np.log2(l)))
        assert closed / 2 <= run.metrics.total_work <= closed * 2


def test_wyllie_two_node_lists_one_round():
    f = generate(Workload(n=64, length_distribution="FIXED",
                          fixed_length=2, seed=0))
    run = wyllie_rank(f, p=64)
    assert run.jump_rounds == 1


def test_pipeline_determinism():
    f = generate(Workload(n=431, num_lists=6, seed=11, layout_shuffle=True))
    runs = [list_rank(f, p=16, min_run=8, layout_mode="rows") for _ in range(2)]
    assert runs[0].result.same_as(runs[1].result)
    assert runs[0].metrics.rounds == runs[1].metrics.rounds
    assert runs[0].metrics.total_work == runs[1].metrics.total_work
    assert [r.survivors for r in runs[0].passes] == [r.survivors for r in runs[1].passes]
    assert runs[0].metrics.phase_breakdown == runs[1].metrics.phase_breakdown


def ledger_runs():
    """A list_rank call that wakes the two-row layers, one that shortens
    an odd closed chain, and a wyllie_rank call."""
    shuffled = generate(Workload(n=600, num_lists=9, seed=2, layout_shuffle=True))
    yield "two_rows", list_rank(shuffled, p=64, min_run=2, layout_mode="rows")
    yield "odd_chain", list_rank(odd_chain_forest(), p=4)
    yield "wyllie", wyllie_rank(shuffled, p=16)


def test_the_ledger_adds_up_to_the_metrics():
    # one record per step: its totals and per-label sums are the
    # call's, and every step of every layer the call ran is in it
    layers = {}
    for name, run in ledger_runs():
        m = run.metrics
        assert sum(r.rounds for r in run.trace) == m.rounds, name
        assert sum(r.work for r in run.trace) == m.total_work, name
        assert all(r.work == r.tasks > 0 and r.rounds >= 1 for r in run.trace), name
        rounds, work = {}, {}
        for r in run.trace:
            rounds[r.label] = rounds.get(r.label, 0) + r.rounds
            work[r.label] = work.get(r.label, 0) + r.work
        assert rounds == m.phase_breakdown and work == m.phase_work, name
        layers[name] = {r.label.split("/")[2] for r in run.trace if r.label.count("/") > 2}
    assert {"shortcut", "uniform", "orient"} <= layers["two_rows"]
    assert "uniform" in layers["odd_chain"]
    assert not layers["wyllie"]
