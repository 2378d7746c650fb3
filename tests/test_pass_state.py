import importlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from listcontract import (Machine, Memory, PramConfig, Workload, generate, layout, list_rank,
                          sequential_rank)
from listcontract import orientation, pairing, pram
from listcontract.orientation import PassReport, fold_array, uniform_contraction_pass
from listcontract.model import INBOX, POOLED
from listcontract.pram import NONE
from listcontract.ranking import contract_to_threshold
from listcontract.steps import PassState, read_neighbor
from conftest import (assert_pair_registers, check_inverse, checked_mailbox_reads, contract_fully,
                      forest_from_lists, list_order, memory_state, odd_chain_forest, place)


def assert_registers(machine, state, cut):
    """The live tasks are exactly the nodes in the array, and their
    registers equal what restricted_neighbors and peek("row") give,
    without the links that cross rows once localization has cut them;
    on a side whose message waits unread, the message names that
    neighbor and its row instead. Once pairing has filled them, the
    pair registers join adjacent nodes (assert_pair_registers), and
    after pairing the pass keeps no link register."""
    ids = state.live()
    assert np.array_equal(np.sort(ids), machine.in_array_ids())
    if state.pair is not None:
        assert_pair_registers(machine, state)
    if state.sv is None:
        return
    want = memory_state(machine, ids)
    if cut:
        for nbr, row in ((want.sv, want.row_s), (want.pv, want.row_p)):
            cross = ids[(row[ids] != NONE) & (row[ids] != want.row[ids])]
            nbr[cross] = row[cross] = NONE
    for name in ("row", "col"):
        assert np.array_equal(getattr(state, name)[ids], getattr(want, name)[ids]), name
    for d, (nbr, row) in enumerate((("pv", "row_p"), ("sv", "row_s"))):
        wait = (state.pending[ids] >> d) & 1 == 1
        got = read_neighbor(machine, machine.peek(INBOX[d])[ids[wait]])
        for name, msg in zip((nbr, row), got):
            assert np.array_equal(msg, getattr(want, name)[ids[wait]]), name
            assert np.array_equal(getattr(state, name)[ids[~wait]],
                                  getattr(want, name)[ids[~wait]]), name


def checked(fn, calls):
    """fn, then a register check of every PassState among its
    arguments and results."""
    def run(machine, *args, **kwargs):
        out = fn(machine, *args, **kwargs)
        found = [*args, *kwargs.values(), *(out if isinstance(out, tuple) else (out,))]
        # the first coloring step cuts the cross links (localize.settle)
        cut = any(r.label.endswith("/color/dct") for r in machine.engine.trace)
        for state in (a for a in found if isinstance(a, PassState)):
            assert_registers(machine, state, cut)
            calls.append(fn.__name__)
        return out
    return run


# the package's localize function hides the module of that name
localize_mod = importlib.import_module("listcontract.localize")

# every phase that reads or updates the pass state, at the module
# attribute its caller looks up
PHASES = ((orientation, "pool_short_lists"), (localize_mod, "_absorb_short_runs"),
          (orientation, "localize"), (localize_mod, "contract_batch"),
          (pairing, "eliminate_twos"), (pairing, "form_pairs"),
          (pairing, "contract_batch"), (orientation, "partner_columns"),
          (orientation, "opposite_pair_shortcut"),
          (orientation, "enforce_uniformity"), (orientation, "merge_pairs"))

# named inputs whose pass 0 runs the two-row phases, as (forest, layout
# mode, min_run, p) and the phases that must run
SHORTCUT_FOREST = dict(n=4096, num_lists=16, seed=3)   # ids in order, 1016 shortcut pairs
GEO_ROWS_FOREST = dict(n=4096, num_lists=16, length_distribution="GEOMETRIC", seed=3,
                       layout_shuffle=True)            # the uniformity step swaps
NAMED_PASSES = {
    "shortcut": (lambda: generate(Workload(**SHORTCUT_FOREST)), "rows", 8, 512,
                 "opposite_pair_shortcut"),
    "odd_chain": (odd_chain_forest, "columns", 100, 4, "enforce_uniformity"),
    "geo_rows": (lambda: generate(Workload(**GEO_ROWS_FOREST)), "rows", 8, 512,
                 "enforce_uniformity"),
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 160), lists=st.integers(1, 6),
       mode=st.sampled_from(["columns", "rows"]), min_run=st.sampled_from([2, 8, 100]),
       p=st.integers(1, 8), named=st.none())
@example(seed=0, n=0, lists=0, mode="", min_run=0, p=0, named="shortcut")
@example(seed=0, n=0, lists=0, mode="", min_run=0, p=0, named="odd_chain")
@example(seed=0, n=0, lists=0, mode="", min_run=0, p=0, named="geo_rows")
def test_registers_match_memory_after_every_phase(seed, n, lists, mode, min_run, p, named):
    # a named input replaces the generated one
    if named:
        make, mode, min_run, p, phase = NAMED_PASSES[named]
        forest = make()
    else:
        forest = generate(Workload(n=n, num_lists=min(lists, n),
                                   length_distribution="GEOMETRIC", seed=seed,
                                   layout_shuffle=True))
    m = Machine(forest, PramConfig(num_processors=p))
    layout(m, mode=mode)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for mod, name in PHASES:
            mp.setattr(mod, name, checked(getattr(mod, name), calls))
        rep = uniform_contraction_pass(m, min_run=min_run)
    # a pass that pools every list stops after the pool
    assert calls[0] == "pool_short_lists"
    assert "form_pairs" in calls or m.in_array_ids().size == 0
    assert ("form_pairs" in calls) == (calls[-1] == "merge_pairs")
    if named:
        assert phase in calls
        assert rep.shortcut_pairs == (1016 if named == "shortcut" else 0)
        assert rep.odd_cycles == (named == "odd_chain")
    assert m.engine.metrics().erew_violations == 0


# the stores that hold a node's facts, and each function outside the
# engine that may peek one during a ranking call, with its store: the
# task-set scans
CORE_STORES = {"succ", "pred", "row", "col", "slot"}
PEEKERS = {("active_ids", "row"), ("in_array_ids", "row")}


def test_pipeline_peeks_no_core_store_outside_the_engine(monkeypatch):
    # every fact the plan uses between the layout and the replay comes
    # from a metered step or from the pass registers
    peek = Memory.peek
    seen, packers = set(), set()

    def audited(memory, name):
        caller = sys._getframe(1)
        if caller.f_code is Machine.peek.__code__:
            caller = caller.f_back
        if name in CORE_STORES and caller.f_globals["__name__"] != "listcontract.pram":
            seen.add((caller.f_code.co_name, name))
        if caller.f_code.co_name in ("merge_pairs", "fold_array"):
            packers.add((caller.f_code.co_name, name))
        return peek(memory, name)

    monkeypatch.setattr(Memory, "peek", audited)
    for make, mode, min_run, p, _ in NAMED_PASSES.values():
        forest = make()
        run = list_rank(forest, p=p, min_run=min_run, layout_mode=mode)
        assert run.result.same_as(sequential_rank(forest))
        assert run.metrics.erew_violations == 0
    assert seen <= PEEKERS, seen - PEEKERS
    # the pack and the fold peek no store at all, scratch ones included
    assert not packers, packers


@pytest.mark.parametrize("mode", ["columns", "rows"])
@pytest.mark.parametrize("p", [1, 3, None])
def test_pool_takes_out_short_lists_in_two_wide_steps(mode, p):
    # lists of every length from 1 to 6 plus a long one, on shuffled ids;
    # the one step takes out the list of one node alone, and the lists
    # of two and three stay for localization and pairing
    lengths = [1, 2, 3, 4, 5, 6, 41]
    ids = np.random.default_rng(7).permutation(sum(lengths))
    ends = np.cumsum(lengths)
    forest = forest_from_lists(np.split(ids, ends[:-1]))
    n = forest.n
    m = Machine(forest, PramConfig(num_processors=p or n))
    layout(m, mode=mode)
    row, col = m.peek("row").copy(), m.peek("col").copy()
    steps = recorded(m)
    pooled, state = orientation.pool_short_lists(m)

    length = np.empty(n, dtype=np.int64)
    length[list_order(forest)] = np.repeat(forest.lengths, forest.lengths)
    keep = np.flatnonzero(length > 1)
    assert pooled == n - keep.size == 1
    assert np.array_equal(state.ids, keep) and np.array_equal(m.in_array_ids(), keep)
    assert (m.peek("row")[length == 1] == POOLED).all()
    succ, pred = forest.succ, forest.pred
    want = {"sv": succ, "pv": pred, "row": row,
            "row_s": np.where(succ != NONE, row[succ], NONE),
            "row_p": np.where(pred != NONE, row[pred], NONE)}
    for name, reg in want.items():
        got = getattr(state, name)
        assert np.array_equal(got[keep], reg[keep]), name
        assert (np.delete(got, keep) == NONE).all(), name
    # one step over every node in the array, which pools the list of
    # one node itself, so no out step runs
    assert steps == [("pool/links", n)]
    out = length == 1
    slot = m.peek("slot")
    assert (slot[m.cell(row[out], col[out])] == NONE).all()
    assert np.array_equal(slot[m.cell(row[keep], col[keep])], keep)
    # the kept nodes' inbox cells name their neighbors and those rows
    for store, nbr, nbr_row in zip(INBOX, (state.pv, state.sv), (state.row_p, state.row_s)):
        got, got_row = read_neighbor(m, m.peek(store)[keep])
        assert np.array_equal(got, nbr[keep]) and np.array_equal(got_row, nbr_row[keep])
    assert m.engine.metrics().erew_violations == 0
    # every pass of a full run pools in that one step, and the ranks
    # are exact
    run = list_rank(forest, p=p or n, layout_mode=mode)
    assert run.result.same_as(sequential_rank(forest)) and run.metrics.erew_violations == 0
    pool = [r.label for r in run.trace if "/pool/" in r.label]
    assert run.passes and pool == [f"contract/p{i}/pool/links" for i in range(len(run.passes))]


def test_pool_refuses_a_placement_it_cannot_trust():
    # the pool learns the neighbors' rows from their ids after layout
    # and from the fold's messages after fold_array; any other
    # placement leaves inbox cells it cannot trust (an unwritten one
    # decodes as a neighbor on row 1), so it raises before any write
    forest = generate(Workload(n=256, length_distribution="FIXED", fixed_length=16))

    def refused(m, match):
        rounds, placed = m.engine.metrics().rounds, m.in_array_ids()
        with pytest.raises(ValueError, match=match):
            orientation.pool_short_lists(m)
        assert m.engine.metrics().rounds == rounds
        assert np.array_equal(m.in_array_ids(), placed)

    m = Machine(forest, PramConfig(num_processors=8))
    place(m, {v: (v % 2, v // 2) for v in range(forest.n)})
    refused(m, "placement made by layout or fold_array")
    # two nodes swapped by hand after the layout
    m = Machine(forest, PramConfig(num_processors=8))
    layout(m)
    m.memory.poke("row", [0, 1], [1, 0])
    m.memory.poke("slot", [m.cell(1, 0), m.cell(0, 0)], [0, 1])
    refused(m, "off the row the 'columns' layout gives it")
    # a pass's fold still pending: the pack left the survivors where
    # no layout puts them, and wrote no inbox cell
    m = Machine(forest, PramConfig(num_processors=8))
    layout(m)
    uniform_contraction_pass(m)
    assert m.pending_fold is not None
    refused(m, "placement made by layout or fold_array")
    # an inbox cell overwritten after the fold
    fold_array(m, *m.pending_fold)
    assert m.pending_fold is None
    v = m.in_array_ids()
    v = v[m.peek("pred")[v] != NONE][0]
    m.memory.poke("inbox_p", v, NONE)
    refused(m, "another neighbor than its node's link")


@pytest.mark.parametrize("mode", ["columns", "rows"])
@pytest.mark.parametrize("p", [1, 3, None])
def test_fold_leaves_each_survivor_its_neighbor_messages(mode, p, monkeypatch):
    # after every fold of a run forced through every pass, each
    # survivor's inbox_p and inbox_s cells name its memory pred and succ
    # and their rows, which the next pass's pool reads; odd n pads a
    # sentinel, and the ids are shuffled
    forest = generate(Workload(n=999, num_lists=5, length_distribution="GEOMETRIC", seed=11,
                               layout_shuffle=True))
    folds, fold = [], orientation.fold_array

    def checked(machine, ids, *args, **kwargs):
        fold(machine, ids, *args, **kwargs)
        assert np.array_equal(np.sort(ids), machine.in_array_ids())
        row = machine.peek("row")
        for store, link in zip(INBOX, ("pred", "succ")):
            nbr = machine.peek(link)[ids]
            got, got_row = read_neighbor(machine, machine.peek(store)[ids])
            assert np.array_equal(got, nbr), store
            assert np.array_equal(got_row, np.where(nbr != NONE, row[nbr], NONE)), store
        folds.append(ids.size)

    monkeypatch.setattr(orientation, "fold_array", checked)
    m, reports, result = contract_fully(forest, p or forest.n, min_run=8, layout_mode=mode)
    assert result.same_as(sequential_rank(forest))
    assert m.sentinel is not None and m.engine.metrics().erew_violations == 0
    # each pass folds the survivors of the one before it, and no pass
    # follows the last one
    assert len(folds) == len(reports) - 1 >= 3
    # every pass after the first opens with that fold, then pools in one
    # step over the nodes in the array, which the fold leaves
    trace = [(r.label, r.tasks) for r in m.engine.trace]
    for i, wide in enumerate([m.n] + folds):
        steps = [step for step in trace if step[0].startswith(f"contract/p{i}/")]
        assert_pool_shape(steps, f"contract/p{i}", wide)


def assert_pool_shape(steps, phase, wide):
    """steps, as (label, tasks), open with the previous pass's fold
    over wide survivors where phase is not pass 0's, then the pool's
    one step over the wide nodes in the array, and hold no other fold
    or pool step."""
    fold = [(label, t) for label, t in steps if label.startswith(f"{phase}/fold/")]
    pool = [(label, t) for label, t in steps if label.startswith(f"{phase}/pool/")]
    assert fold in ([], [(f"{phase}/fold/wr", wide)])
    assert pool == [(f"{phase}/pool/links", wide)]
    assert steps[:len(fold) + 1] == fold + pool


def assert_no_drop(trace):
    """No step of the ledger moves a survivor between rows: no /drop
    phase (the coloring's dropN steps are another thing), and every
    node move is the uniformity step's odd-chain shortening."""
    labels = [r.label for r in trace]
    assert not [label for label in labels if "/drop/" in label]
    assert all("/uniform/odd/" in label for label in labels if label.endswith("/move_wr"))


@pytest.mark.parametrize("mode", ["columns", "rows"])
@pytest.mark.parametrize("p", [1, 3, None])
def test_fold_places_each_survivor_in_its_column_top_cell(mode, p, monkeypatch):
    # every pass of a run forced through every pass, on shuffled ids
    # with the sentinel: no pass drops its top-row survivors, and in
    # fold/wr a top-row survivor writes no slot cell, while a
    # bottom-row one clears its cell and ends in its column's old top
    # cell, where the stepped cells put every survivor
    forest = generate(Workload(n=999, num_lists=5, length_distribution="GEOMETRIC", seed=11,
                               layout_shuffle=True))
    writes, rows, fold, write = [], [], orientation.fold_array, pram._StepContext.write

    def recorded_write(ctx, store, idx, values):
        if store == "slot" and ctx.label.endswith("/fold/wr"):
            writes.append(np.asarray(idx).copy())
        write(ctx, store, idx, values)

    def checked(machine, ids, cols, state, *args, **kwargs):
        bottom = machine.peek("row")[ids] == 1
        top, low = machine.cell(0, cols), machine.cell(1, cols)
        writes.clear()
        fold(machine, ids, cols, state, *args, **kwargs)
        written = np.concatenate(writes)
        assert np.array_equal(np.sort(written[written != NONE]),
                              np.sort(np.r_[top[bottom], low[bottom]]))
        slot = machine.peek("slot")
        assert np.array_equal(slot[top], ids) and (slot[low[bottom]] == NONE).all()
        assert np.array_equal(machine.cell(machine.peek("row")[ids], machine.peek("col")[ids]),
                              top)
        rows.append(bottom)

    monkeypatch.setattr(pram._StepContext, "write", recorded_write)
    monkeypatch.setattr(orientation, "fold_array", checked)
    m, reports, result = contract_fully(forest, p or forest.n, min_run=8, layout_mode=mode)
    assert result.same_as(sequential_rank(forest))
    assert m.sentinel is not None and m.engine.metrics().erew_violations == 0
    assert_no_drop(m.engine.trace)
    # survivors of both rows reached a fold
    rows = np.concatenate(rows)
    assert len(reports) >= 3 and rows.any() and not rows.all()


def test_last_pass_leaves_its_fold_undone():
    # pointer jumping and the replay read no cell, so no fold follows
    # the last pass's pack, whether list_rank runs one pass or two
    for dist, passes in (("FIXED", 1), ("SINGLE", 2)):
        n = 2 ** 14
        forest = generate(Workload(n=n, length_distribution=dist, fixed_length=64, seed=2))
        run = list_rank(forest, p=n // 6)
        assert run.result.same_as(sequential_rank(forest)) and len(run.passes) == passes
        labels = [r.label for r in run.trace]
        last_pack = max(i for i, label in enumerate(labels) if "/pack/" in label)
        assert not [label for label in labels[last_pack:] if "/fold/" in label]
        assert [label for label in labels if "/fold/" in label] == [
            f"contract/p{i}/fold/wr" for i in range(1, passes)]


def test_forced_second_pass_opens_with_the_first_pass_fold():
    # pass 0 leaves its plan pending, and pass 1 folds it once, in the
    # step right before its pool's, over pass 0's survivors
    n = 4096
    forest = generate(Workload(n=n, length_distribution="FIXED", fixed_length=64, seed=2))
    m = Machine(forest, PramConfig(num_processors=n // 6))
    layout(m)
    reports, _ = contract_to_threshold(m, threshold=0, max_passes=2)
    assert len(reports) == 2
    steps = [(r.label, r.tasks) for r in m.engine.trace]
    folds = [i for i, (label, _) in enumerate(steps) if "/fold/" in label]
    assert [steps[i] for i in folds] == [("contract/p1/fold/wr", reports[0].survivors)]
    assert steps[folds[0] + 1][0] == "contract/p1/pool/links"
    assert reports[1].columns_before == reports[0].columns_after == m.columns
    # pass 1's plan is left pending, with one survivor per column
    ids, cols, rows = m.pending_fold
    assert ids.size == reports[1].survivors == np.unique(cols).size
    assert np.array_equal(np.sort(ids), m.in_array_ids())
    assert np.array_equal(rows, m.peek("row")[ids])
    assert m.engine.metrics().erew_violations == 0


@pytest.mark.parametrize("named", sorted(NAMED_PASSES))
def test_list_rank_drops_no_survivor(named):
    # the inputs whose pass 0 takes the shortcut, shortens an odd chain
    # or swaps: the shortcut's merged top pair stays on the top row, and
    # only the odd chain moves a node
    make, mode, min_run, p, _ = NAMED_PASSES[named]
    forest = make()
    m = Machine(forest, PramConfig(num_processors=p))
    layout(m, mode=mode)
    contract_to_threshold(m, threshold=0, min_run=min_run)
    assert_no_drop(m.engine.trace)
    moves = [r.label for r in m.engine.trace if r.label.endswith("/move_wr")]
    assert bool(moves) == (named == "odd_chain")
    run = list_rank(forest, p=p, min_run=min_run, layout_mode=mode)
    assert run.result.same_as(sequential_rank(forest)) and run.metrics.erew_violations == 0
    assert_no_drop(run.metrics.trace)


def test_folds_down_to_one_column_keep_every_cell_in_the_slot_store(monkeypatch):
    # an 8-node list on shuffled ids, rows layout, forced through every
    # pass, folds 4 -> 2 -> 1 columns; every cell any phase computes
    # stays below the slot store's 2 * 4 cells
    cells, cell = [], Machine.cell

    def recorded_cell(machine, row, col):
        got = cell(machine, row, col)
        cells.append(int(np.max(got, initial=NONE)))
        return got

    monkeypatch.setattr(Machine, "cell", recorded_cell)
    forest = generate(Workload(n=8, length_distribution="SINGLE", seed=3, layout_shuffle=True))
    m, reports, result = contract_fully(forest, 3, min_run=2, layout_mode="rows", max_passes=99)
    assert result.same_as(sequential_rank(forest)) and m.engine.metrics().erew_violations == 0
    assert [r.columns_after for r in reports] == [2, 1, 1]
    assert (m.row_step, m.col_step) == (2, 4)
    assert max(cells) < m.memory.size("slot") == 8
    # a fold of the one column moves a bottom-row survivor into its top
    # cell, and the steps stay as they are
    place(m, {5: (1, 0)})
    fold_array(m, np.array([5]), np.array([0]), np.array([1]))
    assert m.columns == 1 and (m.row_step, m.col_step) == (2, 4)
    check_inverse(m)
    assert m.peek("slot")[0] == 5 and max(cells) < 8


def recorded(machine):
    """The (label, tasks) of every step machine opens from now on."""
    steps = []
    step = machine.engine.step
    machine.engine.step = lambda label, n_tasks: steps.append((label, n_tasks)) or step(
        label, n_tasks)
    return steps


def recorded_pass(forest, p, mode, **kwargs):
    """One pass over forest; returns its report, its step labels and
    its steps as (label, tasks)."""
    m = Machine(forest, PramConfig(num_processors=p))
    layout(m, mode=mode)
    steps = recorded(m)
    return uniform_contraction_pass(m, **kwargs), [label for label, _ in steps], steps


def fixed64_pass():
    n = 4096
    forest = generate(Workload(n=n, length_distribution="FIXED", fixed_length=64))
    return recorded_pass(forest, n // 6, "columns")


def test_pass_reads_links_and_rows_once():
    # one FIXED l=64 pass: after the one wide pool step reads the state,
    # no step reads neighbors or rows again, and the pass leaves its
    # fold pending; localization leaves one row, so no mailbox is
    # written
    rep, labels, steps = fixed64_pass()
    assert rep.shortcut_pairs == 0 and rep.columns_after == rep.columns_before // 2
    assert_pool_shape(steps, "pass", 4096)
    rereads = ("/nbr", "/row_s", "/row_p")
    assert not [label for label in labels if label.endswith(rereads) or "/fold/" in label]
    assert not [label for label in labels if label.endswith("/mb_pub")]


def test_pass_rereads_no_pair_side_and_clears_no_pairing_scratch():
    # pairing takes partners from the registers, the merges take each
    # pair's side from a register, the pack leaves its hosts' pair and
    # color to the next pass, and color-2 elimination is one step
    _, labels, _ = fixed64_pass()
    gone = ("/pairs/clear", "/side", "pack/exempt", "elim2/read_colors")
    assert not [label for label in labels if label.endswith(gone)]
    assert "pass/rows/elim2/recolor" in labels
    # the shortcut clears its merged nodes' pair and color in their
    # registers alone: their columns leave the both columns, whose
    # mailboxes alone a step reads. Unshuffled ids keep long runs on
    # both rows of the rows layout
    forest = generate(Workload(n=4096, num_lists=16, seed=3))
    rep, labels, _ = recorded_pass(forest, 512, "rows", min_run=8)
    assert rep.shortcut_pairs > 0
    assert not [label for label in labels if label.endswith(("/exempt", "/side"))]


def test_two_row_steps_run_only_when_both_rows_hold_a_node():
    # the columns layout loses its lower row to localization, so the
    # pass reads no both column and takes no shortcut, uniformity or key
    # step, and packs as before
    rep, labels, _ = fixed64_pass()
    assert not [label for label in labels if "/both/" in label or "/shortcut/" in label
                or "/uniform/" in label or "/orient/keys" in label]
    assert rep == PassReport(pre_active=4096, pooled=0, survivors=1024, columns_before=2048,
                             columns_after=1024, shortcut_pairs=0, odd_cycles=0)
    # the rows layout of unshuffled ids keeps both rows: one read of
    # the both columns and one step giving their nodes partner columns;
    # the aligned stacks fill every both column, so the shortcut empties
    # them and no key step runs
    forest = generate(Workload(n=4096, num_lists=16, seed=3))
    rep, labels, _ = recorded_pass(forest, 512, "rows", min_run=8)
    for suffix in ("/both/opp", "/both/pcol"):
        assert [label for label in labels if label.endswith(suffix)] == ["pass" + suffix]
    assert not [label for label in labels if label.endswith(("/mb_pub", "/orient/keys"))]
    assert rep == PassReport(pre_active=4096, pooled=0, survivors=2040, columns_before=2048,
                             columns_after=1024, shortcut_pairs=1016, odd_cycles=0)


def test_pairing_runs_only_narrow_steps():
    # the alternation rule pairs every node of FIXED lists from its
    # registers, so that pass runs no pairing step; on the shuffled
    # GEOMETRIC rows benchmark input only the loose nodes and the both
    # columns run any, each narrower than p
    _, labels, _ = fixed64_pass()
    assert not [label for label in labels if "/pairs/" in label]
    n = 2 ** 16
    forest = generate(Workload(n=n, num_lists=n // 256, length_distribution="GEOMETRIC",
                               seed=3, layout_shuffle=True))
    run = list_rank(forest, p=n // 8, layout_mode="rows", min_run=8)
    assert run.result.same_as(sequential_rank(forest))
    steps = [r for r in run.trace if "/pairs/" in r.label or r.label.endswith("/both/pcol")]
    assert [r for r in steps if r.label.endswith("/both/pcol")]
    assert max(r.tasks for r in steps) < n // 8


def test_partner_columns_fill_the_both_columns_alone(monkeypatch):
    # the both-column nodes read their partners' columns and write
    # their colors and those columns into the mailboxes at their cells,
    # which the shortcut and the sweep read; pairing filled no partner
    # column
    seen = []
    partner_columns = orientation.partner_columns

    def checked(machine, state, both, phase):
        assert (state.pcol == NONE).all()
        partner_columns(machine, state, both, phase)
        nodes = both.node.ravel()
        partner = state.pair[nodes]
        cells = machine.cell(state.row[nodes], state.col[nodes])
        assert np.array_equal(machine.peek("slot")[cells], nodes)
        assert np.array_equal(machine.peek("mb_color")[cells], state.color[nodes])
        assert np.array_equal(machine.peek("mb_pcol")[cells], state.pcol[nodes])
        assert np.array_equal(state.pcol[nodes],
                              np.where(partner != NONE, machine.peek("col")[partner], NONE))
        off = np.setdiff1d(state.live(), nodes)
        assert (state.pcol[off] == NONE).all()
        seen.append(nodes.size)
    monkeypatch.setattr(orientation, "partner_columns", checked)
    forest = generate(Workload(**GEO_ROWS_FOREST))
    run = list_rank(forest, p=512, layout_mode="rows", min_run=8)
    assert run.result.same_as(sequential_rank(forest))
    assert seen and all(seen)


@pytest.mark.parametrize("named", ["odd_chain", "shortcut", "geo_rows"])
def test_every_mailbox_read_of_a_list_rank_was_written_in_its_pass(named, monkeypatch):
    # memory keeps no pair or color store, and the mailboxes are the one
    # memory copy of the registers: each cell a step reads was written
    # in the same pass, by partner_columns or by the step that last
    # changed it, and holds the registers of the node now there
    make, mode, min_run, p, _ = NAMED_PASSES[named]
    partner_columns = orientation.partner_columns

    def tracked(machine, state, both, phase):
        audit.use(state)
        partner_columns(machine, state, both, phase)
    monkeypatch.setattr(orientation, "partner_columns", tracked)
    forest = make()
    with checked_mailbox_reads() as audit:
        run = list_rank(forest, p=p, min_run=min_run, layout_mode=mode)
    assert run.result.same_as(sequential_rank(forest))
    assert run.metrics.erew_violations == 0
    assert audit.reads
    assert not [r for r in run.trace if r.label.endswith(("/mb_pub", "/shortcut/exempt"))]


@pytest.mark.parametrize("min_run", [1, 0])
def test_pass_rejects_min_run_below_two(min_run):
    # with min_run 1 this columns-layout pass used to end in
    # OrientationError: a column claimed twice
    forest = generate(Workload(n=4096, length_distribution="FIXED", fixed_length=256))
    m = Machine(forest, PramConfig(num_processors=64))
    layout(m)
    with pytest.raises(ValueError, match="min_run must be at least 2"):
        uniform_contraction_pass(m, min_run=min_run)
    assert m.engine.metrics().rounds == 0


def test_kept_live_ids_match_rows_after_every_contraction():
    # a shuffled GEOMETRIC call whose localization and pairing both
    # absorb nodes; every contract_batch given a pass state drops its
    # absorbed tasks from the kept live ids
    forest = generate(Workload(n=4096, num_lists=16, length_distribution="GEOMETRIC",
                               seed=5, layout_shuffle=True))
    checked_calls = []

    def wrapped(contract):
        def run(machine, absorbed, host, side, phase, state=None, *args):
            contract(machine, absorbed, host, side, phase, state, *args)
            if state is not None:
                assert np.array_equal(state.live(), state.ids[state.row[state.ids] >= 0])
                checked_calls.append(phase)
        return run

    with pytest.MonkeyPatch.context() as mp:
        for mod in (localize_mod, pairing):
            mp.setattr(mod, "contract_batch", wrapped(mod.contract_batch))
        run = list_rank(forest, p=512, layout_mode="rows", min_run=8)
    assert run.result.same_as(sequential_rank(forest))
    assert run.metrics.erew_violations == 0
    assert any("/localize/" in k for k in checked_calls)
    assert any("/rows/" in k for k in checked_calls)
