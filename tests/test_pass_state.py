import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import (Machine, PramConfig, Workload, generate, layout, list_rank,
                          sequential_rank)
from listcontract import orientation, pairing
from listcontract.orientation import PassReport, uniform_contraction_pass
from listcontract.model import POOLED
from listcontract.pram import NONE
from listcontract.steps import PassState
from conftest import forest_from_lists, list_order, read_state


def assert_registers(machine, state, cut):
    """The live tasks are exactly the nodes in the array, and their
    registers equal what restricted_neighbors and peek("row") give,
    without the links that cross rows once localization has cut them."""
    ids = state.live()
    assert np.array_equal(np.sort(ids), machine.in_array_ids())
    want = read_state(machine, ids)
    if cut:
        for nbr, row in ((want.sv, want.row_s), (want.pv, want.row_p)):
            cross = ids[(row[ids] != NONE) & (row[ids] != want.row[ids])]
            nbr[cross] = row[cross] = NONE
    for name in ("sv", "pv", "row", "row_s", "row_p", "col"):
        assert np.array_equal(getattr(state, name)[ids], getattr(want, name)[ids]), name


def checked(fn, calls):
    """fn, then a register check of every PassState among its
    arguments and results."""
    def run(machine, *args, **kwargs):
        out = fn(machine, *args, **kwargs)
        found = [*args, *kwargs.values(), *(out if isinstance(out, tuple) else (out,))]
        for state in (a for a in found if isinstance(a, PassState)):
            assert_registers(machine, state, "localize" in [*calls, fn.__name__])
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
          (pairing, "contract_batch"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 160), lists=st.integers(1, 6),
       mode=st.sampled_from(["columns", "rows"]), min_run=st.sampled_from([2, 8, 100]),
       p=st.integers(1, 8))
def test_registers_match_memory_after_every_phase(seed, n, lists, mode, min_run, p):
    forest = generate(Workload(n=n, num_lists=min(lists, n), length_distribution="GEOMETRIC",
                               seed=seed, layout_shuffle=True))
    m = Machine(forest, PramConfig(num_processors=p))
    layout(m, mode=mode)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for mod, name in PHASES:
            mp.setattr(mod, name, checked(getattr(mod, name), calls))
        uniform_contraction_pass(m, min_run=min_run)
    # a pass that pools every list stops after the pool
    assert calls[0] == "pool_short_lists"
    assert "form_pairs" in calls or m.in_array_ids().size == 0
    assert m.engine.metrics().erew_violations == 0


@pytest.mark.parametrize("mode", ["columns", "rows"])
@pytest.mark.parametrize("p", [1, 3, None])
def test_pool_takes_out_short_lists_in_two_wide_steps(mode, p):
    # lists of every length from 1 to 6 plus a long one, on shuffled ids
    lengths = [1, 2, 3, 4, 5, 6, 41]
    ids = np.random.default_rng(7).permutation(sum(lengths))
    ends = np.cumsum(lengths)
    forest = forest_from_lists(np.split(ids, ends[:-1]))
    n = forest.n
    m = Machine(forest, PramConfig(num_processors=p or n))
    layout(m, mode=mode)
    row, col = m.peek("row").copy(), m.peek("col").copy()
    steps = []
    step = m.engine.step
    m.engine.step = lambda label, n_tasks: steps.append((label, n_tasks)) or step(label, n_tasks)
    pooled, state = orientation.pool_short_lists(m)

    length = np.empty(n, dtype=np.int64)
    length[list_order(forest)] = np.repeat(forest.lengths, forest.lengths)
    keep = np.flatnonzero(length >= orientation.POOL_MIN_LEN)
    assert pooled == n - keep.size == 6
    assert np.array_equal(state.ids, keep) and np.array_equal(m.in_array_ids(), keep)
    assert (m.peek("row")[length < orientation.POOL_MIN_LEN] == POOLED).all()
    succ, pred = forest.succ, forest.pred
    want = {"sv": succ, "pv": pred, "row": row,
            "row_s": np.where(succ != NONE, row[succ], NONE),
            "row_p": np.where(pred != NONE, row[pred], NONE)}
    for name, reg in want.items():
        got = getattr(state, name)
        assert np.array_equal(got[keep], reg[keep]), name
        assert (np.delete(got, keep) == NONE).all(), name
    # two steps over every node in the array, then one narrower walk
    # from the list ends; the out step clears the pooled nodes' cells,
    # which the send step read
    walks = [(label, t) for label, t in steps if not label.endswith("/out_wr")]
    assert walks[:2] == [("pool/send", n), ("pool/recv", n)]
    assert [label for label, _ in walks[2:]] == ["pool/far"] and walks[2][1] < n
    assert steps[-1] == ("pool/out_wr", 6) and len(steps) == len(walks) + 1
    out = length < orientation.POOL_MIN_LEN
    slot = m.peek("slot")
    assert (slot[m.cell(row[out], col[out])] == NONE).all()
    assert np.array_equal(slot[m.cell(row[keep], col[keep])], keep)
    assert m.engine.metrics().erew_violations == 0


def recorded_pass(forest, p, mode, **kwargs):
    """One pass over forest; returns its report and its step labels."""
    m = Machine(forest, PramConfig(num_processors=p))
    layout(m, mode=mode)
    labels = []
    step = m.engine.step
    m.engine.step = lambda label, n_tasks: labels.append(label) or step(label, n_tasks)
    return uniform_contraction_pass(m, **kwargs), labels


def fixed64_pass():
    n = 4096
    forest = generate(Workload(n=n, length_distribution="FIXED", fixed_length=64))
    return recorded_pass(forest, n // 6, "columns")


def test_pass_reads_links_and_rows_once():
    # one FIXED l=64 pass: after the two wide pool steps read the state,
    # no step reads neighbors or rows again and the fold clears no slot
    # range; localization leaves one row, so no mailbox is published
    rep, labels = fixed64_pass()
    assert rep.shortcut_pairs == 0 and rep.halved
    assert labels[:2] == ["pass/pool/send", "pass/pool/recv"]
    rereads = ("/nbr", "/row_s", "/row_p", "fold/clear")
    assert not [label for label in labels if label.endswith(rereads)]
    assert not [label for label in labels if label.endswith("/mb_slot")]


def test_pass_rereads_no_pair_side_and_clears_no_pairing_scratch():
    # pairing writes every cell it reads, the merges take each pair's
    # side from a register, the pack leaves its hosts' pair and color
    # to the next pass, and color-2 elimination is one step
    _, labels = fixed64_pass()
    gone = ("/pairs/clear", "/side", "pack/exempt", "elim2/read_colors")
    assert not [label for label in labels if label.endswith(gone)]
    assert "pass/rows/pairs/propose" in labels
    # the shortcut still clears its merged nodes' pair and color, which
    # the uniformity step's mailboxes read, in one step for both rows;
    # unshuffled ids keep long runs on both rows of the rows layout
    forest = generate(Workload(n=4096, num_lists=16, seed=3))
    rep, labels = recorded_pass(forest, 512, "rows", min_run=8)
    assert rep.shortcut_pairs > 0
    assert [label for label in labels if label.endswith("/exempt")] == ["pass/shortcut/exempt"]
    assert not [label for label in labels if label.endswith("/side")]


def test_two_row_steps_run_only_when_both_rows_hold_a_node():
    # the columns layout loses its lower row to localization, so the
    # pass takes no shortcut, uniformity or key step, and packs as before
    rep, labels = fixed64_pass()
    assert not [label for label in labels
                if "/shortcut/" in label or "/uniform/" in label or "/orient/keys" in label]
    assert rep == PassReport(pre_active=4096, pooled=0, survivors=1024, columns_before=2048,
                             columns_after=1024, shortcut_pairs=0, odd_cycles=0,
                             survivors_in_bottom_row=True, halved=True)
    # the rows layout of unshuffled ids keeps both rows: one publish
    # and one key step
    forest = generate(Workload(n=4096, num_lists=16, seed=3))
    rep, labels = recorded_pass(forest, 512, "rows", min_run=8)
    for suffix in ("/uniform/mb_slot", "/orient/keys"):
        assert [label for label in labels if label.endswith(suffix)] == ["pass" + suffix]
    assert rep == PassReport(pre_active=4096, pooled=0, survivors=2039, columns_before=2048,
                             columns_after=1024, shortcut_pairs=1009, odd_cycles=0,
                             survivors_in_bottom_row=True, halved=True)


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
