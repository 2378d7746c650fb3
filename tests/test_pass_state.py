import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import Machine, PramConfig, Workload, generate, layout
from listcontract import orientation, pairing
from listcontract.orientation import PassReport, uniform_contraction_pass
from listcontract.pram import NONE
from listcontract.steps import PassState
from conftest import read_state


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
    for name in ("sv", "pv", "row", "row_s", "row_p"):
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
    # one FIXED l=64 pass: after the pool walks read the state, no step
    # reads neighbors or rows again and the fold clears no slot range;
    # localization leaves one row, so no mailbox is published
    rep, labels = fixed64_pass()
    assert rep.shortcut_pairs == 0 and rep.halved
    assert labels[:3] == ["pass/pool/walk0", "pass/pool/walk1", "pass/pool/walk2"]
    rereads = ("/nbr", "/row_s", "/row_p", "fold/clear")
    assert not [label for label in labels if label.endswith(rereads)]
    assert not [label for label in labels if label.endswith("/mb_slot")]


def test_two_row_steps_run_only_when_both_rows_hold_a_node():
    # the columns layout loses its lower row to localization, so the
    # pass takes no shortcut, uniformity or key step, and packs as before
    rep, labels = fixed64_pass()
    assert not [label for label in labels
                if "/shortcut/" in label or "/uniform/" in label or "/orient/keys" in label]
    assert rep == PassReport(pre_active=4096, pooled=0, survivors=1024, columns_before=2048,
                             columns_after=1024, shortcut_pairs=0, odd_cycles=0,
                             survivors_in_bottom_row=True, halved=True)
    # the rows layout keeps both rows: one publish and one key step
    forest = generate(Workload(n=4096, num_lists=16, seed=3, layout_shuffle=True))
    rep, labels = recorded_pass(forest, 512, "rows", min_run=8)
    for suffix in ("/uniform/mb_slot", "/orient/keys"):
        assert [label for label in labels if label.endswith(suffix)] == ["pass" + suffix]
    assert rep == PassReport(pre_active=4096, pooled=0, survivors=1676, columns_before=2048,
                             columns_after=1024, shortcut_pairs=226, odd_cycles=0,
                             survivors_in_bottom_row=True, halved=True)
