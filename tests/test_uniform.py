import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import (Machine, OrientationError, PramConfig, UncoveredCaseError, Workload,
                          generate, layout, list_rank, orientation, sequential_rank, uniform)
from listcontract.orientation import derive_orientation, fold_array, uniform_contraction_pass
from listcontract.pram import NONE
from listcontract.steps import pool_nodes
from listcontract.uniform import (both_columns, color_and_pair, enforce_uniformity, merge_pairs,
                                  opposite_pair_shortcut, partner_columns)
from conftest import (MAILBOXES, check_inverse, check_packed, checked_mailbox_reads,
                      contract_fully, enumerated_states, fresh, marked_pairs, odd_chain_forest,
                      pair_state, paired_state, path_forest, place, read_both, read_state,
                      snapshot, states_equal, validate_pairs)


# the pointer and the three value stores of the sweep's doubling, both buffers
SWEEP_STORES = [f"cs_{f}{b}" for f in ("j", "v0", "v1", "v2") for b in (0, 1)]


def step_rounds(machine, suffix):
    """Rounds per step label, for the labels ending with suffix."""
    return {k: v for k, v in machine.engine.metrics().phase_breakdown.items()
            if k.endswith(suffix)}


# -- color_and_pair ---------------------------------------------------------

def test_row_pipeline_pairs_all_bottom_nodes():
    m = Machine(path_forest(8), PramConfig(num_processors=8))
    place(m, {v: (1, v) for v in range(8)})
    state = read_state(m)
    color_and_pair(m, state)
    validate_pairs(m, state)
    assert (state.pair[state.live()] != NONE).all()


def test_row_pipeline_single_pair_idempotent_shape():
    m = Machine(path_forest(2), PramConfig(num_processors=4))
    place(m, {0: (1, 0), 1: (1, 1)})
    state = read_state(m)
    color_and_pair(m, state)
    assert state.live().size == 2
    assert state.pair[[0, 1]].tolist() == [1, 0]


def test_row_pipelines_independent_rows():
    m = Machine(path_forest(8), PramConfig(num_processors=8))
    place(m, {v: (0, v) for v in range(4)} | {v: (1, v - 4) for v in range(4, 8)})
    # the two placements belong to one list; cut the crossing link
    # first, in the registers, as localization does
    state = read_state(m)
    state.sv[3] = state.row_s[3] = state.pv[4] = state.row_p[4] = NONE
    color_and_pair(m, state)
    validate_pairs(m, state)
    # both rows in one call: every node paired, no pair crosses the cut
    ids = state.live()
    pair = state.pair[ids]
    assert (pair != NONE).all()
    assert ((ids <= 3) == (pair <= 3)).all()


# -- opposite_pair_shortcut ---------------------------------------------------

def aligned_stack(c1=4, c2=5):
    return paired_state(
        bottom=[((c1, c2), (0, 1))],
        top=[((c1, c2), (1, 0))],
        columns=8,
    )


def test_shortcut_consumes_aligned_stack():
    m, pairs, state = aligned_stack()
    both = read_both(m, state)
    consumed = opposite_pair_shortcut(m, state, both)
    assert consumed == 1
    assert both.cols.size == 0          # the stack's columns leave both
    b0, b1 = pairs[(1, 0)]
    t0, t1 = pairs[(0, 0)]
    # the merged top pair keeps its cell at the 0-colored bottom
    # member's column, which that member left, and the merged bottom
    # pair its cell at the other: one survivor per column, no move step
    assert m.grid().tolist()[0][4:6] == [t0, NONE] and m.grid().tolist()[1][4:6] == [NONE, b1]
    assert np.array_equal(m.in_array_ids(), np.sort([t0, b1]))
    assert m.peek("weight")[[t0, b1]].tolist() == [2, 2]
    assert not step_rounds(m, "/move_wr")
    check_inverse(m)


def test_shortcut_noop_without_top_pair():
    m, _, state = paired_state(
        bottom=[((4, 5), (0, 1))],
        top=[((5, 6), (1, 0))],   # offset by one: not aligned
        columns=8,
    )
    assert opposite_pair_shortcut(m, state, read_both(m, state)) == 0
    assert m.in_array_ids().size == 4


def test_shortcut_from_the_top_row_merges_stacks_in_bottom_leader_order():
    # the top row has fewer pairs over two both columns (the two stacks)
    # than the bottom row (three), so the shortcut reads from it; the
    # merges still take the stacks in their bottom leaders' id order, as
    # a read from the bottom row does, and log the same entries
    m, pairs, state = paired_state(
        bottom=[((2, 3), (0, 1)), ((0, 1), (0, 1)), ((4, 5), (0, 1))],
        top=[((0, 1), (1, 0)), ((2, 3), (1, 0)), ((4, 6), (0, 1)), ((5, 7), (0, 1))],
        columns=8,
    )
    assert opposite_pair_shortcut(m, state, read_both(m, state)) == 2
    assert m.engine.metrics().phase_work["shortcut/rd_pair"] == 2
    # the bottom merge hosts the 1-colored members: pair 0 (columns 2,
    # 3) has the smaller leader id, though pair 1 has the smaller column
    assert m.log[0].host.tolist() == [pairs[(1, 0)][1], pairs[(1, 1)][1]]


def test_aligned_stack_left_for_uniformity_is_refused():
    m, _, state = aligned_stack()
    with pytest.raises(UncoveredCaseError):
        enforce_uniformity(m, state, read_both(m, state))


def test_shortcut_weight_conservation():
    m, _, state = aligned_stack()
    total = int(m.peek("weight")[m.active_ids()].sum())
    opposite_pair_shortcut(m, state, read_both(m, state))
    assert int(m.peek("weight")[m.active_ids()].sum()) == total


# -- enforce_uniformity: the worked configurations ---------------------------

def s_configuration():
    """Top colors (0,1,0,0,1,0) over columns 0-5: the bottom pairs at
    0,1 and 4,5 are mismatched, facing each other across the matched
    pair at 2,3."""
    return paired_state(
        bottom=[((0, 1), (0, 1)), ((2, 3), (0, 1)), ((4, 5), (0, 1))],
        top=[((1, 2), (1, 0)), ((3, 4), (0, 1)),
             ((0, 6), (0, 1)), ((5, 7), (0, 1))],
        columns=8,
    )


def c_configuration():
    """Top colors (0,1,0,0,1,1) over columns 0-5: the bottom pair at
    0,1 is mismatched, the two after it are matched."""
    return paired_state(
        bottom=[((0, 1), (0, 1)), ((2, 3), (0, 1)), ((4, 5), (0, 1))],
        top=[((1, 2), (1, 0)), ((3, 4), (0, 1)),
             ((0, 6), (0, 1)), ((5, 7), (1, 0))],
        columns=8,
    )


def test_s_and_c_configurations_take_one_swap_batch():
    for m, _, state in (s_configuration(), c_configuration()):
        assert enforce_uniformity(m, state, read_both(m, state)) == 0
        assert not marked_pairs(m, state)
        assert len(step_rounds(m, "/swap_wr")) == 1
        assert not m.log and not step_rounds(m, "/move_wr")


def closed_chain(k, seed, bottom=(), top=(), columns=0):
    """k bottom and k top pairs closing one chain over 2k permuted
    columns, with random pair colors, beside the given pairs on
    columns 2k to 2k + columns - 1."""
    rng = np.random.default_rng(seed)
    p = rng.permutation(2 * k).tolist()
    colors = [(0, 1) if rng.integers(0, 2) else (1, 0) for _ in range(2 * k)]
    bottom = [((p[2 * i], p[2 * i + 1]), colors[i]) for i in range(k)] + list(bottom)
    top = [((p[2 * i + 1], p[(2 * i + 2) % (2 * k)]), colors[k + i]) for i in range(k)] + list(top)
    # one processor: a step's rounds count its tasks
    return paired_state(bottom=bottom, top=top, columns=2 * k + columns, p=1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 5, 7])
def test_odd_closed_chain_is_shortened_once(k, seed):
    m, _, state = closed_chain(k, seed)
    pre_weight = int(m.peek("weight")[m.active_ids()].sum())
    both = read_both(m, state)
    assert enforce_uniformity(m, state, both) == 1
    assert all(m.memory.has(st) for st in SWEEP_STORES)
    assert len(m.log) == 1 and m.log[0].absorbed.size == 1
    assert list(step_rounds(m, "/move_wr").values()) == [1]
    check_inverse(m)
    assert not marked_pairs(m, state)
    # the shortening kept the column set current: one column less
    assert np.array_equal(both.cols, read_both(m).cols) and both.cols.size == 2 * k - 1
    plan = derive_orientation(m, state, both)
    merge_pairs(m, plan.plan_absorbed, plan.plan_host, state, "pack")
    check_packed(m, plan, pre_weight)
    fold_array(m, plan.survivors, plan.columns, state.row[plan.survivors])
    check_inverse(m)


def checked_merges(seen):
    """merge_pairs that first checks the side register against memory:
    each absorbed node's bit is whether its successor is its host, and
    otherwise its predecessor is. Appends each merge's phase."""
    merge = uniform.merge_pairs

    def run(machine, absorbed, host, state, phase):
        succ, pred = machine.peek("succ")[absorbed], machine.peek("pred")[absorbed]
        at_succ = state.at_succ[absorbed]
        assert np.array_equal(at_succ, succ == host), phase
        assert np.array_equal(np.where(at_succ, succ, pred), host), phase
        seen.append(phase)
        merge(machine, absorbed, host, state, phase)
    return run


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 5])
def test_odd_chain_merge_takes_its_sides_from_the_register(k, seed, monkeypatch):
    # closed chains of 3 and 5 pairs a row check the odd-chain merge
    # beyond the one list_rank input below, with the register taken
    # before the step starts
    m, _, state = closed_chain(k, seed)
    both = read_both(m, state)
    seen = []
    monkeypatch.setattr(uniform, "merge_pairs", checked_merges(seen))
    assert enforce_uniformity(m, state, both) == 1
    assert seen == ["uniform/odd"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 300), lists=st.integers(1, 6),
       mode=st.sampled_from(["columns", "rows"]), min_run=st.sampled_from([2, 8, 100]),
       p=st.integers(1, 8))
def test_side_register_matches_memory_at_every_merge(seed, n, lists, mode, min_run, p):
    # the pass hands the side bits from pairing to the pack, the
    # shortcut and the odd-chain merges, which read no link
    forest = generate(Workload(n=n, num_lists=min(lists, n), length_distribution="GEOMETRIC",
                               seed=seed, layout_shuffle=True))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        checked = checked_merges(seen)
        mp.setattr(uniform, "merge_pairs", checked)
        mp.setattr(orientation, "merge_pairs", checked)
        run = list_rank(forest, p=p, min_run=min_run, layout_mode=mode)
    assert run.result.same_as(sequential_rank(forest))
    assert run.metrics.erew_violations == 0
    assert all(ph.rsplit("/", 1)[-1] in ("pack", "bot", "top", "odd") for ph in seen)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [2, 4, 6])
def test_even_closed_chain_takes_swaps_only(k, seed):
    m, _, state = closed_chain(k, seed)
    assert enforce_uniformity(m, state, read_both(m, state)) == 0
    assert not m.log and not step_rounds(m, "/move_wr")
    assert not marked_pairs(m, state)


def test_list_rank_meets_a_closed_chain_and_matches_the_oracle():
    # placed by id, the shuffled lists of a rows layout leave closed
    # column chains in pass 0, which the sweep opens at their smallest
    # top-row state and walks again; none of them is odd
    f = generate(Workload(n=600, num_lists=9, seed=2, layout_shuffle=True))
    run = list_rank(f, p=64, min_run=2, layout_mode="rows")
    assert [k for k in run.metrics.phase_breakdown if "/uniform/plan/c/" in k]
    # the sweep's doubling ends after the first round in which no
    # pointer runs out, when only the 8 closed-chain states are live:
    # round 4 runs them and the 4 whose pointers ran out in round 3,
    # where the limit would have run to round 7
    d = [(r.label.rsplit("/", 1)[1], r.tasks) for r in run.trace if "/uniform/plan/d/r" in r.label]
    assert d[-1] == ("r4", 12)
    assert run.result.same_as(sequential_rank(f))
    assert run.metrics.erew_violations == 0
    assert sum(rep.odd_cycles for rep in run.passes) == 0


@pytest.mark.parametrize("p", [1, 4, 14])
def test_list_rank_shortens_an_odd_closed_chain_and_matches_the_oracle(p):
    # pairing in pass 0 closes one column chain with an odd number of
    # top pairs, which no swap can clear: the step shortens it, then
    # plans again
    f = odd_chain_forest()
    run = list_rank(f, p=p)
    labels = list(run.metrics.phase_breakdown)
    assert [k for k in labels if k.startswith("contract/p0/uniform/odd/")]
    assert [k for k in labels if k.startswith("contract/p0/uniform/replan/")]
    assert run.passes[0].odd_cycles == 1
    assert run.result.same_as(sequential_rank(f))
    assert run.metrics.erew_violations == 0


@pytest.mark.parametrize("seed", range(3))
def test_sweep_doubling_runs_only_the_closed_chain_once_open_chains_finish(seed):
    # an even closed chain of 8 pairs a row (32 states, one per column
    # and row) beside an open chain of bottom pairs (16, 17), (18, 19) and
    # top pair (17, 18): only 17 and 18 are both columns, so its 4 states
    # walk two 2-state chains, each rooted at the state its bottom pair's
    # far end would have fed, and their pointers have all run out by the
    # start of round 1. Round 1 adds only the two states whose pointer
    # ran out in round 0, and later rounds run the closed chain's states
    # alone, until each has folded all 32 of them
    k = 8
    o = 2 * k
    m, _, state = closed_chain(k, seed, bottom=[((o, o + 1), (0, 1)), ((o + 2, o + 3), (1, 0))],
                               top=[((o + 1, o + 2), (1, 0))], columns=4)
    assert marked_pairs(m, state)
    assert enforce_uniformity(m, state, read_both(m, state)) == 0
    assert not marked_pairs(m, state)
    d = [(r.label.rsplit("/", 1)[1], r.tasks) for r in m.engine.trace if "/plan/d/" in r.label]
    assert d == [("init", 36), ("r0", 36), ("r1", 34)] + [
        (f"r{r}", 4 * k) for r in range(2, int(np.log2(4 * k)))]
    assert m.engine.metrics().erew_violations == 0


@pytest.mark.parametrize("n", [2 ** 12, 2 ** 14])
def test_two_row_steps_scale_with_the_both_columns(n, monkeypatch):
    # shuffled GEOMETRIC lists in the rows layout leave a few nodes on
    # one row after localization, over a small share of the columns
    both_count = {}

    def counted(machine, ids, rows, col, phase):
        both = both_columns(machine, ids, rows, col, phase)
        both_count[phase.rsplit("/", 1)[0]] = both.cols.size
        return both
    monkeypatch.setattr(orientation, "both_columns", counted)
    f = generate(Workload(n=n, num_lists=n // 256, length_distribution="GEOMETRIC", seed=1,
                          layout_shuffle=True))
    run = list_rank(f, p=n // 8, min_run=8, layout_mode="rows")
    assert run.result.same_as(sequential_rank(f))
    assert run.metrics.erew_violations == 0
    steps = [r for r in run.trace
             if any(f"/{layer}/" in r.label for layer in ("shortcut", "uniform", "orient"))]
    assert [r for r in steps if "/uniform/plan/d/" in r.label]
    for r in steps:
        count = both_count["/".join(r.label.split("/")[:2])]   # contract/p<i>
        assert r.tasks <= 4 * count, (r.label, r.tasks, count)
    assert 0 < max(both_count.values()) < n // 8


def test_matched_pairs_are_left_alone():
    m, _, state = paired_state(
        bottom=[((0, 1), (0, 1)), ((2, 3), (1, 0))],
        top=[((1, 2), (0, 1)), ((3, 0), (1, 0))],
        columns=4,
    )
    both = read_both(m, state)
    before = snapshot(m)
    assert enforce_uniformity(m, state, both) == 0
    assert states_equal(before, snapshot(m))
    assert not m.log and not step_rounds(m, "/swap_wr")
    # nothing marked: the sweep's doubling stores are never allocated
    assert not any(m.memory.has(st) for st in SWEEP_STORES)


def test_chain_case_clears_long_mismatch_runs():
    # every bottom pair mismatched: top colors 0,1 alternating along
    # ten pairs, the derived-chain configuration
    k = 10
    bottom = [((2 * i, 2 * i + 1), (0, 1)) for i in range(k)]
    top = [((2 * i + 1, 2 * i + 2), (1, 0)) for i in range(k - 1)]
    top.append(((0, 2 * k), (0, 1)))        # endpoints pair off-chain
    top.append(((2 * k - 1, 2 * k + 1), (1, 0)))
    m, _, state = paired_state(bottom=bottom, top=top, columns=2 * k + 2)
    enforce_uniformity(m, state, read_both(m, state))
    assert not marked_pairs(m, state)


def test_mismatched_bottoms_under_matched_tops_cleared_in_one_call():
    m, _, state = paired_state(
        bottom=[((1, 2), (1, 0)), ((3, 4), (0, 1))],
        top=[((0, 1), (0, 1)), ((2, 3), (1, 0)), ((4, 5), (0, 1))],
        columns=6,
    )
    enforce_uniformity(m, state, read_both(m, state))
    assert not marked_pairs(m, state)


# -- orientation and packing ---------------------------------------------

def full_period_state():
    """Four columns keyed 0,1,3,2: tops 0,0,1,1 and bottoms 0,1,1,0,
    closed into one chain by the wrap-around top pair."""
    return paired_state(
        bottom=[((0, 1), (0, 1)), ((2, 3), (1, 0))],
        top=[((1, 2), (0, 1)), ((3, 0), (1, 0))],
        columns=4,
    )


def test_orientation_keys_full_period():
    m, _, state = full_period_state()
    plan = derive_orientation(m, state, read_both(m, state))
    assert plan.key[:4].tolist() == [0, 1, 3, 2]


def test_orientation_reversed_pattern_is_backward():
    m, _, state = paired_state(
        bottom=[((0, 1), (0, 1)), ((2, 3), (1, 0))],
        top=[((1, 2), (1, 0)), ((3, 0), (0, 1))],
        columns=4,
    )
    plan = derive_orientation(m, state, read_both(m, state))
    assert plan.key[:4].tolist() == [2, 3, 1, 0]


@pytest.mark.parametrize("row", [0, 1])
def test_single_row_pairs_claim_their_zero_colored_column(row):
    # with the other row empty every key is NONE: no key step, no
    # mailbox, and each pair claims its 0-colored member's column
    pairs = [((0, 1), (1, 0)), ((2, 5), (0, 1)), ((4, 3), (0, 1))]
    m, nodes, state = paired_state(bottom=pairs if row else [], top=[] if row else pairs,
                                   columns=6)
    plan = derive_orientation(m, state, read_both(m, state))
    assert not m.engine.metrics().phase_breakdown
    assert (plan.key == NONE).all()
    claimed = dict(zip(plan.survivors.tolist(), plan.columns.tolist()))
    zero_cols = {nodes[(row, i)][colors.index(0)]: cols[colors.index(0)]
                 for i, (cols, colors) in enumerate(pairs)}
    assert claimed == zero_cols
    assert (m.peek("row")[plan.survivors] == row).all()


def test_merge_pairs_packs_full_period():
    m, _, state = full_period_state()
    plan = derive_orientation(m, state, read_both(m, state))
    cells = {int(v): (int(state.row[v]), int(state.col[v])) for v in plan.survivors}
    merge_pairs(m, plan.plan_absorbed, plan.plan_host, state, "pack")
    assert plan.survivors.size == 4      # each pair merged once
    check_packed(m, plan, 8)
    # the hosts stay where they are, on both rows
    assert {v: (int(m.peek("row")[v]), int(m.peek("col")[v])) for v in cells} == cells
    assert {r for r, _ in cells.values()} == {0, 1}


def test_aligned_shortcut_survivors_left_untouched_by_packing():
    m, _, state = aligned_stack()
    both = read_both(m, state)
    opposite_pair_shortcut(m, state, both)
    before = {int(v): (int(m.peek("row")[v]), int(m.peek("col")[v]))
              for v in m.in_array_ids()}
    plan = derive_orientation(m, state, both)
    merge_pairs(m, plan.plan_absorbed, plan.plan_host, state, "pack")
    after = {int(v): (int(m.peek("row")[v]), int(m.peek("col")[v]))
             for v in m.in_array_ids()}
    assert before == after


def test_full_pass_packs_random_instance():
    from listcontract import Workload, generate
    fo = generate(Workload(n=10_000, num_lists=9, seed=5, layout_shuffle=True))
    m = Machine(fo, PramConfig(num_processors=64))
    layout(m, mode="rows")
    rep = uniform_contraction_pass(m, min_run=8)
    assert rep.odd_cycles == 0
    check_inverse(m)
    assert rep.survivors <= rep.pre_active / 2
    # the pass leaves its fold to the next one; run here, it halves the
    # columns as the report says
    assert m.columns == rep.columns_before
    fold_array(m, *m.pending_fold)
    check_inverse(m)
    assert m.columns == -(-rep.columns_before // 2) == rep.columns_after
    assert int(m.peek("weight")[m.active_ids()].sum()) == m.n


def test_fold_halves_columns_and_keeps_inverse():
    m, _, state = full_period_state()
    plan = derive_orientation(m, state, read_both(m, state))
    merge_pairs(m, plan.plan_absorbed, plan.plan_host, state, "pack")
    check_packed(m, plan, 8)
    top = m.cell(0, plan.columns)
    fold_array(m, plan.survivors, plan.columns, state.row[plan.survivors])
    assert m.columns == 2 and (m.row_step, m.col_step) == (1, 2)
    check_inverse(m)
    # each survivor sits in its column's old top cell
    assert np.array_equal(m.cell(m.peek("row")[plan.survivors], m.peek("col")[plan.survivors]),
                          top)
    assert np.array_equal(m.peek("slot")[top], plan.survivors)


def random_two_row_state(rng, columns=12):
    """Arbitrary disjoint pair placements per row, arbitrary colors."""
    def row_pairs(cols):
        cols = list(cols)
        rng.shuffle(cols)
        used = cols[: 2 * (len(cols) // 2 if rng.integers(0, 2) else
                           max(1, len(cols) // 3))]
        out = []
        for i in range(0, len(used) - 1, 2):
            colors = (0, 1) if rng.integers(0, 2) else (1, 0)
            out.append(((used[i], used[i + 1]), colors))
        return out
    bottom = row_pairs(range(columns))
    top = row_pairs(range(columns))
    return paired_state(bottom=bottom, top=top, columns=columns)


@pytest.mark.parametrize("seed", range(60))
def test_random_geometry_uniformity_and_packing(seed):
    # arbitrary chain tangles, beyond the systematic enumeration
    rng = np.random.default_rng(seed)
    m, _, state = random_two_row_state(rng)
    pre_weight = int(m.peek("weight")[m.active_ids()].sum())
    both = read_both(m, state)
    opposite_pair_shortcut(m, state, both)
    enforce_uniformity(m, state, both)
    assert not marked_pairs(m, state)
    plan = derive_orientation(m, state, both)
    merge_pairs(m, plan.plan_absorbed, plan.plan_host, state, "pack")
    check_packed(m, plan, pre_weight)
    fold_array(m, plan.survivors, plan.columns, state.row[plan.survivors])
    check_inverse(m)
    assert m.engine.metrics().erew_violations == 0


# -- mailboxes and the uniformity check --------------------------------------

def uniformity_states():
    for seed in range(60):
        yield random_two_row_state(np.random.default_rng(seed))
    for _, bottom, top, cols in enumerated_states():
        yield paired_state(bottom=bottom, top=top, columns=cols, p=8)


def stale_cells(m):
    """Vacant cells of the grid whose mailbox still holds a color: a
    step filled them earlier, and the node left."""
    cells = m.cell([[0], [1]], np.arange(m.columns))
    return int(((m.peek("slot")[cells] == NONE) & (m.peek("mb_color")[cells] != NONE)).sum())


def mailboxes_match_registers(m, state, both):
    """Both mailboxes of every both-column cell hold fresh(), and each
    pcol register there names the partner's column in memory. Returns
    the stale cells of the grid."""
    cells = m.cell([[0], [1]], both.cols).ravel()
    for st in MAILBOXES:
        assert np.array_equal(m.peek(st)[cells], fresh(m.memory, state, st, cells)), st
    node = m.peek("slot")[cells]
    partner = state.pair[node]
    assert np.array_equal(state.pcol[node],
                          np.where(partner != NONE, m.peek("col")[partner], NONE))
    return stale_cells(m)


def test_swaps_keep_mailboxes_equal_to_a_fresh_publish():
    # every mailbox value the shortcut, the sweep and the key step read,
    # the key step after the swaps among them, was written in the same
    # pass and is what the registers give the cell's node now
    swapped = 0
    for m, _, state in uniformity_states():
        with checked_mailbox_reads() as audit:
            audit.use(state)
            both = read_both(m, state)
            opposite_pair_shortcut(m, state, both)
            enforce_uniformity(m, state, both)
            derive_orientation(m, state, both)
        if step_rounds(m, "/swap_wr"):
            swapped += 1
            assert audit.reads[-1] == "orient/keys"
    assert swapped > 1000


def test_every_uniformity_publish_matches_the_grid():
    # partner_columns fills both mailboxes of the both columns, and every
    # later step that changes a cell keeps them current; an odd-chain
    # shortening leaves the top cell it vacated as it was: it is no
    # longer a both column, and no step reads it
    shortened = []
    with checked_mailbox_reads() as audit:
        for m, _, state in uniformity_states():
            audit.use(state)
            both = read_both(m, state)
            if both.cols.size == 0:
                continue
            mailboxes_match_registers(m, state, both)
            opposite_pair_shortcut(m, state, both)
            if enforce_uniformity(m, state, both):
                shortened.append(mailboxes_match_registers(m, state, both))
    assert len(shortened) > 10 and sum(shortened) > 0


def test_second_publish_of_a_list_rank_matches_the_grid(monkeypatch):
    stale = []

    def checked(machine, state, both, phase):
        audit.use(state)
        partner_columns(machine, state, both, phase)
        stale.append(mailboxes_match_registers(machine, state, both))
    monkeypatch.setattr(orientation, "partner_columns", checked)
    # unshuffled ids keep both rows of the rows layout through passes;
    # every pass runs, as the default stops after the first here
    f = generate(Workload(n=2000, num_lists=8, seed=3))
    with checked_mailbox_reads() as audit:
        _, _, result = contract_fully(f, 64, 8, "rows")
    assert result.same_as(sequential_rank(f))
    # later passes leave cells that earlier passes filled vacant and
    # stale, and every read still finds a value of its own pass
    assert len(stale) >= 2 and sum(stale[1:]) > 0
    assert [label for label in audit.reads if label.endswith("/orient/keys")]


def test_stale_mailbox_cells_outside_the_both_columns_are_never_read():
    # an earlier pass fills the bottom cells of columns 6 and 7, then
    # their pair leaves the array. Those cells are vacant and outside
    # the both columns, and their colors would mark the top pairs (0, 6)
    # and (5, 7) of the S configuration if a step trusted them
    bottom = [((0, 1), (0, 1)), ((2, 3), (0, 1)), ((4, 5), (0, 1))]
    top = [((1, 2), (1, 0)), ((3, 4), (0, 1)), ((0, 6), (0, 1)), ((5, 7), (0, 1))]
    m, pairs, earlier = paired_state(bottom=bottom + [((6, 7), (1, 0))], top=top, columns=8)
    read_both(m, earlier)
    pool_nodes(m, list(pairs[(1, 3)]), m.cell(1, [6, 7]), "pool")
    # the next pass's registers, before partner_columns
    state = pair_state(m, earlier.pair, earlier.color)
    with checked_mailbox_reads() as audit:
        audit.use(state)
        both = read_both(m, state)
        assert not np.isin([6, 7], both.cols).any()
        assert stale_cells(m) == 2
        enforce_uniformity(m, state, both)
        plan = derive_orientation(m, state, both)
    assert audit.reads and not marked_pairs(m, state)
    # the run matches the same state that no earlier pass touched
    ref, _, ref_state = s_configuration()
    ref_both = read_both(ref, ref_state)
    enforce_uniformity(ref, ref_state, ref_both)
    assert np.array_equal(plan.key, derive_orientation(ref, ref_state, ref_both).key)
    colors = [np.where(g != NONE, st.color[g], NONE)
              for g, st in ((m.grid(), state), (ref.grid(), ref_state))]
    assert np.array_equal(*colors)
    assert m.engine.metrics().erew_violations == 0


def test_marked_pair_raises_uncovered_case_with_snapshot():
    m, _, state = s_configuration()
    both = read_both(m, state)
    with pytest.raises(UncoveredCaseError) as exc:
        derive_orientation(m, state, both)
    assert set(exc.value.snapshot) == {"target_row", "reference_row", "columns_lo",
                                       "columns_hi", "grid", "colors"}
    # the first row with a marked pair is reported, all of its marks,
    # and the colors come from the registers
    snap = exc.value.snapshot
    ref = snap["reference_row"]
    assert snap["target_row"] == 1 - ref
    assert [(ref, lo, hi) for lo, hi in zip(snap["columns_lo"], snap["columns_hi"])] == \
        [mk for mk in marked_pairs(m, state) if mk[0] == ref]
    assert snap["colors"] == state.color.tolist()


def test_unclaimed_pair_that_is_not_marked_raises_orientation_error():
    # the bottom pair at 0,1 has an exempt top over column 1: its key
    # there is undefined and neither opposite cell is vacant
    m, pairs, state = paired_state(
        bottom=[((0, 1), (0, 1))],
        top=[((0, 2), (0, 1)), ((1, 3), (0, 1))],
        columns=4,
    )
    exempt = list(pairs[(0, 1)])
    state.pair[exempt] = state.color[exempt] = NONE
    both = read_both(m, state)
    assert not marked_pairs(m, state)
    with pytest.raises(OrientationError, match="no forward column"):
        derive_orientation(m, state, both)


def test_two_survivors_over_one_column_raise_orientation_error():
    # two unpaired nodes over column 1 would both survive there, and the
    # fold places one survivor per column
    m, pairs, state = paired_state(bottom=[((2, 3), (0, 1))], top=[((0, 1), (0, 1))], columns=4)
    loose = [*pairs[(0, 0)], *pairs[(1, 0)]]
    state.pair[loose] = state.color[loose] = NONE
    place(m, {pairs[(0, 0)][0]: (0, 1), pairs[(1, 0)][0]: (1, 1)})
    state = pair_state(m, state.pair, state.color)
    both = read_both(m, state)
    with pytest.raises(OrientationError, match=r"columns claimed twice at \[1\]"):
        derive_orientation(m, state, both)
