import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import (Machine, OrientationError, PramConfig, UncoveredCaseError, Workload,
                          generate, layout, list_rank, orientation, sequential_rank, uniform)
from listcontract.orientation import (contract_along_orientation,
                                      derive_orientation, fold_array,
                                      uniform_contraction_pass)
from listcontract.pram import NONE
from listcontract.uniform import (color_and_pair, enforce_uniformity,
                                  opposite_pair_shortcut, publish_mailboxes)
from conftest import (check_inverse, enumerated_states, marked_pairs, pair_sides,
                      paired_state, path_forest, place, read_state, snapshot,
                      states_equal, validate_pairs)


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
    coloring, pairs = color_and_pair(m, read_state(m))
    validate_pairs(m, pairs)
    live = m.in_array_ids()
    assert (m.peek("pair")[live] != NONE).all()


def test_row_pipeline_single_pair_idempotent_shape():
    m = Machine(path_forest(2), PramConfig(num_processors=4))
    place(m, {0: (1, 0), 1: (1, 1)})
    _, pairs = color_and_pair(m, read_state(m))
    assert pairs.ids.size == 2
    assert m.peek("pair")[0] == 1


def test_row_pipelines_independent_rows():
    m = Machine(path_forest(8), PramConfig(num_processors=8))
    place(m, {v: (0, v) for v in range(4)} | {v: (1, v - 4) for v in range(4, 8)})
    # the two placements belong to one list; cut the crossing link
    # first, in the registers, as localization does
    state = read_state(m)
    state.sv[3] = state.row_s[3] = state.pv[4] = state.row_p[4] = NONE
    _, pairs = color_and_pair(m, state)
    validate_pairs(m, pairs)
    # both rows in one call: every node paired, no pair crosses the cut
    pair = m.peek("pair")[pairs.ids]
    assert (pair != NONE).all()
    assert ((pairs.ids <= 3) == (pair <= 3)).all()


# -- opposite_pair_shortcut ---------------------------------------------------

def aligned_stack(c1=4, c2=5):
    return paired_state(
        bottom=[((c1, c2), (0, 1))],
        top=[((c1, c2), (1, 0))],
        columns=8,
    )


def test_shortcut_consumes_aligned_stack():
    m, pairs = aligned_stack()
    consumed = opposite_pair_shortcut(m, pair_sides(m))
    assert consumed == 1
    b0, b1 = pairs[(1, 0)]
    t0, t1 = pairs[(0, 0)]
    grid = m.grid()
    assert grid[0, 4] == NONE and grid[0, 5] == NONE     # tops vacant
    survivors = m.in_array_ids()
    rows = m.peek("row")[survivors]
    assert (rows == 1).all()
    # the merged top pair sits at the 0-colored bottom member's column,
    # the merged bottom pair at the other; each carries weight 2
    assert sorted(m.peek("weight")[survivors].tolist()) == [2, 2]
    assert {int(grid[1, 4]), int(grid[1, 5])} == set(survivors.tolist())


def test_shortcut_noop_without_top_pair():
    m, pairs = paired_state(
        bottom=[((4, 5), (0, 1))],
        top=[((5, 6), (1, 0))],   # offset by one: not aligned
        columns=8,
    )
    assert opposite_pair_shortcut(m, pair_sides(m)) == 0
    assert m.in_array_ids().size == 4


def test_aligned_stack_left_for_uniformity_is_refused():
    m, _ = aligned_stack()
    with pytest.raises(UncoveredCaseError):
        enforce_uniformity(m, pair_sides(m))


def test_shortcut_weight_conservation():
    m, pairs = aligned_stack()
    total = int(m.peek("weight")[m.active_ids()].sum())
    opposite_pair_shortcut(m, pair_sides(m))
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
    for m, _ in (s_configuration(), c_configuration()):
        assert enforce_uniformity(m, pair_sides(m)) == 0
        assert not marked_pairs(m)
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
    m, _ = closed_chain(k, seed)
    pre_weight = int(m.peek("weight")[m.active_ids()].sum())
    assert enforce_uniformity(m, pair_sides(m)) == 1
    assert all(m.memory.has(st) for st in SWEEP_STORES)
    assert len(m.log) == 1 and m.log[0].absorbed.size == 1
    assert list(step_rounds(m, "/move_wr").values()) == [1]
    check_inverse(m)
    assert not marked_pairs(m)
    contract_along_orientation(m, derive_orientation(m), pair_sides(m))
    survivors = m.in_array_ids()
    assert (m.peek("row")[survivors] == 1).all()
    assert int(m.peek("weight")[m.active_ids()].sum()) == pre_weight


def checked_merges(seen):
    """merge_pairs that first checks the side register against memory:
    each absorbed node's bit is whether its successor is its host, and
    otherwise its predecessor is. Appends each merge's phase."""
    merge = uniform.merge_pairs

    def run(machine, absorbed, host, at_succ, phase):
        succ, pred = machine.peek("succ")[absorbed], machine.peek("pred")[absorbed]
        assert np.array_equal(at_succ[absorbed], succ == host), phase
        assert np.array_equal(np.where(at_succ[absorbed], succ, pred), host), phase
        seen.append(phase)
        merge(machine, absorbed, host, at_succ, phase)
    return run


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 5])
def test_odd_chain_merge_takes_its_sides_from_the_register(k, seed, monkeypatch):
    # list_rank calls seldom meet an odd closed chain, so its merge is
    # checked here, with the register taken before the step starts
    m, _ = closed_chain(k, seed)
    seen = []
    monkeypatch.setattr(uniform, "merge_pairs", checked_merges(seen))
    assert enforce_uniformity(m, pair_sides(m)) == 1
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
    m, _ = closed_chain(k, seed)
    assert enforce_uniformity(m, pair_sides(m)) == 0
    assert not m.log and not step_rounds(m, "/move_wr")
    assert not marked_pairs(m)


def test_list_rank_meets_a_closed_chain_and_matches_the_oracle():
    # placed by id, the shuffled lists of a rows layout leave closed
    # column chains in pass 0, which the sweep opens at their smallest
    # top-row state and walks again; none of them is odd
    f = generate(Workload(n=600, num_lists=9, seed=2, layout_shuffle=True))
    run = list_rank(f, p=64, min_run=2, layout_mode="rows")
    assert [k for k in run.metrics.phase_breakdown if "/uniform/plan/c/" in k]
    assert run.result.same_as(sequential_rank(f))
    assert run.metrics.erew_violations == 0
    assert sum(rep.odd_cycles for rep in run.passes) == 0


@pytest.mark.parametrize("seed", range(3))
def test_sweep_doubling_runs_only_the_closed_chain_once_open_chains_finish(seed):
    # an even closed chain of 8 pairs a row (32 states, one per column
    # and row) beside an open chain of bottom pairs (16, 17), (18, 19) and
    # top pair (17, 18): its 6 states walk two 3-state chains, whose
    # pointers have all run out by the start of round 2. At p = 1 every
    # drop lowers the step's rounds, so round 2 adds only the two states
    # whose pointer ran out in round 1, and later rounds run the closed
    # chain's states alone
    k = 8
    o = 2 * k
    m, _ = closed_chain(k, seed, bottom=[((o, o + 1), (0, 1)), ((o + 2, o + 3), (1, 0))],
                        top=[((o + 1, o + 2), (1, 0))], columns=4)
    m.config.record_trace = True
    assert marked_pairs(m)
    assert enforce_uniformity(m, pair_sides(m)) == 0
    assert not marked_pairs(m)
    d = [(r.label.rsplit("/", 1)[1], r.tasks) for r in m.engine.trace if "/plan/d/" in r.label]
    limit = int(np.ceil(np.log2(4 * k + 6)))
    assert d == [("init", 38), ("r0", 38), ("r1", 36), ("r2", 34)] + [
        (f"r{r}", 4 * k) for r in range(3, limit)]
    assert m.engine.metrics().erew_violations == 0


def test_matched_pairs_are_left_alone():
    m, pairs = paired_state(
        bottom=[((0, 1), (0, 1)), ((2, 3), (1, 0))],
        top=[((1, 2), (0, 1)), ((3, 0), (1, 0))],
        columns=4,
    )
    before = snapshot(m)
    assert enforce_uniformity(m, pair_sides(m)) == 0
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
    m, pairs = paired_state(bottom=bottom, top=top, columns=2 * k + 2)
    enforce_uniformity(m, pair_sides(m))
    assert not marked_pairs(m)


def test_mismatched_bottoms_under_matched_tops_cleared_in_one_call():
    m, pairs = paired_state(
        bottom=[((1, 2), (1, 0)), ((3, 4), (0, 1))],
        top=[((0, 1), (0, 1)), ((2, 3), (1, 0)), ((4, 5), (0, 1))],
        columns=6,
    )
    enforce_uniformity(m, pair_sides(m))
    assert not marked_pairs(m)


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
    m, pairs = full_period_state()
    publish_mailboxes(m, "setup")
    plan = derive_orientation(m)
    assert plan.key[:4].tolist() == [0, 1, 3, 2]


def test_orientation_reversed_pattern_is_backward():
    m, pairs = paired_state(
        bottom=[((0, 1), (0, 1)), ((2, 3), (1, 0))],
        top=[((1, 2), (1, 0)), ((3, 0), (0, 1))],
        columns=4,
    )
    publish_mailboxes(m, "setup")
    plan = derive_orientation(m)
    assert plan.key[:4].tolist() == [2, 3, 1, 0]


@pytest.mark.parametrize("row", [0, 1])
def test_single_row_pairs_claim_their_zero_colored_column(row):
    # with the other row empty every key is NONE: no key step, no
    # mailbox, and each pair claims its 0-colored member's column
    pairs = [((0, 1), (1, 0)), ((2, 5), (0, 1)), ((4, 3), (0, 1))]
    m, nodes = paired_state(bottom=pairs if row else [], top=[] if row else pairs, columns=6)
    plan = derive_orientation(m)
    assert not m.engine.metrics().phase_breakdown
    assert (plan.key == NONE).all()
    claimed = dict(zip(plan.survivors.tolist(), plan.columns.tolist()))
    zero_cols = {nodes[(row, i)][colors.index(0)]: cols[colors.index(0)]
                 for i, (cols, colors) in enumerate(pairs)}
    assert claimed == zero_cols
    assert (plan.from_top == (row == 0)).all()


def test_contract_along_orientation_packs_full_period():
    m, pairs = full_period_state()
    publish_mailboxes(m, "setup")
    plan = derive_orientation(m)
    contract_along_orientation(m, plan, pair_sides(m))
    survivors = m.in_array_ids()
    assert survivors.size == 4           # each pair merged once
    assert (m.peek("row")[survivors] == 1).all()
    assert int(m.peek("weight")[survivors].sum()) == 8
    cols = np.sort(m.peek("col")[survivors])
    assert np.unique(cols).size == survivors.size


def test_aligned_shortcut_survivors_left_untouched_by_packing():
    m, pairs = aligned_stack()
    opposite_pair_shortcut(m, pair_sides(m))
    publish_mailboxes(m, "setup")
    before = {int(v): (int(m.peek("row")[v]), int(m.peek("col")[v]))
              for v in m.in_array_ids()}
    plan = derive_orientation(m)
    contract_along_orientation(m, plan, pair_sides(m))
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
    assert rep.survivors_in_bottom_row
    assert rep.survivors <= rep.pre_active / 2
    assert rep.halved
    assert int(m.peek("weight")[m.active_ids()].sum()) == m.n


def test_fold_halves_columns_and_keeps_inverse():
    m, pairs = full_period_state()
    publish_mailboxes(m, "setup")
    plan = derive_orientation(m)
    contract_along_orientation(m, plan, pair_sides(m))
    fold_array(m, plan.survivors, plan.columns)
    assert m.columns == 2
    check_inverse(m)


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
    m, _ = random_two_row_state(rng)
    pre_weight = int(m.peek("weight")[m.active_ids()].sum())
    opposite_pair_shortcut(m, pair_sides(m))
    enforce_uniformity(m, pair_sides(m))
    assert not marked_pairs(m)
    plan = derive_orientation(m)
    contract_along_orientation(m, plan, pair_sides(m))
    survivors = m.in_array_ids()
    if survivors.size:
        assert (m.peek("row")[survivors] == 1).all()
        cols = m.peek("col")[survivors]
        assert np.unique(cols).size == survivors.size
    assert int(m.peek("weight")[m.active_ids()].sum()) == pre_weight
    assert m.engine.metrics().erew_violations == 0


# -- mailboxes and the uniformity check --------------------------------------

MAILBOXES = ("mb_color", "mb_pcol")


def uniformity_states():
    for seed in range(60):
        yield random_two_row_state(np.random.default_rng(seed))
    for _, bottom, top, cols in enumerated_states():
        yield paired_state(bottom=bottom, top=top, columns=cols, p=8)


def test_swaps_keep_mailboxes_equal_to_a_fresh_publish():
    swapped = 0
    for m, _ in uniformity_states():
        opposite_pair_shortcut(m, pair_sides(m))
        enforce_uniformity(m, pair_sides(m))
        swapped += bool(step_rounds(m, "/swap_wr"))
        kept = {st: m.peek(st)[: 2 * m.columns].copy() for st in MAILBOXES}
        publish_mailboxes(m, "fresh")
        for st in MAILBOXES:
            assert np.array_equal(m.peek(st)[: 2 * m.columns], kept[st]), st
    assert swapped > 1000


def assert_mailboxes_match_grid(m):
    """Per-cell reference: every cell of the 2 x columns grid holds its
    node's color and its partner's column, NONE where either is absent."""
    node = m.grid().ravel()
    color, pair, col = m.peek("color"), m.peek("pair"), m.peek("col")
    partner = np.where(node != NONE, pair[node], NONE)
    cells = 2 * m.columns
    assert np.array_equal(m.peek("mb_color")[:cells], np.where(node != NONE, color[node], NONE))
    assert np.array_equal(m.peek("mb_pcol")[:cells], np.where(partner != NONE, col[partner], NONE))


def checked_publish(calls):
    """publish_mailboxes that checks every cell after it publishes and
    appends (phase, cells it left vacant that held a node before)."""
    def publish(m, phase):
        before = m.peek("mb_color")[: 2 * m.columns].copy() if m.memory.has("mb_color") else None
        publish_mailboxes(m, phase)
        assert_mailboxes_match_grid(m)
        emptied = 0 if before is None else int(((before != NONE) & (m.grid().ravel() == NONE)).sum())
        calls.append((phase, emptied))
    return publish


def test_every_uniformity_publish_matches_the_grid(monkeypatch):
    # each state's first publish, and the one after an odd-chain replan,
    # which must clear the cells the shortening vacated
    calls = []
    monkeypatch.setattr(uniform, "publish_mailboxes", checked_publish(calls))
    for m, _ in uniformity_states():
        opposite_pair_shortcut(m, pair_sides(m))
        enforce_uniformity(m, pair_sides(m))
    replans = [emptied for phase, emptied in calls if phase.endswith("/replan")]
    assert len(replans) > 10 and sum(replans) > 0


def test_second_publish_of_a_list_rank_matches_the_grid(monkeypatch):
    calls = []
    monkeypatch.setattr(uniform, "publish_mailboxes", checked_publish(calls))
    # unshuffled ids keep both rows of the rows layout through passes
    f = generate(Workload(n=2000, num_lists=8, seed=3))
    run = list_rank(f, p=64, min_run=8, layout_mode="rows")
    assert run.result.same_as(sequential_rank(f))
    # later publishes find cells that earlier passes filled vacant now
    assert len(calls) >= 2 and sum(emptied for _, emptied in calls[1:]) > 0


def test_marked_pair_raises_uncovered_case_with_snapshot():
    m, _ = s_configuration()
    publish_mailboxes(m, "setup")
    with pytest.raises(UncoveredCaseError) as exc:
        derive_orientation(m)
    assert set(exc.value.snapshot) == {"target_row", "reference_row", "columns_lo",
                                       "columns_hi", "grid", "colors"}
    # the first row with a marked pair is reported, all of its marks
    snap = exc.value.snapshot
    ref = snap["reference_row"]
    assert snap["target_row"] == 1 - ref
    assert [(ref, lo, hi) for lo, hi in zip(snap["columns_lo"], snap["columns_hi"])] ==         [mk for mk in marked_pairs(m) if mk[0] == ref]


def test_unclaimed_pair_that_is_not_marked_raises_orientation_error():
    # the bottom pair at 0,1 has an exempt top over column 1: its key
    # there is undefined and neither opposite cell is vacant
    m, pairs = paired_state(
        bottom=[((0, 1), (0, 1))],
        top=[((0, 2), (0, 1)), ((1, 3), (0, 1))],
        columns=4,
    )
    exempt = list(pairs[(0, 1)])
    m.memory.poke("pair", exempt, NONE)
    m.memory.poke("color", exempt, NONE)
    publish_mailboxes(m, "setup")
    assert not marked_pairs(m)
    with pytest.raises(OrientationError, match="no forward column"):
        derive_orientation(m)
