import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listcontract import Engine, ErewViolationError, Memory, PramConfig
from listcontract import pram
from listcontract.pram import NONE


def fresh(p=2):
    mem = Memory()
    mem.alloc("x", 16, fill=0)
    mem.alloc("y", 16, fill=0)
    return mem, Engine(mem, PramConfig(num_processors=p))


def test_metrics_start_at_zero():
    _, eng = fresh()
    m = eng.metrics()
    assert (m.rounds, m.total_work, m.erew_violations) == (0, 0, 0)


def test_brent_scheduling_eight_tasks_two_processors():
    mem, eng = fresh(p=2)
    with eng.step("w", 8) as s:
        s.write("x", np.arange(8), np.arange(8))
    assert eng.metrics().rounds == 4
    assert eng.metrics().total_work == 8


def test_single_task_many_processors_one_round():
    mem, eng = fresh(p=64)
    with eng.step("w", 1) as s:
        s.write("x", np.array([3]), np.array([7]))
    assert eng.metrics().rounds == 1


@pytest.mark.parametrize("t,p", [(1, 1), (5, 2), (16, 4), (17, 4), (100, 7)])
def test_brent_bound(t, p):
    mem, eng = fresh(p=p)
    mem.alloc("z", t, fill=0)
    with eng.step("w", t) as s:
        s.write("z", np.arange(t), np.ones(t, dtype=np.int64))
    assert eng.metrics().rounds == -(-t // p)
    assert mem.peek("z").sum() == t


def test_write_conflict_detected_and_counted():
    mem, eng = fresh(p=4)
    with pytest.raises(ErewViolationError) as exc:
        with eng.step("w", 2) as s:
            s.write("x", np.array([5, 5]), np.array([1, 2]))
    assert exc.value.violations == 1
    assert eng.metrics().erew_violations == 1


def test_read_conflict_detected():
    mem, eng = fresh(p=4)
    with pytest.raises(ErewViolationError):
        with eng.step("r", 2) as s:
            s.read("x", np.array([5, 5]))


def test_same_processor_may_touch_cell_twice():
    mem, eng = fresh(p=4)
    with eng.step("r", 2) as s:
        s.read("x", np.array([5, 6]))
        s.read("x", np.array([5, 7]))  # task 0 reads cell 5 again
    assert eng.metrics().erew_violations == 0


def test_read_conflict_across_rounds_detected():
    # at p = 1 the two tasks run in different rounds; the step is refused
    # all the same, since at p = 2 they would share a round
    mem, eng = fresh(p=1)
    with pytest.raises(ErewViolationError) as exc:
        with eng.step("r", 2) as s:
            s.read("x", np.array([5, 5]))
    assert exc.value.violations == 1


def test_round_isolation_reads_see_step_start():
    mem, eng = fresh(p=4)
    mem.poke("x", np.arange(4), np.array([10, 11, 12, 13]))
    with eng.step("rw", 4) as s:
        vals = s.read("x", np.arange(4))
        s.write("x", np.arange(4), vals + 1)
        again = s.read("x", np.arange(4))
    assert np.array_equal(again, np.array([10, 11, 12, 13]))
    assert np.array_equal(mem.peek("x")[:4], np.array([11, 12, 13, 14]))


def read_x1_x2_write_x2_x3(eng):
    # task 1 reads x[2], which task 0 writes
    with eng.step("rw", 2) as s:
        s.read("x", np.array([1, 2]))
        s.write("x", np.array([2, 3]), np.array([9, 9]))


def test_cross_task_read_write_overlap_rejected():
    mem, eng = fresh(p=4)
    with pytest.raises(ErewViolationError) as exc:
        read_x1_x2_write_x2_x3(eng)
    assert exc.value.violations == 1
    assert not mem.peek("x").any()


@pytest.mark.parametrize("p", [1, 2])
def test_read_of_cell_written_by_other_task_rejected_for_any_p(p):
    # task 0 reads x[5], tasks 0 and 1 both write it: one shared cell
    mem, eng = fresh(p=p)
    with pytest.raises(ErewViolationError) as exc:
        with eng.step("rw", 2) as s:
            s.read("x", np.array([5, NONE]))
            s.write("x", np.array([5, 5]), np.array([10, 20]))
    assert exc.value.violations == 1
    assert mem.peek("x")[5] == 0


def write_x0_from_task_1_then_task_0(eng):
    with eng.step("w", 2) as s:
        s.write("x", np.array([NONE, 0]), np.array([0, 20]))
        s.write("x", np.array([0, NONE]), np.array([10, 0]))


def test_cell_written_by_two_tasks_of_two_rounds_rejected():
    # at p = 1 the two writers run in different rounds, and the step is
    # refused as at p = 2, where they share one
    mem, eng = fresh(p=1)
    with pytest.raises(ErewViolationError):
        write_x0_from_task_1_then_task_0(eng)
    assert mem.peek("x")[0] == 0


def test_cell_written_by_two_tasks_of_one_round_rejected():
    mem, eng = fresh(p=2)
    with pytest.raises(ErewViolationError):
        write_x0_from_task_1_then_task_0(eng)
    assert mem.peek("x")[0] == 0


def test_masked_index_skips_task():
    mem, eng = fresh(p=4)
    mem.poke("x", np.arange(4), np.array([5, 6, 7, 8]))
    with eng.step("r", 3) as s:
        got = s.read("x", np.array([0, NONE, 2]))
    assert np.array_equal(got, np.array([5, NONE, 7]))


def test_determinism():
    outs = []
    for _ in range(2):
        mem, eng = fresh(p=3)
        with eng.step("a", 7) as s:
            v = s.read("x", np.arange(7))
            s.write("y", np.arange(7), v + np.arange(7))
        with eng.step("b", 4) as s:
            v = s.read("y", np.arange(4))
            s.write("x", np.arange(4), v * 2)
        outs.append((mem.peek("x").copy(), mem.peek("y").copy(),
                     eng.metrics().rounds, eng.metrics().total_work))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert outs[0][2:] == outs[1][2:]


def test_trace_one_record_per_step():
    mem, eng = fresh(p=2)
    with eng.step("phase_a", 5) as s:
        s.write("x", np.arange(5), np.arange(5))
    with eng.step("phase_b", 1) as s:
        s.read("y", np.array([3]))
    a, b = eng.trace
    assert (a.label, a.tasks, a.rounds, a.work) == ("phase_a", 5, 3, 5)
    assert (b.label, b.tasks, b.rounds, b.work) == ("phase_b", 1, 1, 1)
    assert min(a.check_s, a.apply_s, b.check_s, b.apply_s) >= 0


def write_x5_twice_of_six_tasks(eng):
    with eng.step("w", 6) as s:
        s.write("x", np.array([5, 5, 0, 1, 2, 3]), np.arange(6))


def test_a_step_that_raises_keeps_its_record():
    # two writers of one cell, then a read of a cell another task writes
    for bad_step, label, t, rounds in ((write_x5_twice_of_six_tasks, "w", 6, 2),
                                       (read_x1_x2_write_x2_x3, "rw", 2, 1)):
        mem, eng = fresh(p=4)
        with pytest.raises(ErewViolationError):
            bad_step(eng)
        (r,) = eng.trace
        assert (r.label, r.tasks, r.rounds, r.work) == (label, t, rounds, t)
        m = eng.metrics()
        assert ((m.rounds, m.total_work, m.phase_breakdown, m.phase_work, m.erew_violations)
                == (rounds, t, {label: rounds}, {label: t}, 1))
        assert not mem.peek("x").any()


def test_phase_breakdown_accumulates():
    mem, eng = fresh(p=2)
    for _ in range(3):
        with eng.step("loop", 4) as s:
            s.write("x", np.arange(4), np.zeros(4, dtype=np.int64))
    assert eng.metrics().phase_breakdown["loop"] == 6


def test_all_skipped_step_accepted_and_changes_nothing():
    mem, eng = fresh(p=2)
    mem.poke("x", np.arange(16), np.arange(16))
    skip = np.full(4, NONE)
    with eng.step("skip", 4) as s:
        assert np.array_equal(s.read("x", skip), skip)
        s.read("y", skip)
        s.write("x", skip, np.arange(4))
        s.write("y", skip, np.arange(4))
    assert eng.metrics().erew_violations == 0
    assert np.array_equal(mem.peek("x"), np.arange(16))
    assert not mem.peek("y").any()


def test_last_cell_of_largest_store_with_other_tasks_skipping():
    # skipped accesses share the cell just past the largest store; task 0
    # alone on that store's last cell is not a conflict
    mem, eng = fresh(p=4)
    mem.alloc("big", 20, fill=3)
    idx = np.array([19, NONE, NONE, NONE])
    with eng.step("rw", 4) as s:
        got = s.read("big", idx)
        s.write("big", idx, got + 1)
    assert got.tolist() == [3, NONE, NONE, NONE]
    assert mem.peek("big")[19] == 4
    assert eng.metrics().erew_violations == 0


def test_two_writers_of_last_cell_of_largest_store_one_violation():
    mem, eng = fresh(p=4)
    mem.alloc("big", 20, fill=0)
    with pytest.raises(ErewViolationError) as exc:
        with eng.step("w", 4) as s:
            s.write("big", np.array([19, 19, NONE, NONE]), np.array([1, 2, 3, 4]))
    assert exc.value.violations == 1
    assert not mem.peek("big").any()


def test_store_grown_by_scratch_is_still_checked():
    mem, eng = fresh(p=4)
    with eng.step("small", 4) as s:
        s.write("x", np.arange(4), np.arange(4))
    assert mem.scratch("x", 64) == "x" and mem.peek("x").size == 64
    with eng.step("grown", 2) as s:
        s.write("x", np.array([63, NONE]), np.array([7, 0]))
    assert mem.peek("x")[63] == 7
    with pytest.raises(ErewViolationError) as exc:
        with eng.step("grown", 2) as s:
            s.write("x", np.array([40, 40]), np.array([1, 2]))
    assert exc.value.violations == 1
    assert mem.peek("x")[40] == NONE


SIZES = {"x": 6, "y": 3}


@st.composite
def random_steps(draw):
    """One step over two small stores: skips and repeated cells are
    common, and an access may reuse an earlier access's indices."""
    p = draw(st.integers(1, 4))
    t = draw(st.integers(1, 12))
    init = {name: draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
            for name, n in SIZES.items()}
    accesses = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["read", "write"]))
        store = draw(st.sampled_from(sorted(SIZES)))
        earlier = [ix for _, name, ix, _ in accesses if name == store]
        if earlier and draw(st.booleans()):
            idx = draw(st.sampled_from(earlier))
        else:
            cell = st.one_of(st.just(NONE), st.integers(0, SIZES[store] - 1))
            idx = draw(st.lists(cell, min_size=t, max_size=t))
        vals = draw(st.lists(st.integers(10, 99), min_size=t, max_size=t))
        accesses.append((kind, store, idx, vals))
    return p, t, init, accesses


def reference_step(init, accesses):
    """Per-cell brute force of the engine's one rule: ("violation",
    count of the cells two distinct tasks touch) or ("ok", memory after
    the step, writes applied in call order)."""
    touched = {}   # (store, cell) -> tasks touching it
    for _, store, idx, _ in accesses:
        for task, cell in enumerate(idx):
            if cell >= 0:
                touched.setdefault((store, cell), set()).add(task)
    violations = sum(len(tasks) >= 2 for tasks in touched.values())
    if violations:
        return "violation", violations
    after = {name: list(cells) for name, cells in init.items()}
    for kind, store, idx, vals in accesses:
        if kind == "write":
            for cell, v in zip(idx, vals):
                if cell >= 0:
                    after[store][cell] = v
    return "ok", after


def engine_step(p, t, init, accesses):
    """Run one step on a fresh engine at p processors, in the form
    reference_step returns; a refused step must leave memory as it was.
    Index arrays go to the engine as they are, so an access that reuses
    an earlier one's array passes the same object."""
    mem = Memory()
    for name, cells in init.items():
        mem.alloc(name, len(cells))
        mem.poke(name, np.arange(len(cells)), cells)
    eng = Engine(mem, PramConfig(num_processors=p))
    try:
        with eng.step("s", t) as s:
            for kind, store, idx, vals in accesses:
                if kind == "read":
                    got = s.read(store, np.asarray(idx))
                    assert got.tolist() == [init[store][c] if c >= 0 else NONE
                                            for c in idx]
                else:
                    s.write(store, np.asarray(idx), np.array(vals))
    except ErewViolationError as exc:
        assert eng.metrics().erew_violations == exc.violations
        assert {name: mem.peek(name).tolist() for name in init} == init
        return "violation", exc.violations
    assert eng.metrics().erew_violations == 0
    return "ok", {name: mem.peek(name).tolist() for name in init}


@settings(max_examples=300, deadline=None)
@given(random_steps())
def test_engine_matches_per_cell_reference(case):
    p, t, init, accesses = case
    assert engine_step(p, t, init, accesses) == reference_step(init, accesses)


@settings(max_examples=300, deadline=None)
@given(random_steps())
def test_a_step_has_one_outcome_at_every_p(case):
    # the same memory after the step, or the same refusal with the same
    # count, whether the tasks share one round or each runs alone
    _, t, init, accesses = case
    outcomes = [engine_step(p, t, init, accesses) for p in (1, 2, t)]
    assert outcomes[1:] == outcomes[:-1]


def one_increasing(draw, t, size):
    """An index array over t tasks whose kept cells never decrease, with
    skips at random positions; mostly strictly increasing, sometimes
    with a repeated cell."""
    cells = sorted(draw(st.lists(st.integers(0, size - 1), max_size=t)))
    if draw(st.integers(0, 3)):
        cells = sorted(set(cells))
    at = sorted(draw(st.permutations(range(t)))[:len(cells)])
    idx = np.full(t, NONE, dtype=np.int64)
    idx[at] = cells
    return idx


@st.composite
def increasing_steps(draw):
    """One step whose first two accesses share a store: a (mostly)
    increasing index array, then the same object, an equal copy or a
    different array; random accesses to either store may follow."""
    p = draw(st.integers(1, 4))
    t = draw(st.integers(1, 12))
    init = {name: draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
            for name, n in SIZES.items()}
    store = draw(st.sampled_from(sorted(SIZES)))
    ix = one_increasing(draw, t, SIZES[store])
    how = draw(st.sampled_from(["same", "copy", "other"]))
    kinds = ["read", "write"]
    if how == "same":
        second = ix
    elif how == "copy":
        second = ix.copy()
    else:
        cell = st.one_of(st.just(NONE), st.integers(0, SIZES[store] - 1))
        second = np.array(draw(st.lists(cell, min_size=t, max_size=t)), dtype=np.int64)
        kinds = draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=2))
    vals = st.lists(st.integers(10, 99), min_size=t, max_size=t)
    accesses = [(kind, store, idx, draw(vals)) for kind, idx in zip(kinds, (ix, second))]
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(SIZES)))
        accesses.append((draw(st.sampled_from(["read", "write"])), name,
                         one_increasing(draw, t, SIZES[name]), draw(vals)))
    return p, t, init, accesses


@settings(max_examples=400, deadline=None)
@given(increasing_steps())
def test_increasing_index_arrays_match_per_cell_reference(case):
    # "same" passes one object to both accesses and "copy" two equal ones
    p, t, init, accesses = case
    assert engine_step(p, t, init, accesses) == reference_step(init, accesses)


@pytest.mark.parametrize("cells, proved", [
    ([-1, 0, 1, 3], True), ([0, 1, -1, -1, 4], True), ([2, -1, -1], True), ([-1, -1], True),
    ([-1, 4, -1, 5], True), ([0, 5, -1, 3], False), ([-1, 4, -1, 4], False),
    ([0, -1, 2, 2], False), ([0, -1, 3, 1, 5], False), ([0, -1, 2, -1, 7, 7], False),
])
def test_one_increasing_checks_kept_cells_across_and_between_skips(cells, proved):
    # every kept cell must top every kept cell before it, whether a run
    # of skips or nothing lies between them
    assert pram._one_increasing([np.array(cells, dtype=np.int64)]) == proved


def test_one_increasing_matches_compressed_compare():
    rng = np.random.default_rng(5)
    for _ in range(3000):
        t = int(rng.integers(1, 40))
        ix = np.sort(rng.integers(0, 60, t))
        ix[rng.random(t) < rng.random()] = NONE
        if rng.random() < 0.5:
            i = int(rng.integers(0, t))
            ix[i] = rng.integers(-1, 60)
        kept = ix[ix >= 0]
        assert pram._one_increasing([ix]) == bool((kept[1:] > kept[:-1]).all())


def test_increasing_stores_skip_the_owner_scatter():
    mem, eng = fresh(p=4)
    ids = np.array([NONE, 1, 4, NONE, 9, 15])
    with eng.step("proved", 6) as s:
        got = s.read("x", ids)
        s.write("x", ids, got + 1)
        s.write("y", ids.copy(), got)
        s.read("y", ids.copy())
    assert eng._owner.size == 1
    with eng.step("scattered", 2) as s:
        s.read("x", np.array([3, 2]))
    assert eng._owner.size == 17


def test_accesses_that_skip_every_task_leave_a_store_proved():
    # a masked access with no kept cell, as a one-sided batch gives
    mem, eng = fresh(p=4)
    ids = np.array([1, 4, 9])
    with eng.step("proved", 3) as s:
        s.read("x", np.full(3, NONE))
        s.write("x", ids, 7)
        s.write("y", np.full(3, NONE), 1)
    assert eng._owner.size == 1
    assert mem.peek("x")[ids].tolist() == [7, 7, 7]
    assert pram._one_increasing([np.full(3, NONE), np.array([2, 1, NONE])]) is False
