"""Per-layer spans for the benchmark's traced run.

The tracer wraps the public functions of each listcontract module at
the module attribute their callers look up (for example
``listcontract.ranking.pointer_jump`` and
``listcontract.orientation.localize``), and times the closing of every
engine step: the access checks plus applying the writes. Nothing in
the package knows about it: ``Tracer.call`` swaps the wrappers in for
one call and always puts the originals back.

A span records its layer, name, parent, wall interval and the change
in the engine's metered rounds and work across the call. Self values
are a span's values minus those of its child spans. Step closes count
as children that carry time but no rounds or work, so the self rounds
and work of all layers add up to the call's totals, and the layers'
self seconds plus ``pram.close_s`` add up to the call's wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

from listcontract import pram

# (layer, module whose attribute the callers look up, attribute)
SITES = (
    ("model", "listcontract.ranking", "Machine"),
    ("model", "listcontract.ranking", "layout"),
    ("ranking", "listcontract.ranking", "pointer_jump"),
    ("ranking", "listcontract.ranking", "replay_ranks"),
    ("orientation", "listcontract.ranking", "uniform_contraction_pass"),
    ("localize", "listcontract.orientation", "localize"),
    ("localize", "listcontract.orientation", "clear_cuts"),
    ("uniform", "listcontract.orientation", "opposite_pair_shortcut"),
    ("uniform", "listcontract.orientation", "enforce_uniformity"),
    ("coloring", "listcontract.uniform", "three_color"),
    ("pairing", "listcontract.pairing", "eliminate_twos"),
    ("pairing", "listcontract.pairing", "form_pairs"),
    ("steps", "listcontract.localize", "restricted_neighbors"),
    ("steps", "listcontract.localize", "contract_batch"),
    ("steps", "listcontract.pairing", "restricted_neighbors"),
    ("steps", "listcontract.pairing", "contract_batch"),
    ("steps", "listcontract.uniform", "restricted_neighbors"),
    ("steps", "listcontract.uniform", "contract_batch"),
    ("steps", "listcontract.uniform", "move_nodes"),
    ("steps", "listcontract.uniform", "swap_positions"),
    ("steps", "listcontract.orientation", "contract_batch"),
    ("steps", "listcontract.orientation", "move_nodes"),
)

# layers whose self rounds, work and seconds are reported
COUNTED_LAYERS = ("steps", "coloring", "pairing", "localize", "uniform",
                  "orientation", "ranking", "model")

# one number per span, read from the wrapped function's return value
_RESULT_VALUE = {
    "three_color": lambda r: r.dct_iterations,
    "opposite_pair_shortcut": int,
    "uniform_contraction_pass": lambda r: r.pooled,
}


class Span:
    __slots__ = ("call", "id", "parent", "layer", "name", "start", "end",
                 "rounds", "work", "child_s", "child_rounds", "child_work",
                 "close_s", "steps", "tasks", "value")

    def __init__(self, call, sid, parent, layer, name):
        self.call, self.id, self.parent = call, sid, parent
        self.layer, self.name = layer, name
        self.start = self.end = 0.0
        self.rounds = self.work = 0
        self.child_s = self.close_s = 0.0
        self.child_rounds = self.child_work = 0
        self.steps = self.tasks = 0
        self.value = None

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s - self.close_s

    def as_dict(self):
        d = {k: getattr(self, k) for k in self.__slots__}
        d["self_s"] = self.self_s
        return d


class Tracer:
    """Collects spans in memory over any number of traced calls."""

    def __init__(self):
        self.spans = []
        self.engine = None
        self._call = 0
        self._stack = []

    def _counts(self):
        if self.engine is None:
            return 0, 0
        m = self.engine.metrics()
        return m.rounds, m.total_work

    @contextmanager
    def span(self, layer, name):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(self._call, len(self.spans), parent, layer, name)
        self.spans.append(sp)
        self._stack.append(sp)
        rounds0, work0 = self._counts()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            rounds1, work1 = self._counts()
            sp.rounds, sp.work = rounds1 - rounds0, work1 - work0
            self._stack.pop()
            if self._stack:
                up = self._stack[-1]
                up.child_s += sp.seconds
                up.child_rounds += sp.rounds
                up.child_work += sp.work

    def call(self, name, fn, *args):
        """Run one ranking call with every site wrapped; return its
        result and the spans it produced (the root span first)."""
        self._call += 1
        self.engine = None
        first = len(self.spans)
        with self._installed(), self.span("ranking", name):
            out = fn(*args)
        return out, self.spans[first:]

    # -- wrappers -------------------------------------------------------

    def _wrap(self, layer, fn):
        value = _RESULT_VALUE.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__) as sp:
                out = fn(*args, **kwargs)
                if value is not None:
                    sp.value = value(out)
            return out
        return traced

    def _wrap_machine(self, cls):
        def machine(*args, **kwargs):
            with self.span("model", "Machine"):
                m = cls(*args, **kwargs)
            self.engine = m.engine
            return m
        return machine

    def _wrap_step(self, step):
        def traced_step(engine, label, n_tasks):
            return _TimedClose(self, step(engine, label, n_tasks), int(n_tasks))
        return traced_step

    @contextmanager
    def _installed(self):
        saved = []
        try:
            for layer, module, attr in SITES:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap_machine(fn) if attr == "Machine"
                        else self._wrap(layer, fn))
            saved.append((pram.Engine, "step", pram.Engine.step))
            pram.Engine.step = self._wrap_step(pram.Engine.step)
            yield
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)


class _TimedClose:
    """Step guard whose exit (checks plus writes) is timed into the
    innermost open span."""

    def __init__(self, tracer, guard, n_tasks):
        self.tracer, self.guard, self.n_tasks = tracer, guard, n_tasks

    def __enter__(self):
        return self.guard.__enter__()

    def __exit__(self, *exc):
        t0 = time.perf_counter()
        try:
            return self.guard.__exit__(*exc)
        finally:
            top = self.tracer._stack[-1]
            top.close_s += time.perf_counter() - t0
            if self.n_tasks:
                top.steps += 1
                top.tasks += self.n_tasks


def layer_totals(spans):
    """Self rounds, work and seconds per layer over one call's spans."""
    out = {layer: {"rounds": 0, "work": 0, "self_s": 0.0} for layer in COUNTED_LAYERS}
    for sp in spans:
        d = out[sp.layer]
        d["rounds"] += sp.rounds - sp.child_rounds
        d["work"] += sp.work - sp.child_work
        d["self_s"] += sp.self_s
    return out


def layer_metrics(spans, run, n):
    """Per-layer metrics of one traced call, by their declared names."""
    root = spans[0]
    tot = layer_totals(spans)
    steps = sum(sp.steps for sp in spans)
    close_s = sum(sp.close_s for sp in spans)

    def named(name):
        return [sp for sp in spans if sp.name == name]

    m = {
        "pram.steps": steps,
        "pram.tasks_per_step": sum(sp.tasks for sp in spans) / max(1, steps),
        "pram.close_s": close_s,
        "pram.close_share": close_s / root.seconds,
        "model.machine_s": sum(sp.seconds for sp in named("Machine")),
        "model.layout_s": sum(sp.seconds for sp in named("layout")),
    }
    for layer in ("steps", "coloring", "pairing", "localize", "uniform", "orientation"):
        m[f"{layer}.rounds"] = tot[layer]["rounds"]
        m[f"{layer}.work_per_n"] = tot[layer]["work"] / n
        m[f"{layer}.self_s"] = tot[layer]["self_s"]
    m["coloring.dct_iterations"] = max((sp.value for sp in named("three_color")), default=0)
    m["uniform.shortcut_pairs"] = sum(sp.value for sp in named("opposite_pair_shortcut"))
    m["orientation.pooled"] = sum(sp.value for sp in named("uniform_contraction_pass"))

    passes = run.passes
    pre = sum(r.pre_active for r in passes)
    jump, replay = named("pointer_jump"), named("replay_ranks")
    m.update({
        "ranking.passes": len(passes),
        "ranking.halving_ratio": sum(r.survivors for r in passes) / pre if pre else 1.0,
        "ranking.degraded_passes": sum(2 * r.survivors > r.pre_active for r in passes),
        "ranking.jump_rounds": sum(sp.rounds for sp in jump),
        "ranking.jump_s": sum(sp.seconds for sp in jump),
        "ranking.replay_rounds": sum(sp.rounds for sp in replay),
        "ranking.replay_s": sum(sp.seconds for sp in replay),
        "ranking.self_s": tot["ranking"]["self_s"],
    })
    return m
