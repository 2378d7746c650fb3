"""Command line front end: generate workloads, run rankers, sweep grids."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import ForestFormatError, ListContractError, UncoveredCaseError
from .model import LinkedForest
from .ranking import list_rank, sequential_rank, wyllie_rank
from .workloads import Workload, generate

ALGORITHMS = ("uniform", "wyllie", "sequential")


def build_parser():
    p = argparse.ArgumentParser(prog="listcontract",
                                description="uniform linked-list contraction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a forest file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--lists", type=int, default=1)
    g.add_argument("--dist", default="UNIFORM",
                   help="UNIFORM | GEOMETRIC | FIXED:<l> | SINGLE")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--shuffle", action="store_true")
    g.add_argument("--out", default="-")

    r = sub.add_parser("run", help="rank a forest file")
    r.add_argument("forest")
    r.add_argument("--algo", choices=ALGORITHMS, default="uniform")
    r.add_argument("--p", type=int, default=1)
    r.add_argument("--verify", action="store_true")
    r.add_argument("--trace", action="store_true")
    r.add_argument("--out", default=None)

    w = sub.add_parser("sweep", help="run a grid of (n, l, p) triples")
    w.add_argument("--spec", required=True,
                   help="semicolon-separated n,l,p triples, e.g. '1024,16,8;2048,16,8'")
    w.add_argument("--algo", default="uniform,wyllie",
                   help="comma-separated algorithms")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", default="-")
    return p


def _parse_dist(text):
    if text.upper().startswith("FIXED"):
        _, _, val = text.partition(":")
        if not val:
            raise ValueError("FIXED needs a length, e.g. FIXED:16")
        try:
            return "FIXED", int(val)
        except ValueError:
            raise ValueError(f"the FIXED length {val!r} is not an integer") from None
    return text.upper(), 0


def _usage_error(exc):
    """Report a bad argument or input on one stderr line; exit code 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _emit(path, text):
    """Write text to path ("-" is stdout); exit code 0, or 2 when the
    path cannot be written."""
    if path == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _usage_error(f"cannot write {path}: {exc}")
    return 0


def cmd_generate(args):
    try:
        dist, fixed = _parse_dist(args.dist)
        forest = generate(Workload(n=args.n, num_lists=args.lists,
                                   length_distribution=dist, fixed_length=fixed,
                                   seed=args.seed, layout_shuffle=args.shuffle))
    except ValueError as exc:
        return _usage_error(exc)
    return _emit(args.out, forest.to_text())


def run_report(forest, algo, p, verify=False):
    """Execute one ranker on p processors; return the report
    dictionary, the result and the run's step ledger."""
    n, l = forest.n, forest.longest()
    report = {"n": n, "l": l, "p": p, "algorithm": algo}
    t0 = time.perf_counter()
    trace = []
    if algo == "sequential":
        result = sequential_rank(forest)
        report.update(rounds=n, total_work=n, erew_violations=0,
                      passes=0, degraded_passes=0, survivor_counts=[],
                      stopped_by=None, jump_rounds=0)
    else:
        if algo == "uniform":
            run = list_rank(forest, p=p)
        elif algo == "wyllie":
            run = wyllie_rank(forest, p=p)
        else:
            raise ValueError(f"unknown algorithm {algo!r}")
        result = run.result
        m = run.metrics
        trace = run.trace
        report.update(rounds=m.rounds, total_work=m.total_work,
                      erew_violations=m.erew_violations,
                      passes=len(run.passes),
                      degraded_passes=sum(r.degraded for r in run.passes),
                      survivor_counts=[r.survivors for r in run.passes],
                      stopped_by=run.stopped_by, jump_rounds=run.jump_rounds)
    report["wall_seconds"] = round(time.perf_counter() - t0, 6)
    if verify:
        oracle = sequential_rank(forest)
        report["verified"] = bool(result.same_as(oracle))
    return report, result, trace


def cmd_run(args):
    try:
        with open(args.forest) as fh:
            forest = LinkedForest.from_text(fh.read())
    except (OSError, UnicodeDecodeError, ForestFormatError) as exc:
        return _usage_error(f"cannot load forest: {exc}")
    if args.p < 1:
        return _usage_error("--p must be >= 1")
    try:
        report, _, trace = run_report(forest, args.algo, args.p, verify=args.verify)
    except UncoveredCaseError as exc:
        print(f"UNCOVERED_CASE: {exc}", file=sys.stderr)
        print(json.dumps(exc.snapshot, indent=2), file=sys.stderr)
        return 3
    except ListContractError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.trace:
        for i, r in enumerate(trace):
            print(f"step={i} phase={r.label} tasks={r.tasks} rounds={r.rounds} "
                  f"work={r.work} check_s={r.check_s:.6f} apply_s={r.apply_s:.6f}")
    for key, val in report.items():
        print(f"{key}: {val}")
    if args.out and _emit(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n"):
        return 2
    return 0 if report.get("verified", True) else 1


SWEEP_COLUMNS = ["n", "l", "p", "algorithm", "rounds", "total_work",
                 "erew_violations", "passes", "jump_rounds", "status"]


def cmd_sweep(args):
    rows = []
    triples = []
    if not args.spec.strip():
        return _usage_error("--spec names no n,l,p triple, e.g. '1024,16,8'")
    for part in args.spec.split(";"):
        try:
            n, l, p = (int(x) for x in part.split(","))
        except ValueError:
            return _usage_error(f"sweep spec entry {part!r} is not an n,l,p triple")
        triples.append((n, l, p))
    algos = [a for a in args.algo.split(",") if a]
    if not algos:
        return _usage_error(f"--algo names no algorithm, give one or more of {ALGORITHMS}")
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        return _usage_error(f"unknown algorithm {unknown[0]!r}, not one of {ALGORITHMS}")
    for n, l, p in triples:
        if n < 1 or l < 1 or n % l or p < 1:
            rows.append({"n": n, "l": l, "p": p, "algorithm": "-",
                         "status": "FAILED"})
            continue
        try:
            forest = generate(Workload(n=n, length_distribution="FIXED",
                                       fixed_length=l, seed=args.seed))
        except ValueError as exc:
            return _usage_error(exc)
        for algo in algos:
            try:
                report, _, _ = run_report(forest, algo, p)
                report["status"] = "OK"
            except Exception as exc:   # keep sweeping, mark the row
                report = {"n": n, "l": l, "p": p, "algorithm": algo,
                          "status": f"FAILED:{type(exc).__name__}"}
            rows.append(report)
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in SWEEP_COLUMNS))
    return _emit(args.out, "\n".join(lines) + "\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
