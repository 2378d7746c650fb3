"""Benchmark of list_rank and wyllie_rank on the workloads declared in
BENCHMARK.json.

    python3 bench/run.py --workload fixed64 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 0

With --workload, one workload runs in this process: --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Without --workload,
every workload runs untraced and then traced, each in its own process.
The exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".bench_out"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import the package from the checkout's sources; returns seconds."""
    if not (ROOT / "src" / "listcontract" / "__init__.py").is_file():
        raise SystemExit(f"no listcontract sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import listcontract  # noqa: F401
    return time.perf_counter() - t0


def run_one(spec, name, seed, seconds, trace):
    import_s = import_program()
    import measure
    from cases import CASES

    case = CASES[name]
    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        metrics, tally, notes, spans = measure.traced(case, seed, seconds)
        SPANS_DIR.mkdir(exist_ok=True)
        (SPANS_DIR / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps([sp.as_dict() for sp in spans]))
    else:
        metrics, tally, notes = measure.end_to_end(case, seed, seconds, import_s)
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch and tally.failed == 0:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(mismatch)}")

    for note in notes:
        print(f"{name} {note}")
    out = {}
    for m in declared:
        value = metrics.get(m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{name} {m['name']} {value} {m['unit']}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0 if correct else 1


def run_all(spec, seed, seconds):
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(spec, args.seed, args.seconds)
    return run_one(spec, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
