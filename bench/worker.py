"""One cold benchmark round: a fresh interpreter that sets up and runs ops.

    python3 bench/worker.py WORKLOAD SIZE SEED ROUND SPAWNED_AT [--trace]
        [--setup-only] [--corrupt-expected]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, imports and input building.
Prints one JSON object on stdout.  run.py is the entry point; this file is
its child and is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("size")
    parser.add_argument("seed", type=int)
    parser.add_argument("round", type=int)
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import coxabs

    if Path(coxabs.__file__).resolve().parent != SRC / "coxabs":
        raise SystemExit(f"imported coxabs from {coxabs.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        bindings = tracer.install()
        tracer.on = True
    from workloads import WORKLOADS, Expected

    workload = WORKLOADS[args.workload](args.size, Expected(args.corrupt_expected))
    rng = random.Random(f"{args.workload}:{args.seed}:{args.round}")
    ops = workload.setup(rng)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "inputs": workload.inputs()}
    if tracer is not None:
        tracer.mark_setup_done()
        result["bindings"] = bindings
    if args.setup_only:
        print(json.dumps(result))
        return 0

    latencies, outs, failures = [], [], {}
    clock = time.perf_counter
    for k, op in enumerate(ops):
        start = clock()
        try:
            out = workload.run(op)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            latencies.append(clock() - start)
            outs.append(None)
            failures[k] = f"{type(exc).__name__}: {exc}"
            continue
        latencies.append(clock() - start)
        outs.append(out)
        if tracer is not None:
            tracer.on = False
        try:
            note = workload.check(op, out)
        except Exception as exc:
            note = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.on = True
        if note is not None:
            failures[k] = note
    if tracer is not None:
        tracer.on = False
    round_failed, notes = workload.check_round(ops, outs)
    for k in round_failed:
        failures.setdefault(k, "round check")
    result.update(
        ops=len(ops),
        failed=len(failures),
        notes=notes + sorted(set(failures.values()))[:10],
        latencies=latencies,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        result["trace"] = tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
