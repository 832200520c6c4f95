"""Self-test of the benchmark on tiny inputs.  Run from the repository root:

    python3 bench/selftest.py

For each workload it checks that
  * an untraced tiny run passes its checks (failed = 0, ok_frac = 1) and
    prints exactly the end-to-end metrics named in BENCHMARK.json;
  * a traced tiny run prints exactly the per-layer metrics, and two traced
    runs with one seed give exactly the same counts;
  * a run whose expected values are deliberately wrong counts failures.
    Only the benchmark's own reference tables are spoiled (workloads.py,
    Expected(corrupt=True)); coxabs itself is never touched.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, measure  # noqa: E402

SEED = 7


def metric_names(spec: dict, key: str) -> set:
    return {m["name"] for m in spec[key]}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e, layers = metric_names(spec, "end_to_end"), metric_names(spec, "per_layer")
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    for name in WORKLOADS:
        result, _ = measure(name, SEED, 0.2, trace=False, size="tiny")
        expect(set(result["metrics"]) == e2e, f"{name}: end-to-end metrics match BENCHMARK.json")
        expect(
            result["correct"] and result["failed"] == 0 and result["metrics"]["ok_frac"]["value"] == 1,
            f"{name}: {result['attempted']} ops, failed = {result['failed']}",
        )

        first, _ = measure(name, SEED, 0.2, trace=True, size="tiny")
        second, _ = measure(name, SEED, 0.2, trace=True, size="tiny")
        expect(set(first["metrics"]) == layers, f"{name}: per-layer metrics match BENCHMARK.json")
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
            for r in (first, second)
        ]
        expect(counts[0] == counts[1], f"{name}: per-layer counts repeat exactly for seed {SEED}")

        spoiled, _ = measure(name, SEED, 0.2, trace=False, size="tiny", corrupt=True)
        ok_frac = spoiled["metrics"]["ok_frac"]["value"]
        expect(
            spoiled["failed"] > 0 and not spoiled["correct"] and ok_frac < 1,
            f"{name}: wrong expected values give failed = {spoiled['failed']}, "
            f"failed_frac = {1 - ok_frac:.3f}",
        )

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
