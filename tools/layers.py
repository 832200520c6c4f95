"""Cold timings of the four lattice-route layers, by interval size.

    python3 tools/layers.py [--size {full,tiny}] [--out DIR]

For each group of bench/run.py's lattice workload (D6, F4, H4, B5 and E6;
B3 and H3 at size tiny) a fresh interpreter builds the system, lists its
involutions, and takes each involution u once, in that order, through the
steps of one lattice operation: the interval build
(interval_of_involution), the brute scan (is_lattice_bruteforce), the
structural test (is_lattice_structural) and the classification
(lattice_by_classification).  Each call is the first for its u, as in the
workload; the system's caches warm across the involutions as they do
there.  Each step is timed with time.perf_counter on its own, with no
tracer installed.

The layers carry the tracer's span names.  Per layer the record gives the
calls, the total seconds, and per interval size bucket (sizes up to 1, 2,
4, 8, ...) the calls, the total and the median in microseconds; per group
it gives the involutions and the peak RSS of its process.  It is written
to BENCH_layers_<short sha>.json in DIR (the repository root by default),
with bench/run.py's environment stamp.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUPS = {"full": ("D6", "F4", "H4", "B5", "E6"), "tiny": ("B3", "H3")}
LAYERS = (
    "absorder.interval",
    "absorder.brute",
    "absorder.structural",
    "classify.classification",
)


def time_group(label: str) -> dict:
    """Per involution of label, its interval size and the seconds of each
    layer, and the peak RSS of the process."""
    sys.path.insert(0, str(ROOT / "src"))
    import coxabs

    system = coxabs.RootSystem.named(label)
    full = coxabs.standard_parabolic(system, range(system.rank))
    clock, rows = time.perf_counter, []
    for u in coxabs.enumerate_involutions(full):
        marks = [clock()]
        poset = coxabs.interval_of_involution(u)
        marks.append(clock())
        coxabs.is_lattice_bruteforce(poset)
        marks.append(clock())
        coxabs.is_lattice_structural(u)
        marks.append(clock())
        coxabs.lattice_by_classification(u)
        marks.append(clock())
        rows.append([poset.size, *(b - a for a, b in zip(marks, marks[1:]))])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"label": label, "peak_rss_mb": rss_mb, "rows": rows}


def cold_group(label: str) -> dict:
    """time_group in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--group", label],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout)


def summarize(groups: list[dict]) -> dict:
    """Per layer: calls, total seconds, and per size bucket calls, total
    seconds and median microseconds."""
    rows = [row for g in groups for row in g["rows"]]
    layers = {}
    for k, name in enumerate(LAYERS, 1):
        buckets: dict[int, list[float]] = {}
        for row in rows:
            buckets.setdefault(1 << (row[0] - 1).bit_length(), []).append(row[k])
        layers[name] = {
            "calls": len(rows),
            "total_s": sum(row[k] for row in rows),
            "by_size": [
                {
                    "size_le": le,
                    "calls": len(ts),
                    "total_s": sum(ts),
                    "median_us": 1e6 * statistics.median(ts),
                }
                for le, ts in sorted(buckets.items())
            ],
        }
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", default="full", choices=tuple(GROUPS))
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--group", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.group:
        print(json.dumps(time_group(args.group)))
        return 0
    sys.path.insert(0, str(ROOT / "bench"))
    from run import environment

    groups = [cold_group(label) for label in GROUPS[args.size]]
    env = environment(None)
    record = {
        "tool": "tools/layers.py",
        "size": args.size,
        "environment": env,
        "groups": {
            g["label"]: {"involutions": len(g["rows"]), "peak_rss_mb": g["peak_rss_mb"]}
            for g in groups
        },
        "layers": summarize(groups),
    }
    path = args.out / f"BENCH_layers_{(env['git_sha'] or 'nogit')[:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
