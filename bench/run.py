"""Cold, layered benchmark of coxabs.  See bench/README.md.

    python3 bench/run.py --workload {reflength,closures,lattice} --seed N
        --seconds S --trace {0,1} [--size {full,tiny}]

Every round runs in a fresh interpreter (bench/worker.py), so every number
is cold.  With --trace 0, rounds run one after another until their timed
phases add up to S seconds, at least MIN_OPS operations and at least
MIN_WINDOWS windows; more fresh
processes then set up without running ops until SETUP_SAMPLES set-up times
are in hand.  Throughput and latency are medians over windows of
WINDOW_OPS consecutive operations.  With --trace 1, round 0 runs once
untraced and once traced, and the tracing overhead is the median over
matched chunks of the two.

The last line of stdout is the result: correct, attempted, failed and the
metrics (end-to-end ones untraced, per-layer ones traced).  The line before
it is a report with the environment, the inputs and every round.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402

WORKLOADS = ("reflength", "closures", "lattice")
MIN_OPS = {"full": 1000, "tiny": 1}
# Latency metrics are medians over windows of consecutive operations, so that
# a few seconds of interference from other tenants of the machine move one
# window, not the result.  1000 operations leave ten samples beyond p99.
WINDOW_OPS = 1000
# A median over fewer than four windows is a mean, which one slowed window
# moves; a workload with long rounds runs more of them to get four.
MIN_WINDOWS = {"full": 4, "tiny": 1}
SETUP_SAMPLES = 9
# trace.overhead_frac is a median over this many matched chunks of round 0.
OVERHEAD_CHUNKS = 25
# A run must end within 180 s: no worker may outlive DEADLINE_S, and a new
# process starts only if one more like the slowest so far ends by START_BY_S.
DEADLINE_S = 170
START_BY_S = 120


class WorkerError(RuntimeError):
    pass


class Clock:
    """Wall time since the run began, and the longest worker so far."""

    def __init__(self):
        self.begun = time.monotonic()
        self.longest = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.begun

    def room_for_one_more(self) -> bool:
        return self.elapsed() + self.longest <= START_BY_S


def spawn(clock, workload, size, seed, round_no, *flags) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, size, str(seed), str(round_no)]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + [repr(spawned_at), *flags],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, DEADLINE_S - clock.elapsed()),
    )
    clock.longest = max(clock.longest, time.monotonic() - spawned_at)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {cmd[2:]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def percentile(sorted_values, q) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def split(values, count) -> list[list[float]]:
    """Split values into count consecutive runs of near-equal length."""
    bounds = [len(values) * k // count for k in range(count + 1)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def windows(latencies) -> list[list[float]]:
    """Split one round's latencies into equal runs of at least WINDOW_OPS."""
    return split(latencies, max(1, len(latencies) // WINDOW_OPS))


def overhead_ratios(plain, traced_latencies) -> list[float]:
    """Traced over untraced time of each of OVERHEAD_CHUNKS matched chunks.

    Both rounds ran the same operations in the same order, so chunk k did
    the same work in each; a stall of the machine moves one chunk's ratio,
    not the median of them.
    """
    count = min(OVERHEAD_CHUNKS, len(plain))
    return [sum(t) / sum(p) for p, t in zip(split(plain, count), split(traced_latencies, count))]


def untraced(workload, size, seed, seconds, corrupt) -> tuple[dict, list, dict]:
    flags = ["--corrupt-expected"] if corrupt else []
    clock = Clock()
    rounds, parts = [], []

    def enough() -> bool:
        return (
            sum(r["timed_s"] for r in rounds) >= seconds
            and sum(r["ops"] for r in rounds) >= MIN_OPS[size]
            and len(parts) >= MIN_WINDOWS[size]
        )

    while not rounds or (not enough() and clock.room_for_one_more()):
        res = spawn(clock, workload, size, seed, len(rounds), *flags)
        res["timed_s"] = sum(res["latencies"])
        rounds.append(res)
        parts += [sorted(w) for w in windows(res["latencies"])]
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES and clock.room_for_one_more():
        setups.append(spawn(clock, workload, size, seed, len(setups), "--setup-only")["setup_s"])
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(len(w) / sum(w) for w in parts),
        "op_p50_ms": 1e3 * statistics.median(percentile(w, 0.5) for w in parts),
        "op_p99_ms": 1e3 * statistics.median(percentile(w, 0.99) for w in parts),
        "peak_rss_mb": max(r["maxrss_kb"] for r in rounds) / 1024,
        "ok_frac": 1 - failed / attempted,
    }
    counts = {"attempted": attempted, "failed": failed, "windows": len(parts), "setup_samples": setups}
    return metrics, rounds, counts


def traced(workload, size, seed, corrupt) -> tuple[dict, list, dict]:
    flags = ["--corrupt-expected"] if corrupt else []
    clock = Clock()
    plain = spawn(clock, workload, size, seed, 0, *flags)
    traced_round = spawn(clock, workload, size, seed, 0, "--trace", *flags)
    rounds = [plain, traced_round]
    for r in rounds:
        r["timed_s"] = sum(r["latencies"])
    metrics = layer_metrics(traced_round["trace"])
    ratios = overhead_ratios(plain["latencies"], traced_round["latencies"])
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
    counts = {
        "overhead_chunk_ratios": ratios,
        "attempted": plain["ops"] + traced_round["ops"],
        "failed": plain["failed"] + traced_round["failed"],
        "bindings": traced_round["bindings"],
        "spans": traced_round["trace"]["spans"],
    }
    return metrics, rounds, counts


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read from its files; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from coxabs.field import FieldScalar

    backend = type(FieldScalar.from_rational(1).coords[0])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "field_backend": f"{backend.__module__}.{backend.__qualname__}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "seed": seed,
        "cold": True,
    }


def measure(workload, seed, seconds, trace, size="full", corrupt=False) -> tuple[dict, dict]:
    """Run one benchmark measurement; return (result line, report)."""
    if trace:
        metrics, rounds, counts = traced(workload, size, seed, corrupt)
    else:
        metrics, rounds, counts = untraced(workload, size, seed, seconds, corrupt)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    report = {
        "workload": workload,
        "size": size,
        "trace": trace,
        "environment": environment(seed),
        "inputs": rounds[0]["inputs"],
        "rounds": [
            {
                "round": k,
                "ops": r["ops"],
                "failed": r["failed"],
                "timed_s": r["timed_s"],
                "setup_s": r["setup_s"],
                "maxrss_kb": r["maxrss_kb"],
                "notes": r["notes"],
            }
            for k, r in enumerate(rounds)
        ],
        **{k: v for k, v in counts.items() if k not in ("attempted", "failed")},
    }
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if not (ROOT / "src" / "coxabs" / "__init__.py").is_file():
        print(f"no coxabs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
