"""tools/layers.py runs at size tiny and writes its documented record."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layers.py"
LAYERS = [
    "absorder.interval",
    "absorder.brute",
    "absorder.structural",
    "classify.classification",
]


def test_tiny_run_writes_the_record(tmp_path):
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(TOOL), "--size", "tiny", "--out", str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    assert time.monotonic() - start < 10
    (path,) = tmp_path.glob("BENCH_layers_*.json")
    assert out.stdout.strip() == str(path)
    record = json.loads(path.read_text())
    assert record["tool"] == "tools/layers.py" and record["size"] == "tiny"
    env = record["environment"]
    assert {"python", "numpy", "field_backend", "git_sha", "cold"} <= set(env)
    assert path.name == f"BENCH_layers_{(env['git_sha'] or 'nogit')[:7]}.json"
    # every involution of B3 (20) and H3 (32), each through all four layers
    groups = record["groups"]
    assert {g: v["involutions"] for g, v in groups.items()} == {"B3": 20, "H3": 32}
    assert all(v["peak_rss_mb"] > 0 for v in groups.values())
    assert list(record["layers"]) == LAYERS
    for layer in record["layers"].values():
        assert layer["calls"] == 52
        buckets = layer["by_size"]
        assert sum(b["calls"] for b in buckets) == 52
        assert [b["size_le"] for b in buckets] == sorted(b["size_le"] for b in buckets)
        assert all(b["size_le"] & (b["size_le"] - 1) == 0 for b in buckets)
        assert sum(b["total_s"] for b in buckets) == pytest.approx(layer["total_s"])
        assert all(b["median_us"] >= 0 for b in buckets)
