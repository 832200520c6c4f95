"""The benchmark workloads run and pass their checks on tiny inputs.

bench/workloads.py reaches coxabs only through its public names, such as
enumerate_involutions and interval_of_involution.  This loads it by path
and runs each workload in-process as a benchmark worker does, at size
"tiny" with seed 7: setup, every run, check and check_round.  So a change
that breaks a workload shows up here, not as a failed benchmark run.
With Expected(corrupt=True) the checks must report failures.
"""

import importlib.util
import random
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
NAMES = ("reflength", "closures", "lattice")


def _load():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load()


def run_round(name: str, corrupt: bool) -> tuple[list, set]:
    """The ops of one tiny round and the indices of the failed ones."""
    workload = bench.WORKLOADS[name]("tiny", bench.Expected(corrupt))
    ops = workload.setup(random.Random(f"{name}:7:0"))  # the worker's seeding
    outs = [workload.run(op) for op in ops]
    failed = {k for k, op in enumerate(ops) if workload.check(op, outs[k]) is not None}
    return ops, failed | workload.check_round(ops, outs)[0]


@pytest.mark.parametrize("name", NAMES)
def test_tiny_round_passes_its_checks(name):
    ops, failed = run_round(name, corrupt=False)
    assert ops
    assert failed == set()


@pytest.mark.parametrize("name", NAMES)
def test_spoiled_expectations_fail(name):
    _, failed = run_round(name, corrupt=True)
    assert failed
