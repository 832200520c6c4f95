"""Every coxabs name the benchmark tracer wraps still exists.

bench/tracer.py replaces functions and methods by name when a run asks
for per-layer metrics.  This reads its SPANS, MARKERS and COUNTS tables
and resolves each target, installing nothing, so a rename in coxabs shows
up here instead of as a failed traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS + module.MARKERS + module.COUNTS


@pytest.mark.parametrize("module,attr,name", _tracer_tables())
def test_tracer_target_resolves(module, attr, name):
    owner = importlib.import_module(f"coxabs.{module}")
    if "." in attr:
        cls_name, member = attr.split(".")
        cls = getattr(owner, cls_name)
        # the tracer replaces the entry in the class body itself
        assert member in cls.__dict__, f"{name}: {attr} not defined on {cls_name}"
    else:
        assert callable(getattr(owner, attr, None)), f"{name}: coxabs.{module}.{attr}"
