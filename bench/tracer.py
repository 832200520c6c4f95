"""Per-layer tracing of coxabs, installed from outside the package.

``Tracer.install`` wraps the public functions listed in SPANS and replaces
every binding of each one: the defining module, every coxabs module that
imported it by name (``parabolic_closure`` inside absorder and classify,
for example), and the package namespace.  Methods are replaced on their
class, which all bindings share.  Each wrapped call records a span: its
duration, and its self time, which is the duration minus the time of the
spans it caused.  The FieldScalar ring operations in COUNTS are only
counted, since a span per ring operation would cost more than the work,
and the MARKERS only record their callers.

Spans are aggregated in memory per name and per (caller, callee) pair and
turned into the per-layer metrics by ``layer_metrics``.  A worker without
``--trace 1`` never imports this module, so untraced runs install nothing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name); "Class.attr" names a method or property.
# Only functions a per-layer metric reads are wrapped: a span takes its
# time out of its caller's self time, so an unreported span would hide
# work from the layer that is reported.
SPANS = (
    ("rootsystem", "RootSystem.__init__", "rootsystem.build"),
    ("element", "enumerate_group", "element.enumerate"),
    ("element", "Element.reflection_length", "element.lt"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "rank_rational", "linalg.rank_rational"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "Subspace.from_vectors", "linalg.subspace_from_vectors"),
    ("linalg", "Subspace.contains", "linalg.subspace_contains"),
    ("parabolic", "parabolic_closure", "parabolic.closure"),
    ("parabolic", "involutions_with_words", "parabolic.involutions"),
    ("absorder", "interval_of_involution", "absorder.interval"),
    ("absorder", "is_lattice_bruteforce", "absorder.brute"),
    ("absorder", "is_lattice_structural", "absorder.structural"),
    ("classify", "lattice_by_classification", "classify.classification"),
)

# Markers record their calls and who made them, but no time: the work under
# a marker stays in its caller's self time.  parabolic_closure calls
# fixed_space only on its fixed-space route.
MARKERS = (("element", "Element.fixed_space", "element.fixed_space"),)

COUNTS = (
    ("field", "FieldScalar.__mul__", "field.mul"),
    ("field", "FieldScalar.__rmul__", "field.mul"),
    ("field", "FieldScalar.__add__", "field.add"),
    ("field", "FieldScalar.__radd__", "field.add"),
    ("field", "FieldScalar.__sub__", "field.sub"),
    ("field", "FieldScalar.invert", "field.invert"),
    ("field", "FieldScalar.sign", "field.sign"),
)


def _brute_pairs(args, result) -> int:
    """Pairs is_lattice_bruteforce visited: it scans j, then i < j."""
    n = args[0].size
    ok, failure = result
    if ok:
        return n * (n - 1) // 2
    j = failure.w_id
    return j * (j - 1) // 2 + failure.v_id + 1


# Work counts read off a span's arguments and result.
OBSERVE = {
    "rootsystem.build": ("rootsystem.roots", lambda args, result: args[0].n_roots),
    "element.enumerate": ("element.group_elements", lambda args, result: result.size),
    "absorder.interval": ("absorder.interval.elements", lambda args, result: result.size),
    "absorder.brute": ("absorder.brute.pairs", _brute_pairs),
}


class Tracer:
    """Span and count aggregation for one worker process."""

    def __init__(self):
        self.on = False
        self.stack: list[list] = []
        self.spans: dict[str, list[float]] = {}
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self.setup_spans: dict[str, list[float]] = {}

    def _span(self, name: str, fn):
        stack, edges, counts = self.stack, self.edges, self.counts
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        observe = OBSERVE.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            edges[(stack[-1][0] if stack else "", name)] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            if observe is not None:
                counts[observe[0]] += observe[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _mark(self, name: str, fn):
        stack, edges = self.stack, self.edges
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if self.on:
                edges[(stack[-1][0] if stack else "", name)] += 1
                stats[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            if self.on:
                counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> int:
        """Wrap every target and each of its bindings; return the binding count.

        Raises RuntimeError if any coxabs module still holds an unwrapped
        original afterwards.
        """
        modules = [m for n, m in sys.modules.items() if n == "coxabs" or n.startswith("coxabs.")]
        originals = []
        bindings = 0
        for table, make in ((SPANS, self._span), (MARKERS, self._mark), (COUNTS, self._count)):
            for module, attr, name in table:
                owner = sys.modules[f"coxabs.{module}"]
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[member]
                    if isinstance(raw, staticmethod):
                        originals.append(raw.__func__)
                        setattr(cls, member, staticmethod(make(name, raw.__func__)))
                    elif isinstance(raw, property):
                        originals.append(raw.fget)
                        setattr(cls, member, property(make(name, raw.fget), doc=raw.__doc__))
                    else:
                        originals.append(raw)
                        setattr(cls, member, make(name, raw))
                    bindings += 1
                    continue
                fn = getattr(owner, attr)
                originals.append(fn)
                wrapped = make(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            bindings += 1
        left = {id(fn) for fn in originals}
        for mod in modules:
            for key, value in vars(mod).items():
                if id(value) in left:
                    raise RuntimeError(f"{mod.__name__}.{key} escaped the tracer")
        return bindings

    def mark_setup_done(self) -> None:
        self.setup_spans = {k: list(v) for k, v in self.spans.items()}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "setup_spans": self.setup_spans,
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "counts": dict(self.counts),
        }


def layer_metrics(dump: dict) -> dict[str, float]:
    """The per-layer metrics of one traced worker, by BENCHMARK.json name."""
    spans, setup, counts = dump["spans"], dump["setup_spans"], dump["counts"]
    edges = Counter({(a, b): n for a, b, n in dump["edges"]})

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def share(part, whole):
        return part / whole if whole else 0.0

    lt_calls = calls("element.lt")
    lt_misses = edges[("element.lt", "linalg.rank")] + edges[("element.lt", "linalg.rank_rational")]
    out = {
        "rootsystem.build_s": total_s("rootsystem.build"),
        "rootsystem.roots": counts.get("rootsystem.roots", 0),
        "element.enumerate_s": total_s("element.enumerate"),
        "element.group_elements": counts.get("element.group_elements", 0),
        "element.lt.calls": lt_calls,
        "element.lt.self_s": self_s("element.lt"),
        "element.lt.hit_ratio": 1.0 - share(lt_misses, lt_calls) if lt_calls else 0.0,
    }
    for op in ("mul", "sub", "add", "invert", "sign"):
        out[f"field.{op}.calls"] = counts.get(f"field.{op}", 0)
    for name in (
        "linalg.rank",
        "linalg.rank_rational",
        "linalg.rref",
        "linalg.kernel",
        "linalg.subspace_contains",
        "linalg.subspace_from_vectors",
        "parabolic.closure",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["parabolic.closure.fixed_route_frac"] = share(
        edges[("parabolic.closure", "element.fixed_space")], calls("parabolic.closure")
    )
    out["parabolic.involutions.self_s"] = self_s("parabolic.involutions")
    out["parabolic.involutions.setup_s"] = setup.get("parabolic.involutions", [0, 0.0, 0.0])[2]
    out["absorder.interval.calls"] = calls("absorder.interval")
    out["absorder.interval.self_s"] = self_s("absorder.interval")
    out["absorder.interval.elements"] = counts.get("absorder.interval.elements", 0)
    out["absorder.brute.self_s"] = self_s("absorder.brute")
    out["absorder.brute.pairs"] = counts.get("absorder.brute.pairs", 0)
    out["absorder.structural.self_s"] = self_s("absorder.structural")
    out["classify.classification.calls"] = calls("classify.classification")
    out["classify.classification.self_s"] = self_s("classify.classification")
    return out
