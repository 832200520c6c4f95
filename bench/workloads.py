"""The three benchmark workloads: seeded inputs, the timed call, and checks.

A workload builds its inputs in ``setup`` (root systems, group enumeration
or involution pools), times ``run`` once per input, and judges each output
with ``check`` and, once the round is over, ``check_round``.  The checks use
tables kept here, independent of coxabs, so that a wrong answer from the
program shows up as a failed operation.  ``Expected(corrupt=True)`` spoils
those tables on purpose; the self-test uses it to prove that the checks can
fail.

Every coxabs name is looked up through the package at call time, so a
traced worker that installed its wrappers after import still calls them.
"""

from __future__ import annotations

import coxabs

# Shephard-Todd: sum over W of q^{l_T(w)} = prod (1 + e_i q) over the
# exponents e_i (Shephard and Todd, Canad. J. Math. 6, 1954).
EXPONENTS = {
    "H3": (1, 5, 9),
    "D4": (1, 3, 3, 5),
    "H4": (1, 11, 19, 29),
    "E6": (1, 4, 5, 7, 8, 11),
}

# Whether [1, w0] is a lattice, as the README states per type.
W0_IS_LATTICE = {
    "B4": True,
    "B5": True,
    "H3": True,
    "D6": False,
    "F4": False,
    "H4": False,
}


class Expected:
    """The reference values the checks compare against."""

    def __init__(self, corrupt: bool = False):
        self.exponents = dict(EXPONENTS)
        self.w0_is_lattice = dict(W0_IS_LATTICE)
        self.rank_offset = 0
        if corrupt:
            self.exponents = {k: (e[0] + 1,) + e[1:] for k, e in EXPONENTS.items()}
            self.w0_is_lattice = {k: not v for k, v in W0_IS_LATTICE.items()}
            self.rank_offset = 1

    def lt_distribution(self, label: str) -> list[int]:
        """Coefficients of prod (1 + e_i q), lowest degree first."""
        poly = [1]
        for e in self.exponents[label]:
            poly = [a + e * b for a, b in zip(poly + [0], [0] + poly)]
        return poly


def _named(label: str):
    return coxabs.RootSystem.named(label)


class Reflength:
    """l_T of every element of two whole groups, in one seeded order.

    Each element is measured once per process, so every call misses the
    l_T cache.  H4 takes the FieldScalar rank route and E6 the rational
    route.  Checks: parity l_T = l_S (mod 2) per element, and the
    Shephard-Todd distribution for each group the round covers.
    """

    GROUPS = {"full": ("H4", "E6"), "tiny": ("H3", "D4")}

    def __init__(self, size: str, expected: Expected):
        self.groups = self.GROUPS[size]
        self.expected = expected

    def setup(self, rng) -> list:
        self.orders = {}
        ops = []
        for label in self.groups:
            system = _named(label)
            enum = coxabs.enumerate_group(system)
            self.orders[label] = enum.size
            ops += [(label, enum.element(i), len(enum.words[i])) for i in range(enum.size)]
        rng.shuffle(ops)
        return ops

    def inputs(self) -> dict:
        return {"elements": dict(self.orders)}

    @staticmethod
    def run(op):
        return op[1].reflection_length()

    def check(self, op, out) -> str | None:
        label, w, length_s = op
        if not 0 <= out <= w.system.rank or (out - length_s) % 2:
            return f"{label}: l_T = {out} with l_S = {length_s}"
        return None

    def check_round(self, ops, outs) -> tuple[set, list]:
        failed, notes = set(), []
        for label in self.groups:
            idx = [k for k, op in enumerate(ops) if op[0] == label]
            if len(idx) != self.orders[label]:
                continue
            dist = [0] * (len(self.expected.exponents[label]) + 1)
            for k in idx:
                if outs[k] is not None and 0 <= outs[k] < len(dist):
                    dist[outs[k]] += 1
            want = self.expected.lt_distribution(label)
            if dist != want:
                failed.update(idx)
                notes.append(f"{label}: l_T distribution {dist}, expected {want}")
        return failed, notes


class Closures:
    """parabolic_closure(w) on seeded elements, mostly non-involutions.

    These take the fixed-space route (kernel, rref, invert, Subspace).
    Elements are drawn without repetition per group, so no two operations
    share an input.  Checks: rank of the closure equals l_T(w), and the
    closure contains w.

    H3, F4 and B4 are taken whole and H4 is sampled.  The non-involutions
    of H4 with l_T of 2 or 3 cost 3-5 ms each, the most of any input, and
    their slowest eighth lies within 5%.  They are about 9% of the
    operations, so the p99 falls in that dense top eighth.  A stall of the
    machine then lifts the p99 above them only if it slows more than an
    eighth of them.  Were they a fifth of the operations, the p99 would
    sit at their very top, where a stall that slows one in twenty of them
    moves it by a quarter.
    """

    GROUPS = {
        "full": (("H3", 120), ("F4", 1152), ("B4", 384), ("H4", 360)),
        "tiny": (("H3", 30), ("F4", 30), ("B4", 30), ("H4", 30)),
    }

    def __init__(self, size: str, expected: Expected):
        self.groups = self.GROUPS[size]
        self.expected = expected

    def setup(self, rng) -> list:
        ops = []
        for label, count in self.groups:
            enum = coxabs.enumerate_group(_named(label))
            ops += [(label, enum.element(i)) for i in rng.sample(range(enum.size), count)]
        rng.shuffle(ops)
        return ops

    def inputs(self) -> dict:
        return {"elements": dict(self.groups)}

    @staticmethod
    def run(op):
        return coxabs.parabolic_closure(op[1])

    def check(self, op, out) -> str | None:
        label, w = op
        want = w.reflection_length() + self.expected.rank_offset
        if out.rank != want:
            return f"{label}: closure rank {out.rank}, expected {want}"
        if not out.contains_element(w):
            return f"{label}: closure does not contain its element"
        return None

    @staticmethod
    def check_round(ops, outs) -> tuple[set, list]:
        return set(), []


class Lattice:
    """The three lattice verdicts on every involution of five groups.

    The involution pool of each group is searched in setup, and its
    members other than the w0 tops are run once each, in an order shuffled
    by the seed.  Seeded draws from the pools instead made ops_per_s move
    by about 10% between seeds.  The w0 tops carry the large intervals and fill the l_T cache
    for their group, so they sit at fixed fractions of the order; at
    seeded places they would move the share of cache hits, and with it the
    median latency.  Checks: the three verdicts agree, and each w0 verdict
    matches W0_IS_LATTICE.
    """

    POOLS = {"full": ("D6", "F4", "H4", "B5", "E6"), "tiny": ("F4", "B4", "H3")}
    TOPS = {"full": ("D6", "F4", "H4", "B5"), "tiny": ("F4", "B4", "H3")}

    def __init__(self, size: str, expected: Expected):
        self.pools = self.POOLS[size]
        self.tops = self.TOPS[size]
        self.expected = expected

    def setup(self, rng) -> list:
        self.pool_sizes = {}
        tops = [(label, coxabs.longest_element(_named(label)), True) for label in self.tops]
        top_keys = {label: u.key() for label, u, _ in tops}
        draws = []
        for label in self.pools:
            system = _named(label)
            pool = coxabs.enumerate_involutions(
                coxabs.standard_parabolic(system, range(system.rank))
            )
            self.pool_sizes[label] = len(pool)
            draws += [(label, u, False) for u in pool if u.key() != top_keys.get(label)]
        rng.shuffle(draws)
        ops = []
        start = 0
        for k, top in enumerate(tops):
            stop = (2 * k + 1) * len(draws) // (2 * len(tops))
            ops += draws[start:stop] + [top]
            start = stop
        return ops + draws[start:]

    def inputs(self) -> dict:
        return {"involutions": dict(self.pool_sizes), "tops": list(self.tops)}

    @staticmethod
    def run(op):
        u = op[1]
        poset = coxabs.interval_of_involution(u)
        return (
            coxabs.is_lattice_bruteforce(poset)[0],
            coxabs.is_lattice_structural(u)[0],
            coxabs.lattice_by_classification(u),
        )

    def check(self, op, out) -> str | None:
        label, _, is_top = op
        if len(set(out)) != 1:
            return f"{label}: verdicts disagree (brute, structural, classification) = {out}"
        if is_top and out[0] != self.expected.w0_is_lattice[label]:
            return f"{label} w0: lattice = {out[0]}, expected {not out[0]}"
        return None

    @staticmethod
    def check_round(ops, outs) -> tuple[set, list]:
        return set(), []


WORKLOADS = {"reflength": Reflength, "closures": Closures, "lattice": Lattice}
