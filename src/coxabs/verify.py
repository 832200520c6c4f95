"""End-to-end checks tying the independent code paths together.

Each check_* function exercises one verifiable claim about intervals in
the absolute order below involutions: the order-matrix and closure-based
lattice deciders agree with the type-based verdict, the non-lattice
types carry explicit root-level witnesses, the deletion oracle matches
the fixed-space rank, the structure laws behind the closure map hold on
every element of every small group, and the Cayley-graph oracle
reproduces each interval poset edge for edge.  Each check body yields
(passed, line) pairs in print order, and _check folds them into one
CheckResult record, so a line and its verdict are written together and
the command line tool and the test suite share one implementation.

The structure laws read every product off one table per group, left[t, w]
= id(t * w) for positive roots t and element ids w, built only here.

The two heavyweight sweeps (E6 exhaustion, full H4) sit behind the deep
flag; with deep=False the remaining checks finish in well under a
minute.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import math
import random
import time
import traceback

import numpy as np

from .absorder import closure_map_report, closure_walk, interval_of_involution
from .classify import (
    counterexample_witness,
    decompose_involution,
    lattice_verdicts,
)
from .dihedral import Dihedral
from .element import (
    Element,
    check_T_reduced,
    enumerate_group,
    longest_element,
    orbit_labels,
)
from .field import ONE, PHI, FieldScalar
from .linalg import rank
from .oracles import (
    cayley_interval_elements,
    dyer_reflection_length,
    hurwitz_orbits,
    t_reduced_expressions,
)
from .parabolic import Parabolic, enumerate_involutions, parabolic_closure
from .rootsystem import CapExceededError, RootSystem, format_type_multiset

#: w0 intervals that must be lattices by all three tests
LATTICE_POSITIVE_TYPES = (
    "A1",
    "I2(4)",
    "I2(6)",
    "I2(8)",
    "I2(10)",
    "B3",
    "B4",
    "B5",
    "D4",
    "H3",
)

#: w0 intervals that must fail, with the intersection type of the witness
LATTICE_NEGATIVE_TYPES = (("D6", "A3"), ("F4", "A2"), ("H4", "I2(5)"))

#: every involution of these groups goes through all three lattice tests
SWEEP_TYPES = (
    "A1",
    "A2",
    "A3",
    "A4",
    "A5",
    "B2",
    "B3",
    "B4",
    "B5",
    "D4",
    "D5",
    "D6",
    "F4",
    "H3",
    "H4",
)
DEEP_SWEEP_TYPES = SWEEP_TYPES + ("E6",)

#: irreducible geometric types of order at most 1152
SMALL_GROUP_TYPES = (
    "A1",
    "A2",
    "A3",
    "A4",
    "A5",
    "B2",
    "B3",
    "B4",
    "D4",
    "F4",
    "H3",
    "I2(5)",
    "I2(6)",
)

#: (type, word-length cap or None for the whole group)
DYER_SCOPES = (
    ("A3", None),
    ("B3", None),
    ("H3", None),
    ("A4", 10),
    ("B4", 10),
    ("D4", 10),
    ("F4", 10),
)

FIELD_TRIALS = 10_000
FIELD_SEED = 20260815


@dataclasses.dataclass
class CheckResult:
    """Outcome of one named check: verdict, wall time, detail lines."""

    name: str
    passed: bool
    elapsed: float
    lines: list[str] = dataclasses.field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name}  ({self.elapsed:.2f}s)"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "lines": list(self.lines),
        }


#: (name, check, whether it takes deep), one entry per check in run order
ALL_CHECKS: list = []


def _check(name: str):
    """Register under name a check body yielding (passed, line) pairs.

    The registered function keeps the body's name and parameters and
    returns a CheckResult timed around the body: its lines in the order
    yielded, passed when every pair passed (an info line yields True).
    """

    def register(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            outcomes = list(body(*args, **kwargs))
            passed = all(good for good, _ in outcomes)
            lines = [line for _, line in outcomes]
            return CheckResult(name, passed, time.perf_counter() - start, lines)

        takes_deep = "deep" in inspect.signature(body).parameters
        ALL_CHECKS.append((name, check, takes_deep))
        return check

    return register


def _involutions(name: str) -> list[Element]:
    """Every involution of the named type, in search order."""
    system = RootSystem.named(name)
    return enumerate_involutions(Parabolic(system, (1 << system.n_pos) - 1))


def _sweep(name: str, outcomes: list):
    """Yield, after the group name, the first three failure lines of one
    group in a sweep check, whose outcomes hold a failure line or None per
    case checked; return the failure count, for `yield from`."""
    failed = [line for line in outcomes if line is not None]
    for line in failed[:3]:
        yield False, f"{name}: {line}"
    return len(failed)


def _w0_verdicts(name: str) -> tuple[bool, bool, bool]:
    """The three verdicts below the longest element of the named type."""
    return lattice_verdicts(longest_element(RootSystem.named(name)))[0]


@_check("lattice positives")
def check_lattice_positives():
    """The listed maximal intervals are lattices by all three tests.

    Bond labels above 6 leave the supported coordinate field, so those
    dihedral groups run through the symbolic model; I2(4) and I2(6) run
    through both the geometric and the symbolic route and must agree.
    """
    for name in LATTICE_POSITIVE_TYPES:
        bond = int(name[3:-1]) if name.startswith("I2(") else None
        if bond is not None:
            group = Dihedral(bond)
            mirrored = group.verdicts(group.longest_element())
        if bond is not None and bond > 6:
            verdicts, route = mirrored, "symbolic"
        else:
            verdicts, route = _w0_verdicts(name), "geometric"
            if bond is not None:
                if mirrored != verdicts:
                    yield False, f"{name}: symbolic route disagrees: {mirrored}"
                route = "geometric+symbolic"
        yield all(verdicts), (
            f"{name} ({route}): brute={verdicts[0]} "
            f"structural={verdicts[1]} classification={verdicts[2]}"
        )


@_check("lattice negatives and witnesses")
def check_lattice_negatives():
    """D6, F4, H4 fail all three tests and carry the announced witnesses.

    The witness pair consists of two involutive parabolics whose
    intersection has the expected type and is not involutive, so the
    central involutions of the pair have no meet.
    """
    for name, expected in LATTICE_NEGATIVE_TYPES:
        verdicts = _w0_verdicts(name)
        witness = counterexample_witness(name)
        got = format_type_multiset(witness.intersection.type_labels)
        good = (
            verdicts == (False, False, False)
            and witness.is_valid()
            and witness.intersection_matches()
            and got == expected
        )
        yield good, (
            f"{name}: brute={verdicts[0]} structural={verdicts[1]} "
            f"classification={verdicts[2]} witness intersection={got} "
            f"(expected {expected})"
        )


@_check("E7/E8 witnesses")
def check_e7_e8_witnesses():
    """Root-level witness pairs in E7 and E8, no group enumeration.

    A D4 subsystem and its conjugate by an adjacent simple reflection
    intersect in a type A3 subsystem, which is not involutive; this
    settles both types with root arithmetic alone.
    """
    expected_pos = {"E7": 63, "E8": 120}
    for name in ("E7", "E8"):
        system = RootSystem.named(name)
        try:  # the group is refused, so nothing enumerated it
            enumerate_group(system)
            refused = False
        except CapExceededError:
            refused = True
        witness = counterexample_witness(name)
        got = format_type_multiset(witness.intersection.type_labels)
        p1_type = format_type_multiset(witness.p1.type_labels)
        good = (
            system.n_pos == expected_pos[name]
            and p1_type == "D4"
            and witness.is_valid()
            and witness.intersection_matches()
            and refused
        )
        yield good, (
            f"{name}: {system.n_pos} positive roots, pair of type "
            f"{p1_type}, intersection {got}, enumerated=no"
        )


@_check("classification sweep")
def check_classification_sweep(deep: bool = False):
    """Every involution of every sweep group gets all three verdicts.

    The type-table verdict must equal the closure-intersection verdict
    and the order-matrix verdict on every single involution; the sweep
    is exhaustive, not sampled.  deep adds E6.
    """
    for name in DEEP_SWEEP_TYPES if deep else SWEEP_TYPES:
        verdicts = [(u, lattice_verdicts(u)[0]) for u in _involutions(name)]
        lattices = sum(classified for _, (_, _, classified) in verdicts)
        outcomes = [
            None
            if brute == structural == classified
            else f"disagreement at involution with word {u.reduced_word()}: "
            f"brute={brute} structural={structural} table={classified}"
            for u, (brute, structural, classified) in verdicts
        ]
        bad = yield from _sweep(name, outcomes)
        yield not bad, (
            f"{name}: {len(outcomes)} involutions, {lattices} lattice intervals, "
            f"{bad} disagreements"
        )
    if not deep:
        yield True, "E6 skipped (enable deep)"


@_check("deletion oracle agreement")
def check_dyer_agreement():
    """Deletion count equals fixed-space rank, element by element.

    Whole groups for A3, B3, H3; all elements with word length at most
    10 for A4, B4, D4, F4.  Exact equality, no sampling.
    """
    for name, cap in DYER_SCOPES:
        system = RootSystem.named(name)
        enum = enumerate_group(system)
        outcomes = [
            None
            if dyer_reflection_length(system, word) == ell
            else f"mismatch at word {word}"
            for word, ell in zip(enum.words, enum.reflection_lengths.tolist())
            if cap is None or len(word) <= cap
        ]
        scope = "all elements" if cap is None else f"word length <= {cap}"
        bad = yield from _sweep(name, outcomes)
        yield not bad, f"{name}: {len(outcomes)} elements ({scope}), {bad} mismatches"


def _pointwise_fixers(system: RootSystem, perms: np.ndarray):
    """Criterion c on exact integers: fixes(basis) tells, per row v of perms,
    whether M_v x = x for every x of a FieldScalar basis.  Column j of M_v is
    v(a_j) in the reference system.roots as integer pairs (a, b) = a + b*phi,
    x with its denominators cleared is pairs (p, q), and (a + b*phi)(p + q*phi)
    = ap + bq + (aq + bp + bq)*phi.  No entry of M_v x passes 3 * rank *
    max|a, b| * max|p, q|, so the products run on int64 while that bound
    fits it, and on Python ints otherwise.
    """
    coords = np.array([[[int(q) for q in c.coords] for c in r] for r in system.roots])
    a, b = coords[perms[:, system.simple_idx]].transpose(3, 0, 2, 1)  # [v, i, j]

    def fixes(basis) -> np.ndarray:
        den = math.lcm(*(q.denominator for x in basis for c in x for q in c.coords))
        pairs = [[[int(q * den) for q in c.coords] for c in x] for x in basis]
        widest = max((abs(v) for x in pairs for c in x for v in c), default=0)
        bound = 3 * system.rank * int(np.abs(coords).max()) * widest
        dtype = np.int64 if bound <= np.iinfo(np.int64).max else object
        # p[j, k] + q[j, k]*phi: coordinate j of basis vector k
        p, q = np.array(pairs, dtype=dtype).reshape(-1, system.rank, 2).T
        av, bv = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        fixed = (av @ p + bv @ q == p) & (av @ q + bv @ p + bv @ q == q)
        return fixed.all(axis=(1, 2))

    return fixes


def _order_law_failures(system: RootSystem) -> tuple[list[str], int]:
    """All structure-law violations in one group, with the element count.

    The laws, each quantified over every element or every involution:

      * the closure of w has rank equal to the reflection length of w;
      * a reflection t sits below w exactly when t lies in the closure;
      * w is an involution exactly when it is the longest element of its
        own closure;
      * t sits below w0 exactly when t and w0 commute;
      * below an involution u: every v is an involution commuting with
        u, and V splits as the direct sum of the moved spaces of v and
        vu and the fixed space of u;
      * v sits below u exactly when v is an involution of the closure of
        u, exactly when v is an involution fixing the fixed space of u
        pointwise;
      * the closure map is a bijection from [1, u] onto the involutive
        parabolics inside the closure of u and an order isomorphism;
      * every minimal reflection factorization of an involution consists
        of pairwise commuting reflections.

    Each law is one whole-array comparison, and only its failures are
    walked in Python, t-major, then w.  The products come from one table,
    left[t, w] = id(t * w), n_pos calls of ids_of_images: id(t) is
    left[t, 0], id(u * w) is u's word applied to left letter by letter, and
    the subgroup generated by the closure of u is the orbit of the identity
    under the rows left[b], b simple in it.  Criterion c runs on integers
    (_pointwise_fixers); the direct sum split and the closure ranks stay on
    the FieldScalar reference.
    """
    failures: list[str] = []
    enum = enumerate_group(system)
    n, n_pos = enum.size, system.n_pos
    perms, table, simple = enum.perms, system.reflection_table, system.simple_idx
    ell = enum.reflection_lengths.astype(np.int64)
    invol_ids = enum.involution_ids()
    invol = np.isin(np.arange(n), invol_ids)
    closures = [parabolic_closure(enum.element(i)) for i in range(n)]
    left = np.array([enum.ids_of_images(t[perms[:, simple]]) for t in table])

    ranks = np.array([c.rank for c in closures])
    for i in np.flatnonzero(ranks != ell):
        failures.append(f"closure rank {ranks[i]} != length {ell[i]} at id {i}")

    below = 1 + ell[left] == ell
    masks = np.array([c.mask for c in closures], dtype=object)
    member = (masks >> np.arange(n_pos)[:, None]) & 1 == 1
    for t, w in zip(*np.nonzero(below != member)):
        failures.append(
            f"reflection {t} below id {w}: {below[t, w]}, "
            f"membership: {member[t, w]}"
        )

    longest = np.array([c.longest_element.perm for c in closures])
    is_longest = (longest == perms).all(axis=1)
    for i in np.flatnonzero(invol != is_longest):
        failures.append(
            f"id {i}: involution={invol[i]} but "
            f"longest-of-closure={is_longest[i]}"
        )

    w0 = longest_element(system).perm
    w0_id = int(enum.ids_of_images(w0[None, simple])[0])
    below_w0 = 1 + ell[left[:, w0_id]] == ell[w0_id]
    for t in np.flatnonzero(below_w0 != (table[:, w0] == w0[table]).all(axis=1)):
        failures.append(f"reflection {t} vs w0: order/commutation")

    @functools.cache
    def moved(i: int):
        return enum.element(i).moved_space()

    fixes = _pointwise_fixers(system, perms[invol_ids])
    ids = np.arange(n)
    for ui in invol_ids:
        u = enum.element(ui)
        u_perm = perms[ui]
        uw = ids
        for s in reversed(enum.words[ui]):
            uw = left[simple[s]][uw]
        pids = enum.inverse_ids[uw]  # id(w^-1 u) = id((u w)^-1), as u = u^-1
        below = ell + ell[pids] == ell[ui]

        commutes = (table[:, u_perm] == u_perm[table]).all(axis=1)
        criterion = commutes & (u_perm[:n_pos] >= n_pos)
        for t in np.flatnonzero(below[left[:, 0]] != criterion):
            failures.append(
                f"id {ui}: reflection {t} commutation/inversion criterion"
            )

        fix_u = u.fixed_space()
        for vi in np.flatnonzero(below).tolist():
            if not invol[vi]:
                failures.append(f"id {vi} below id {ui} not an involution")
                continue
            if not (u_perm[perms[vi]] == perms[vi][u_perm]).all():
                failures.append(f"id {vi} below id {ui} does not commute")
            mov_v = moved(vi)
            mov_rest = moved(int(pids[vi]))
            dims = mov_v.dim + mov_rest.dim + fix_u.dim
            stacked = [*mov_v.basis, *mov_rest.basis, *fix_u.basis]
            if dims != system.rank or rank(stacked) != system.rank:
                failures.append(f"ids {vi},{ui}: no direct sum split")

        # the identity row keeps the list nonempty when u = 1
        rows = [ids, *(left[b] for b in closures[ui].simple_system)]
        in_closure = invol & (orbit_labels(rows) == 0)
        fixing = np.zeros(n, dtype=bool)
        fixing[invol_ids] = fixes(fix_u.basis)
        for vi in np.flatnonzero((below != in_closure) | (in_closure != fixing)):
            failures.append(
                f"ids {vi},{ui}: three-way interval criteria "
                f"{below[vi]}/{in_closure[vi]}/{fixing[vi]}"
            )

        report = closure_map_report(u)
        if not all(report[k] for k in ("injective", "surjective", "order_isomorphism")):
            failures.append(f"id {ui}: closure map report {report}")

        if ell[ui] <= 4:
            for tup in t_reduced_expressions(u):
                if not check_T_reduced(system, tup):
                    failures.append(f"id {ui}: expression {tup} dependent")
                for ta, tb in itertools.combinations(tup, 2):
                    if not (table[ta][table[tb]] == table[tb][table[ta]]).all():
                        failures.append(f"id {ui}: factors {ta},{tb} do not commute")
    return failures, n


@_check("order structure laws")
def check_order_laws(deep: bool = False):
    """Structure laws on every element of every small group.

    Exhaustive over the irreducible geometric types of order at most
    1152; deep adds all 14400 elements of H4.
    """
    groups = SMALL_GROUP_TYPES + (("H4",) if deep else ())
    for name in groups:
        system = RootSystem.named(name)
        failures, size = _order_law_failures(system)
        for f in failures[:5]:
            yield False, f"{name}: {f}"
        if len(failures) > 5:
            yield False, f"{name}: ... {len(failures)} failures total"
        yield not failures, f"{name}: {size} elements, {len(failures)} failures"
    if not deep:
        yield True, "H4 skipped (enable deep)"


def _interval_matches_oracle(u: Element) -> tuple[bool, str]:
    """Same element set and same cover relation from both routes."""
    poset = interval_of_involution(u)
    oracle = cayley_interval_elements(u)
    keys = [e.key() for e in poset.elements]
    oracle_keys = {e.key() for e in oracle}
    if set(keys) != oracle_keys:
        return False, (
            f"element sets differ: {len(keys)} vs {len(oracle_keys)}"
        )
    system = u.system
    lengths = [e.reflection_length() for e in oracle]
    oracle_edges = set()
    for i, x in enumerate(oracle):
        for j, y in enumerate(oracle):
            if lengths[j] != lengths[i] + 1:
                continue
            between = Element(system, x.inverse().perm[y.perm])
            if lengths[i] + between.reflection_length() == lengths[j]:
                oracle_edges.add((x.key(), y.key()))
    poset_edges = {(keys[i], keys[j]) for i, j in poset.hasse}
    if poset_edges != oracle_edges:
        return False, (
            f"cover sets differ: {len(poset_edges)} vs {len(oracle_edges)}"
        )
    return True, f"{len(keys)} elements, {len(poset_edges)} covers"


def _walk_matches_search(u: Element) -> bool:
    """Whether the closure walk below u finds the search's closures."""
    found = enumerate_involutions(parabolic_closure(u))
    return {q for q, _ in closure_walk(u)} == {parabolic_closure(x).mask for x in found}


@_check("interval oracle identity")
def check_interval_oracle(deep: bool = False):
    """The Cayley-graph oracle reproduces every interval poset exactly.

    Every involution of every small group; deep adds H4's w0 (every H4
    involution) and the closure walk against the search on B6 and E6.
    """
    for name in SMALL_GROUP_TYPES:
        outcomes = [
            None
            if _interval_matches_oracle(u)[0]
            else f"oracle mismatch at {u.reduced_word()}"
            for u in _involutions(name)
        ]
        bad = yield from _sweep(name, outcomes)
        yield not bad, f"{name}: {len(outcomes)} involutions, {bad} mismatches"
    if deep:
        system = RootSystem.named("H4")
        same, detail = _interval_matches_oracle(longest_element(system))
        yield same, f"H4 w0: {detail}"
        tops = _involutions("B6") + _involutions("E6")
        bad = sum(not _walk_matches_search(u) for u in tops)
        yield not bad, f"B6, E6: {len(tops)} involutions, {bad} walks unlike the search"
    else:
        yield True, "H4 w0 skipped (enable deep)"


@_check("B2 Hurwitz orbits")
def check_hurwitz_b2():
    """The longest element of B2 has 4 minimal reflection factorizations
    falling into exactly 2 conjugation-move orbits, each orbit being the
    two orderings of one commuting pair."""
    system = RootSystem.named("B2")
    w0 = longest_element(system)
    expressions = t_reduced_expressions(w0)
    orbits = hurwitz_orbits(system, expressions)
    seen: set = set()
    for orbit in orbits:
        members = set(orbit)
        pair = set(orbit[0])
        orderings = {
            tup for tup in expressions if set(tup) == pair
        }
        if len(orbit) != 2 or members != orderings:
            yield False, f"orbit {sorted(members)} is not one pair's orderings"
        seen |= members
    ok = len(expressions) == 4 and len(orbits) == 2 and seen == set(expressions)
    yield ok, (
        f"{len(expressions)} expressions, {len(orbits)} orbits: "
        + "; ".join(
            "{" + ", ".join(map(str, sorted(orbit))) + "}" for orbit in orbits
        )
    )


@_check("factor product law")
def check_factor_product_law(deep: bool = False):
    """Intervals multiply over the components of a reducible closure.

    For every involution u whose closure splits, u is the product of the
    component central involutions, their reflection lengths add to that
    of u, they commute, and the interval sizes multiply.
    """
    for name in DEEP_SWEEP_TYPES if deep else SWEEP_TYPES:
        outcomes = [
            None
            if f.product() == f.u
            and f.factor_lengths_add()
            and f.factors_commute()
            and interval_of_involution(f.u).size
            == math.prod(interval_of_involution(x.element).size for x in f.factors)
            else f"product law fails at {f.u.reduced_word()}"
            for f in map(decompose_involution, _involutions(name))
            if len(f.factors) >= 2
        ]
        bad = yield from _sweep(name, outcomes)
        yield not bad, f"{name}: {len(outcomes)} reducible closures, {bad} failures"
    if not deep:
        yield True, "E6 skipped (enable deep)"


def _random_scalar(rng: random.Random) -> FieldScalar:
    """Small random field element a + b*phi."""
    a = FieldScalar.from_rational(rng.randint(-4, 4), rng.randint(1, 4))
    b = FieldScalar.from_rational(rng.randint(-3, 3), rng.randint(1, 3))
    return a + b * PHI


@_check("field kernel")
def check_field_kernel(trials: int = FIELD_TRIALS, seed: int = FIELD_SEED):
    """Randomized exact-arithmetic consistency, fixed seed.

    Each trial draws field elements and asserts ring axioms, inverse
    round-trips, exact sign against the floating image, and order
    consistency.
    """
    rng = random.Random(seed)
    bad = 0
    first = ""
    for trial in range(trials):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        z = _random_scalar(rng)
        good = (
            (x * y) * z == x * (y * z)
            and x * (y + z) == x * y + x * z
            and x * y == y * x
            and x + y == y + x
            and (x - y) + y == x
        )
        sign = (x * x - y * y).sign()
        float_value = float(x * x - y * y)
        if abs(float_value) > 1e-9 and good:
            good = sign == (1 if float_value > 0 else -1)
        if good and (x * x).sign() < 0:
            good = False
        if good and x.sign() != 0:
            good = x * x.invert() == ONE
        if good:
            good = (x < y) == ((y - x).sign() > 0)
        if not good:
            bad += 1
            if not first:
                first = f"trial {trial}: x={x!r} y={y!r}"
    yield bad == 0, f"{trials} trials, {bad} failures"
    if first:
        yield False, first


def run_all(deep: bool = False, only: str | None = None) -> list[CheckResult]:
    """Run every check, or those whose name contains only (ignoring case).

    A crash inside one check becomes a failure.
    """
    results = []
    for name, fn, takes_deep in ALL_CHECKS:
        if only is not None and only.lower() not in name.lower():
            continue
        try:
            results.append(fn(deep) if takes_deep else fn())
        except Exception:  # noqa: BLE001 - a crashed check must not abort
            results.append(
                CheckResult(name, False, 0.0, traceback.format_exc().splitlines())
            )
    return results


def report_to_dict(results: list[CheckResult]) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
