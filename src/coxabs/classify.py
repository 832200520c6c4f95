"""Which intervals below involutions are lattices, by type.

Two type tables drive everything here.  has_central_minus_id lists the
irreducible types whose longest element acts as -Id (so the group has a
central involution with full closure).  is_good_type lists the types
whose maximal interval is a lattice.  An arbitrary involution u reduces
to the tables through its factorization: the closure P(u) splits into
irreducible components, u is the product of the component central
involutions, and the interval below u is the product of the component
intervals, so the interval is a lattice exactly when every component
type is good.

For the types with -Id that are not good, counterexample_witness builds
an explicit pair of involutive parabolics with a non-involutive
intersection at the root level, without enumerating the group.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .absorder import (
    interval_of_involution,
    is_lattice_bruteforce,
    is_lattice_structural,
)
from .dihedral import Dihedral
from .element import (
    Element,
    identity,
    orbit_labels,
    simple_conjugates,
    simple_reflection,
    void_rows,
)
from .parabolic import (
    Parabolic,
    involutions_with_words,
    parabolic_closure,
    standard_parabolic,
)
from .rootsystem import (
    RootSystem,
    TypeLabel,
    format_type_multiset,
    parse_label,
)


def has_central_minus_id(label: TypeLabel) -> bool:
    """Types whose longest element is -Id on the reflection representation."""
    fam = label.family
    if fam == "A":
        return label.rank == 1
    if fam == "B" or fam == "F":
        return True
    if fam == "D":
        return label.rank % 2 == 0
    if fam == "E":
        return label.rank in (7, 8)
    if fam == "H":
        return True
    if fam == "I":
        return label.bond % 2 == 0
    raise ValueError(f"unknown family {fam}")  # pragma: no cover


def is_good_type(label: TypeLabel) -> bool:
    """Irreducible types whose maximal interval is a lattice.

    A1 trivially; B_n for every n; even dihedral types (everything there
    has reflection length at most 2); D4; H3.  The remaining types with a
    central -Id (D_2k for k >= 3, E7, E8, F4, H4) contain two involutive
    parabolics whose intersection is not involutive, and types without a
    central -Id never occur as closure components of an involution.
    """
    fam = label.family
    if fam == "A":
        return label.rank == 1
    if fam == "B":
        return True
    if fam == "I":
        return label.bond % 2 == 0
    if fam == "D":
        return label.rank == 4
    if fam == "H":
        return label.rank == 3
    return False


def lattice_by_classification(u: Element) -> bool:
    """Lattice verdict for [1, u] read off the closure's component types."""
    if not u.is_involution:
        raise ValueError("classification verdict requires an involution")
    return all(is_good_type(l) for l in parabolic_closure(u).type_labels)


def lattice_verdicts(u: Element):
    """The three independent lattice verdicts on [1, u], in the order
    (order matrix, closure intersections, type table), with the failing
    closure pair of the structural route or None."""
    brute, _ = is_lattice_bruteforce(interval_of_involution(u))
    structural, failure = is_lattice_structural(u)
    return (brute, structural, lattice_by_classification(u)), failure


# ----------------------------------------------------------------------
# factorization through closure components


@dataclasses.dataclass(frozen=True)
class InvolutionFactor:
    element: Element
    label: TypeLabel


@dataclasses.dataclass(frozen=True)
class InvolutionFactorization:
    """u written as the product of the central involutions of the
    irreducible components of its closure."""

    u: Element
    factors: tuple[InvolutionFactor, ...]

    def product(self) -> Element:
        out = identity(self.u.system)
        for f in self.factors:
            out = out * f.element
        return out

    def factor_lengths_add(self) -> bool:
        total = sum(f.element.reflection_length() for f in self.factors)
        return total == self.u.reflection_length()

    def factors_commute(self) -> bool:
        for i, a in enumerate(self.factors):
            for b in self.factors[i + 1 :]:
                if a.element * b.element != b.element * a.element:
                    return False
        return True


def decompose_involution(u: Element) -> InvolutionFactorization:
    """Split an involution along the components of its closure."""
    if not u.is_involution:
        raise ValueError("decomposition requires an involution")
    p = parabolic_closure(u)
    factors = []
    for comp in p.components:
        central = comp.central_involution
        if central is None:
            raise ValueError(
                "closure component is not involutive; the input cannot be "
                "an involution"
            )
        labels = comp.type_labels
        if len(labels) != 1:  # pragma: no cover - components are irreducible
            raise ValueError("component is not irreducible")
        factors.append(InvolutionFactor(central, labels[0]))
    return InvolutionFactorization(u, tuple(factors))


# ----------------------------------------------------------------------
# explicit witnesses for the non-lattice types


@dataclasses.dataclass(frozen=True)
class CounterexampleWitness:
    """Two involutive parabolics below w0 = -Id whose intersection is not
    involutive, certifying that the maximal interval is not a lattice."""

    system: RootSystem
    p1: Parabolic
    p2: Parabolic
    intersection: Parabolic
    expected_intersection: TypeLabel

    def is_valid(self) -> bool:
        return (
            self.p1.is_involutive
            and self.p2.is_involutive
            and not self.intersection.is_involutive
        )

    def intersection_matches(self) -> bool:
        return self.intersection.type_labels == (self.expected_intersection,)

    def describe(self) -> str:
        return (
            f"in {self.system.describe()}: parabolics of types "
            f"{format_type_multiset(self.p1.type_labels)} and "
            f"{format_type_multiset(self.p2.type_labels)} intersect in "
            f"{format_type_multiset(self.intersection.type_labels)} "
            "(not involutive)"
        )


#: for each bad family: the sub-diagram seeding the witness pair and the
#: expected type of the resulting intersection
_WITNESS_SHAPES = {
    "D": ("D4", "A3"),
    "E": ("D4", "A3"),
    "F": ("B3", "A2"),
    "H": ("H3", "I2(5)"),
}


def _witness_seed(sys: RootSystem, target: TypeLabel):
    """Locate the witness sub-diagram by search, not by a fixed node
    numbering: the first subset of simple generators of the target type
    together with a simple generator adjacent to exactly one of them."""
    for subset in itertools.combinations(range(sys.rank), target.rank):
        if standard_parabolic(sys, subset).type_labels != (target,):
            continue
        for s in range(sys.rank):
            if s in subset:
                continue
            touches = sum(
                1 for i in subset if sys.matrix.entry(s, i) > 2
            )
            if touches == 1:
                return subset, s
    raise ValueError(
        f"no {target} sub-diagram with a pendant generator in "
        f"{sys.describe()}"
    )  # pragma: no cover - every bad type has one


def counterexample_witness(label) -> CounterexampleWitness:
    """Build the root-level witness pair for a type with -Id that is not
    good: D_2k (k >= 3), E7, E8, F4, H4."""
    if isinstance(label, str):
        label = parse_label(label)
    if not has_central_minus_id(label) or is_good_type(label):
        raise ValueError(
            f"{label} has no counterexample pair: either its maximal "
            "interval is a lattice or its longest element is not -Id"
        )
    shape = _WITNESS_SHAPES.get(label.family)
    if shape is None:  # pragma: no cover - table covers all bad families
        raise ValueError(f"no witness shape for {label}")
    target, expected = (parse_label(s) for s in shape)
    sys = RootSystem.named(label)
    generators, conj = _witness_seed(sys, target)
    p1 = standard_parabolic(sys, generators)
    s = simple_reflection(sys, conj)
    p2 = p1.conjugate_by(s)
    return CounterexampleWitness(sys, p1, p2, p1.intersect(p2), expected)


# ----------------------------------------------------------------------
# per-class tables


def _class_row(t_word, class_size, reflection_length, closure_type, verdicts):
    brute, structural, classified = verdicts
    return {
        "t_word": t_word,
        "class_size": class_size,
        "reflection_length": reflection_length,
        "closure_type": closure_type,
        "is_lattice_bruteforce": brute,
        "is_lattice_structural": structural,
        "is_lattice_by_classification": classified,
    }


def dihedral_involution_class_table(m: int) -> list[dict]:
    """Symbolic twin of involution_class_table for any I2(m).

    Conjugation sends the reflection with index j to indices of the same
    parity, so even m has two reflection classes and odd m has one; even
    m adds the central half turn.
    """
    group = Dihedral(m)
    reps = [(group.identity, ())]
    if m % 2 == 0:
        reps.append((group.reflection(0), (0,)))
        reps.append((group.reflection(1), (1,)))
        reps.append((group.rotation(m // 2), (0, m // 2)))
        sizes = [1, m // 2, m // 2, 1]
    else:
        reps.append((group.reflection(0), (0,)))
        sizes = [1, m]
    rows = [
        _class_row(
            word,
            size,
            group.reflection_length(rep),
            group.closure_type_string(group.closure_mask(rep)),
            group.verdicts(rep),
        )
        for (rep, word), size in zip(reps, sizes)
    ]
    rows.sort(key=lambda r: (r["reflection_length"], r["t_word"]))
    return rows


def involution_class_table(system: RootSystem) -> list[dict]:
    """One row per conjugacy class of involutions: a representative
    minimal reflection word, the class size, the closure type, and the
    lattice verdicts from all three routes.  The classes are orbit_labels
    of the search's rows under conjugation by the simple reflections, each
    represented by its first row in search order."""
    perms, words = involutions_with_words(Parabolic(system, (1 << system.n_pos) - 1))
    ids = dict(zip(void_rows(perms[:, system.simple_idx]).tolist(), range(len(words))))
    conjugates = simple_conjugates(system, perms)
    labels = orbit_labels([[ids[k] for k in void_rows(c).tolist()] for c in conjugates])
    reps, sizes = np.unique(labels, return_counts=True)
    rows = []
    for rep, size in zip(reps.tolist(), sizes.tolist()):
        u = Element(system, perms[rep])
        closure = format_type_multiset(parabolic_closure(u).type_labels)
        verdicts = lattice_verdicts(u)[0]
        rows.append(
            _class_row(words[rep], size, u.reflection_length(), closure, verdicts)
        )
    rows.sort(key=lambda r: (r["reflection_length"], r["t_word"]))
    return rows
