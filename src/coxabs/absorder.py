"""The absolute order and lattice tests on intervals below involutions.

u <=_T v holds when reflection lengths add up along u, u^-1 v, v.  For an
involution u the interval [1, u] consists exactly of the involutions of
the parabolic closure of u, and the interval is a lattice precisely when
the closures of its elements are pairwise stable under intersection;
both facts are verified mechanically by the test suite rather than
assumed, so this module keeps two fully independent lattice tests:

  * is_lattice_bruteforce works on the order matrix alone, scanning every
    pair for a unique greatest lower bound;
  * is_lattice_structural never looks at the order matrix and instead
    intersects parabolic closures, asking each intersection whether its
    longest element acts as -Id on its span.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .element import Element
from .parabolic import (
    Parabolic,
    all_subparabolics,
    involutions_with_words,
    parabolic_closure,
)
from .rootsystem import format_type_multiset


def leq_T(u: Element, v: Element) -> bool:
    """Absolute order: reflection lengths add along u, u^-1 v, v."""
    return (
        u.reflection_length()
        + (u.inverse() * v).reflection_length()
        == v.reflection_length()
    )


@dataclasses.dataclass
class IntervalPoset:
    """The interval [1, top] in the absolute order, fully materialized.

    elements[i] is an involution, words[i] one minimal reflection word
    for it, ranks[i] its reflection length, and leq the full order
    matrix.  hasse lists the covering pairs (lower id, upper id).
    """

    top: Element
    elements: list[Element]
    words: list[tuple[int, ...]]
    ranks: np.ndarray
    leq: np.ndarray
    hasse: list[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, x: Element) -> int:
        key = x.perm.tobytes()
        for i, e in enumerate(self.elements):
            if e.perm.tobytes() == key:
                return i
        raise KeyError("element is not in the interval")


def interval_of_involution(u: Element) -> IntervalPoset:
    """Materialize [1, u] for an involution u.

    Candidates are the involutions of the parabolic closure of u, but
    each one is kept only if its reflection length is additive against
    u, so the element set is the true interval by construction and the
    candidate source is merely a complete search space.
    """
    if not u.is_involution:
        raise ValueError("interval construction requires an involution top")
    sys = u.system
    p = parabolic_closure(u)
    ell_u = u.reflection_length()
    elements = []
    words = []
    for e, w in involutions_with_words(p):
        # e^-1 u = e u since e is an involution
        rest = Element(sys, e.perm[u.perm])
        if e.reflection_length() + rest.reflection_length() == ell_u:
            elements.append(e)
            words.append(w)
    n = len(elements)
    ranks = np.array([e.reflection_length() for e in elements], dtype=np.int16)
    leq = np.zeros((n, n), dtype=bool)
    perms = [e.perm for e in elements]
    for i in range(n):
        leq[i, i] = True
        for j in range(n):
            if ranks[i] < ranks[j]:
                # x_i^-1 x_j, using that interval elements are involutions
                prod = Element(sys, perms[i][perms[j]])
                leq[i, j] = ranks[i] + prod.reflection_length() == ranks[j]
    hasse = []
    for i in range(n):
        for j in range(n):
            if ranks[j] == ranks[i] + 1 and leq[i, j]:
                hasse.append((i, j))
    top_key = u.perm.tobytes()
    if not any(e.perm.tobytes() == top_key for e in elements):
        raise AssertionError("top element missing from its own interval")
    return IntervalPoset(u, elements, words, ranks, leq, hasse)


# ----------------------------------------------------------------------
# lattice tests


@dataclasses.dataclass(frozen=True)
class MeetFailure:
    """A pair with no unique greatest lower bound, plus the maximal ones."""

    v_id: int
    w_id: int
    maximal_lower_bound_ids: tuple[int, ...]


def maximal_lower_bounds(leq: np.ndarray, i: int, j: int) -> np.ndarray:
    """Ids of the maximal common lower bounds of i and j in an order matrix."""
    ids = np.nonzero(leq[:, i] & leq[:, j])[0]
    return ids[leq[np.ix_(ids, ids)].sum(axis=1) == 1]


def first_meet_failure(leq: np.ndarray):
    """The first incomparable pair without a unique maximal lower bound.

    Scans j, then i < j, and returns (i, j, maximal lower bound ids), or
    None when every pair has a greatest lower bound.
    """
    n = len(leq)
    for j in range(n):
        for i in range(j):
            if leq[i, j] or leq[j, i]:
                continue
            maximal = maximal_lower_bounds(leq, i, j)
            if len(maximal) != 1:
                return i, j, maximal
    return None


def is_lattice_bruteforce(poset: IntervalPoset):
    """Scan all pairs for a unique greatest lower bound.

    The poset is finite with a bottom and a top, so meets for all pairs
    suffice for being a lattice.  Returns (True, None) or
    (False, MeetFailure) for the first failing pair in scan order.
    """
    failure = first_meet_failure(poset.leq)
    if failure is None:
        return True, None
    i, j, maximal = failure
    return False, MeetFailure(i, j, tuple(int(x) for x in maximal))


@dataclasses.dataclass(frozen=True)
class IntersectionFailure:
    """Two interval closures whose intersection is not involutive."""

    p1: Parabolic
    p2: Parabolic
    intersection: Parabolic

    def describe(self) -> str:
        return (
            f"closures of types {format_type_multiset(self.p1.type_labels)} "
            f"and {format_type_multiset(self.p2.type_labels)} intersect in "
            f"{format_type_multiset(self.intersection.type_labels)}, "
            "whose longest element is not -Id on its span"
        )


def is_lattice_structural(u: Element):
    """Decide lattice-ness from closures alone, no order matrix.

    Intersects the parabolic closures of all pairs of interval elements
    and checks every intersection is involutive.  Returns (True, None)
    or (False, IntersectionFailure) for the first failing pair.
    """
    if not u.is_involution:
        raise ValueError("structural lattice test requires an involution")
    sys = u.system
    p = parabolic_closure(u)
    pairs = involutions_with_words(p)
    masks = [parabolic_closure(e).mask for e, _ in pairs]
    n = len(masks)
    for j in range(n):
        mj = masks[j]
        for i in range(j):
            inter = masks[i] & mj
            if not Parabolic(sys, inter).is_involutive:
                return False, IntersectionFailure(
                    Parabolic(sys, masks[i]),
                    Parabolic(sys, mj),
                    Parabolic(sys, inter),
                )
    return True, None


def meet(poset: IntervalPoset, v: Element, w: Element) -> Element:
    """Greatest lower bound inside a lattice interval.

    Computed structurally as the central involution of the intersection
    of the two closures, then verified to be the unique maximal lower
    bound in the order matrix; a verification failure means the interval
    is not a lattice and raises ValueError.
    """
    i = poset.index_of(v)
    j = poset.index_of(w)
    inter = parabolic_closure(v).intersect(parabolic_closure(w))
    central = inter.central_involution
    maximal = maximal_lower_bounds(poset.leq, i, j)
    if central is None or len(maximal) != 1:
        raise ValueError("interval is not a lattice at this pair")
    candidate = poset.elements[int(maximal[0])]
    if candidate != central:
        raise ValueError("structural meet disagrees with the order matrix")
    return central


# ----------------------------------------------------------------------
# the closure map as an order isomorphism


def closure_map_report(u: Element) -> dict:
    """Check that x -> closure(x) maps [1, u] onto the involutive
    parabolics of P(u), bijectively and preserving order in both
    directions.  Returns the individual verdicts for test assertions.
    """
    if not u.is_involution:
        raise ValueError("closure map check requires an involution")
    sys = u.system
    p = parabolic_closure(u)
    interval = interval_of_involution(u)
    masks = [parabolic_closure(e).mask for e in interval.elements]
    injective = len(set(masks)) == len(masks)
    involutive_masks = {
        q.mask for q in all_subparabolics(p) if q.is_involutive
    }
    surjective = set(masks) == involutive_masks
    order_iso = True
    n = interval.size
    for i in range(n):
        for j in range(n):
            contained = masks[i] & ~masks[j] == 0
            if bool(interval.leq[i, j]) != contained:
                order_iso = False
                break
        if not order_iso:
            break
    return {
        "injective": injective,
        "surjective": surjective,
        "order_isomorphism": order_iso,
        "interval_size": n,
        "involutive_parabolic_count": len(involutive_masks),
    }


# ----------------------------------------------------------------------
# serialization


def poset_to_json_dict(poset: IntervalPoset, lattice_ok: bool, witness) -> dict:
    """Schema: type, top_word, elements (id, rank, t_word), hasse,
    is_lattice, witness.  Generator numbers in top_word are 1-based;
    t_word entries are positive-root indices (0-based)."""
    closure_types = format_type_multiset(
        parabolic_closure(poset.top).type_labels
    )
    elements = [
        {
            "id": i,
            "rank": int(poset.ranks[i]),
            "t_word": [int(t) for t in poset.words[i]],
        }
        for i in range(poset.size)
    ]
    witness_dict = None
    if witness is not None:
        witness_dict = {
            "v": witness.v_id,
            "w": witness.w_id,
            "maximal_lower_bounds": list(witness.maximal_lower_bound_ids),
        }
    return {
        "type": closure_types,
        "top_word": [s + 1 for s in poset.top.reduced_word()],
        "elements": elements,
        "hasse": [[i, j] for i, j in poset.hasse],
        "is_lattice": lattice_ok,
        "witness": witness_dict,
    }


def poset_to_json(poset: IntervalPoset, lattice_ok: bool, witness) -> str:
    return json.dumps(poset_to_json_dict(poset, lattice_ok, witness), indent=2)


def poset_to_dot(poset: IntervalPoset) -> str:
    """Hasse diagram in DOT format, ranks bottom to top."""
    lines = ["digraph interval {", "  rankdir=BT;"]
    for i in range(poset.size):
        word = poset.words[i]
        label = "e" if not word else "*".join(f"t{t}" for t in word)
        lines.append(f'  n{i} [label="{label}\\nrank {int(poset.ranks[i])}"];')
    for i, j in poset.hasse:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
