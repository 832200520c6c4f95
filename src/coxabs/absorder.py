"""The absolute order and lattice tests on intervals below involutions.

u <=_T v holds when reflection lengths add up along u, u^-1 v, v.  For an
involution u the interval [1, u] consists exactly of the involutions of
the parabolic closure of u, ranked by their words of pairwise orthogonal
reflections; interval_of_involution builds it so, keyed by
Element.key(), and the test suite and verify check that membership
against l_T additivity and the Cayley-graph oracle.  The interval is a
lattice precisely when the closures of its elements are pairwise stable
under intersection; that is verified mechanically rather than assumed,
so this module keeps two fully independent lattice tests:

  * is_lattice_bruteforce works on the interval order alone: down-sets
    built from the covers x = y t (t a reflection, one rank down) as
    bitsets, and one scan asking of every pair whether its common lower
    bounds form a down-set, one set test per row;
  * is_lattice_structural never looks at the interval order and instead
    intersects parabolic closures, read off all the involutions at once,
    asking each intersection whether its longest element is -Id on its span.
"""

from __future__ import annotations

import dataclasses
import json
from functools import cached_property
from itertools import repeat

import numpy as np

from .element import Element, void_rows
from .parabolic import (
    Parabolic,
    all_subparabolics,
    indices_from_mask,
    involution_masks,
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

    perms[i] is an involution, one PERM_DTYPE row, words[i] one minimal
    reflection word for it and ranks[i] its reflection length; ids run in
    rank order.  down[i] is the down-set of element i as a bitset (bit k
    set when element k lies below it), hasse lists the covering pairs
    (lower id, upper id) in sorted order, ids maps Element.key() to the
    id, and elements, the rows as Elements, is built on first access.
    """

    top: Element
    perms: np.ndarray
    words: tuple[tuple[int, ...], ...]
    ranks: np.ndarray
    down: list[int]
    hasse: list[tuple[int, int]]
    ids: dict[bytes, int]

    @property
    def size(self) -> int:
        return len(self.words)

    @cached_property
    def elements(self) -> list[Element]:
        return [Element(self.top.system, perm) for perm in self.perms]

    def leq(self, i: int, j: int) -> bool:
        """Whether element i lies below element j."""
        return bool(self.down[j] >> i & 1)

    def index_of(self, x: Element) -> int:
        try:
            return self.ids[x.key()]
        except KeyError:
            raise KeyError("element is not in the interval") from None


#: rows per gather of cover keys, which bounds the key bytes held at once
COVER_BLOCK = 64


def interval_of_involution(u: Element) -> IntervalPoset:
    """Materialize [1, u] for an involution u.

    The elements are the involutions of the parabolic closure P(u), each
    ranked by the length of its word of pairwise orthogonal reflections,
    which is its reflection length.  Each x of them lies below u: u is
    -Id on Mov(u) and x preserves Mov(u), so Mov(xu) = Fix(x) & Mov(u)
    and l_T(xu) = l_T(u) - l_T(x).  The test suite checks this
    membership against l_T additivity over whole groups, and verify
    against the Cayley-graph oracle.

    The order comes from the covers.  Since l_T(t) = 1 for a reflection
    t, x lies below y with ranks differing by one exactly when x = y t
    for a reflection t, and every x <= y is reached along such steps
    (the prefixes of a T-reduced word of x^-1 y), all of them reflections
    of P(u).  So in rank order each down-set is y itself joined with the
    down-sets of its lower covers y t, with no reflection length of a
    product taken; one gather per block of rows gives the keys of all y t.
    """
    if not u.is_involution:
        raise ValueError("interval construction requires an involution top")
    sys = u.system
    p = parabolic_closure(u)
    perms, words = involutions_with_words(p)
    ranks = np.array([len(w) for w in words], dtype=np.int16)
    n = len(words)
    ids = dict(zip(void_rows(perms[:, sys.simple_idx]).tolist(), range(n)))
    if u.key() not in ids:
        raise AssertionError("top element missing from its own interval")
    # row k: t_k at the simple roots, so perms[:, reflections] gathers the
    # key of every y t_k, COVER_BLOCK rows y at a time.  y t_k is one rank
    # off y, so it is a lower cover exactly when its id is smaller
    rows = np.array(p.root_indices, dtype=np.intp)[:, None]
    reflections = sys.reflection_table[rows, sys.simple_idx].astype(np.intp)
    down, hasse = [1 << y for y in range(n)], []
    for lo in range(0, n, COVER_BLOCK):
        block = perms[lo : lo + COVER_BLOCK, reflections]
        keys = void_rows(block.reshape(-1, sys.rank)).tolist()
        found = np.fromiter(map(ids.get, keys, repeat(n)), np.int64, len(keys))
        found = found.reshape(len(block), -1)
        upper, col = np.nonzero(found < np.arange(lo, lo + len(block))[:, None])
        hasse += zip(found[upper, col].tolist(), (upper + lo).tolist())
    for x, y in hasse:  # y ascending, and x < y
        down[y] |= down[x]
    hasse.sort()
    return IntervalPoset(u, perms, words, ranks, down, hasse, ids)


# ----------------------------------------------------------------------
# lattice tests


@dataclasses.dataclass(frozen=True)
class MeetFailure:
    """A pair with no unique greatest lower bound, plus the maximal ones."""

    v_id: int
    w_id: int
    maximal_lower_bound_ids: tuple[int, ...]


def maximal_lower_bounds(down: list[int], i: int, j: int) -> tuple[int, ...]:
    """Ids of the maximal common lower bounds of i and j, ascending."""
    common = indices_from_mask(down[i] & down[j])
    strictly_below = 0
    for k in common:
        strictly_below |= down[k] ^ (1 << k)
    return tuple(k for k in common if not strictly_below >> k & 1)


def first_meet_failure(down: list[int]):
    """The first pair without a greatest lower bound.

    down[k] is the down-set of k as a bitset, with ids numbered along a
    linear extension of the order (x < y gives id x < id y).  A pair has
    a meet exactly when its common lower bounds form some down-set; a
    comparable pair always does, since then down[i] & down[j] = down[i].
    Scans j, then i < j, and returns (i, j), or None when every pair has
    a greatest lower bound.  Each row j is one C-level subset test over
    all i < j, and only a failing row is walked pair by pair.
    """
    principal = set(down)
    for j, below_j in enumerate(down):
        if not principal.issuperset(map(below_j.__and__, down[:j])):
            return next(
                (i, j) for i in range(j) if down[i] & below_j not in principal
            )
    return None


def is_lattice_bruteforce(poset: IntervalPoset):
    """Scan all pairs for a unique greatest lower bound.

    The poset is finite with a bottom and a top, so meets for all pairs
    suffice for being a lattice.  Returns (True, None) or
    (False, MeetFailure) for the first failing pair in scan order.
    """
    failure = first_meet_failure(poset.down)
    if failure is None:
        return True, None
    i, j = failure
    return False, MeetFailure(i, j, maximal_lower_bounds(poset.down, i, j))


@dataclasses.dataclass(frozen=True)
class IntersectionFailure:
    """Two interval closures whose intersection is not involutive."""

    p1: Parabolic
    p2: Parabolic
    intersection: Parabolic


def is_lattice_structural(u: Element):
    """Decide lattice-ness from closures alone, no interval order.

    Intersects the parabolic closures of all pairs of interval elements
    and checks every intersection is involutive.  Returns (True, None)
    or (False, IntersectionFailure) for the first failing pair.
    """
    if not u.is_involution:
        raise ValueError("structural lattice test requires an involution")
    sys = u.system
    masks = involution_masks(sys, involutions_with_words(parabolic_closure(u))[0])
    involutive: dict[int, bool] = {}  # one verdict per distinct intersection
    for j, mj in enumerate(masks):
        for i in range(j):
            inter = masks[i] & mj
            ok = involutive.get(inter)
            if ok is None:
                ok = involutive[inter] = Parabolic(sys, inter).is_involutive
            if not ok:
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
    bound in the interval order; a verification failure means the
    interval is not a lattice and raises ValueError.
    """
    i = poset.index_of(v)
    j = poset.index_of(w)
    inter = parabolic_closure(v).intersect(parabolic_closure(w))
    central = inter.central_involution
    maximal = maximal_lower_bounds(poset.down, i, j)
    if central is None or len(maximal) != 1:
        raise ValueError("interval is not a lattice at this pair")
    if poset.elements[maximal[0]] != central:
        raise ValueError("structural meet disagrees with the interval order")
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
    interval = interval_of_involution(u)
    masks = involution_masks(u.system, interval.perms)  # parabolic_closure's route
    injective = len(set(masks)) == len(masks)
    involutive_masks = {
        q.mask for q in all_subparabolics(parabolic_closure(u)) if q.is_involutive
    }
    surjective = set(masks) == involutive_masks
    n = interval.size
    order_iso = all(
        interval.leq(i, j) == (masks[i] & ~masks[j] == 0)
        for j in range(n)
        for i in range(n)
    )
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
