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
    bitsets, asking of two lower covers of one element whether their
    common lower bounds form a down-set;
  * is_lattice_structural reads neither the order nor the search: it
    walks the closures down from P(u) and asks of two lower covers of
    one closure whether their intersection is involutive.
"""

from __future__ import annotations

import dataclasses
import json
from functools import cached_property
from itertools import combinations, repeat

import numpy as np

from . import rootsystem
from .element import Element, void_rows
from .parabolic import (
    Parabolic,
    all_subparabolics,
    indices_from_mask,
    involution_masks,
    involutions_with_words,
    parabolic_closure,
)
from .rootsystem import PERM_DTYPE, CapExceededError, format_type_multiset


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
    """Whether any two lower covers of a common element have a meet, in one
    subset test.  For a finite bounded poset that is being a lattice, the
    dual of Lemma 2.1 of Bjorner, Edelman and Ziegler (Discrete Comput.
    Geom. 5, 1990).  Proof: induct on the rank of a least upper bound z of
    x, y.  Unless x or y is z, x <= x1 and y <= y1 for lower covers
    x1 != y1 of z; so the meets m of x1, y1, then a of x, m (below x1) and
    b of a, y (below y1) exist, and every common lower bound of x and y
    lies below m, a and b in turn: b is their meet.  Returns (True, None)
    or (False, MeetFailure) for first_meet_failure's pair, run only then."""
    down, lows = poset.down, [[] for _ in poset.down]
    for x, y in poset.hasse:
        lows[y].append(down[x])
    if set(down).issuperset(a & b for l in lows for a, b in combinations(l, 2)):
        return True, None
    i, j = first_meet_failure(down)
    return False, MeetFailure(i, j, maximal_lower_bounds(down, i, j))


def closure_walk(u: Element):
    """Yield each Q in F, the closure masks of [1, u], down from P(u), with
    the intersections of pairs of its lower covers no earlier Q yielded.
    Each C_a = Q & orthogonal_masks[a], a in Q, is in F, the closure of
    x t_a for x central in Q, -Id exactly on span(Q) & a^perp; and R < Q
    in F lies below one: with y central in R, x y is -Id on span(Q) &
    span(R)^perp != 0, so it flips a root a of Q orthogonal to R.  A mask
    held or yielded counts its bits, one perm row (the longest element a
    tested Parabolic keeps) and 600 bytes of sets and objects against
    TABLE_CAP_BYTES; past it the walk raises CapExceededError."""
    sys = u.system
    orth, cap = sys.orthogonal_masks, rootsystem.TABLE_CAP_BYTES
    most = cap // (sys.n_pos // 8 + sys.n_roots * PERM_DTYPE.itemsize + 600)
    top = parabolic_closure(u).mask
    seen, stack, paired = {top}, [top], set()
    while stack:
        q = rest = stack.pop()
        covers = set()
        while rest:  # each root a of q, lowest first
            low = rest & -rest
            covers.add(q & orth[low.bit_length() - 1])
            rest ^= low
        pairs = {a & b for a, b in combinations(covers, 2)} - paired
        paired |= pairs
        stack += covers - seen
        seen |= covers
        if len(seen) + len(paired) > most:
            raise CapExceededError(
                f"the closure walk passed {most} masks, whose parabolics "
                f"would pass the cap of {cap} bytes"
            )
        yield q, pairs


@dataclasses.dataclass(frozen=True)
class IntersectionFailure:
    """Two interval closures whose intersection is not involutive."""

    p1: Parabolic
    p2: Parabolic
    intersection: Parabolic


def is_lattice_structural(u: Element):
    """Decide lattice-ness from closures alone: no interval order, no search.
    F, order-isomorphic to [1, u], holds the involutive parabolics of P(u),
    so [1, u] is a lattice iff F is closed under intersection, iff every
    intersection closure_walk yields is involutive.  Proof of the last if:
    induct on the size of a least upper bound C in F of A, B in F.  Unless
    A or B is C, A <= A1 = C_a and B <= B1 = C_b with A1 != B1, and A1 & B1
    is in F; so is A & B1 = A & (A1 & B1), below A1, and A & B =
    (A & B1) & B, below B1.  Returns (True, None), or (False,
    IntersectionFailure) for the first failing pair j, then i < j, of F in
    the search's order, scanned only after a failure."""
    if not u.is_involution:
        raise ValueError("structural lattice test requires an involution")
    sys = u.system
    if all(Parabolic(sys, m).is_involutive for _, ms in closure_walk(u) for m in ms):
        return True, None
    parabolics = sorted(  # all of F, by rank, then the central involution's perm
        map(Parabolic, repeat(sys), (q for q, _ in closure_walk(u))),
        key=lambda p: (len(p.simple_system), p.longest_element.perm.tobytes()),
    )
    masks, involutive = [p.mask for p in parabolics], {}  # one test per intersection
    for j, mj in enumerate(masks):
        for i in range(j):
            inter = masks[i] & mj
            ok = involutive.get(inter)
            if ok is None:
                ok = involutive[inter] = Parabolic(sys, inter).is_involutive
            if not ok:
                inter = Parabolic(sys, inter)
                return False, IntersectionFailure(parabolics[i], parabolics[j], inter)
    raise AssertionError("the cover scan failed where the pair scan passes")


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
