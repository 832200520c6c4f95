"""Parabolic subgroups as closed root subsets, with type recognition.

A parabolic subgroup here is the pointwise stabilizer of a subspace, and
is determined by the set of positive roots lying in the orthogonal
complement of that subspace.  Such root sets are *closed*: they equal the
intersection of the full root system with their own span.  A Parabolic
stores the set as one Python int bitmask over positive root indices,
which makes intersection of parabolics a bitwise AND (the intersection of
closed sets is closed and spans are compatible, see intersect below).

parabolic_closure(w) keeps the positive roots whose cycle under w sums
to 0, as the mean of the powers of w projects onto Fix(w); closure_of_roots,
for any root set, reads the same sums off a product of reflections along
independent roots of the set.  Components and their types come from
rootsystem.recognize, the recognizer the build uses, fed the bonds read
off the reflection table between non-orthogonal simple roots; the
FieldScalar Subspace behind span, is_closed and contains_element is the
reference the tests and verify compare against.

A Parabolic is interned per system and mask, and its derived data
(simple system, component types, longest element, the involutive test)
are cached properties, so sweeps over many involutions stay cheap.  The
intern table, RootSystem._parabolics, lives as long as its system and
holds at most one entry per parabolic subgroup of W.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations

import numpy as np

from . import rootsystem
from .element import Element
from .linalg import Subspace
from .rootsystem import PERM_DTYPE, CapExceededError, RootSystem, TypeLabel, recognize


def indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_from_indices(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def conjugate_mask(system: RootSystem, mask: int, perm: np.ndarray) -> int:
    """Image of a positive-root set under a group element, as positives."""
    return mask_from_indices(perm[list(indices_from_mask(mask))] % system.n_pos)


class Parabolic:
    """A parabolic subgroup, identified by its closed positive-root set.

    Construct through closure_of_roots, parabolic_closure,
    standard_parabolic or intersect; the mask handed to the constructor
    must already be closed.  Instances are interned: Parabolic(system,
    mask) returns the one instance for that mask, kept in
    system._parabolics, so equality is identity and every derived datum
    below is computed once.  The table lives as long as its RootSystem
    and holds at most one entry per parabolic subgroup of W.
    """

    def __new__(cls, system: RootSystem, mask: int):
        p = system._parabolics.get(mask)
        if p is None:
            p = system._parabolics[mask] = super().__new__(cls)
            p.system = system
            p.mask = mask
        return p

    def __repr__(self) -> str:
        types = rootsystem.format_type_multiset(self.type_labels)
        return f"Parabolic({types}, {len(self.simple_system)} roots span)"

    @cached_property
    def root_indices(self) -> tuple[int, ...]:
        return indices_from_mask(self.mask)

    @property
    def size(self) -> int:
        """Number of positive roots in the subsystem."""
        return self.mask.bit_count()

    @cached_property
    def span(self) -> Subspace:
        rows = [self.system.roots[i] for i in self.root_indices]
        return Subspace.from_vectors(rows, self.system.rank)

    @property
    def rank(self) -> int:
        return self.span.dim

    def is_closed(self) -> bool:
        """Check the defining invariant: the mask equals roots-in-span."""
        span, roots = self.span, self.system.roots
        return self.mask == mask_from_indices(
            i for i in range(self.system.n_pos) if span.contains(roots[i])
        )

    # -- simple system and type --------------------------------------------

    @cached_property
    def simple_system(self) -> tuple[int, ...]:
        """Positive roots of the subsystem that are simple inside it.

        A subsystem positive root b is simple exactly when its reflection
        permutes the remaining subsystem positives: when b is the only one
        its row of RootSystem.inversion_masks shares with the mask.
        """
        inv, mask = self.system.inversion_masks, self.mask
        return tuple(b for b in self.root_indices if inv[b] & mask == 1 << b)

    def _diagram(self) -> list[tuple[TypeLabel, tuple]]:
        """recognize on the simple system, with the bonds of its
        non-orthogonal pairs read off the reflection table."""
        sys, orth = self.system, self.system.orthogonal_masks
        bonds = {
            (a, b): sys.bond_between(a, b)
            for a, b in combinations(self.simple_system, 2)
            if not orth[a] >> b & 1
        }
        return recognize(self.simple_system, bonds)

    @cached_property
    def components(self) -> tuple["Parabolic", ...]:
        """Irreducible components, each again a Parabolic."""
        comps = (closure_of_roots(self.system, nodes) for _, nodes in self._diagram())
        return tuple(sorted(comps, key=lambda p: p.root_indices))

    @cached_property
    def type_labels(self) -> tuple[TypeLabel, ...]:
        """Sorted multiset of irreducible types of the components, named
        by recognize."""
        return tuple(sorted(label for label, _ in self._diagram()))

    @property
    def group_order(self) -> int:
        return math.prod(rootsystem.group_order(l) for l in self.type_labels)

    # -- longest element and the -Id test -----------------------------------

    @cached_property
    def longest_element(self) -> Element:
        """Longest element of the subsystem, by greedy descent removal."""
        sys = self.system
        simple = np.array(self.simple_system, dtype=np.intp)
        perm = np.arange(sys.n_roots, dtype=PERM_DTYPE)
        while True:
            up = simple[perm[simple] < sys.n_pos]
            if not up.size:
                return Element(sys, perm)
            perm = perm[sys.reflection_table[up[0]].astype(np.intp)]

    @cached_property
    def is_involutive(self) -> bool:
        """Whether the longest element acts as -Id on the subsystem span."""
        w0, n_pos = self.longest_element.perm, self.system.n_pos
        return all(int(w0[b]) == b + n_pos for b in self.simple_system)

    @property
    def central_involution(self) -> Element | None:
        """The longest element when it acts as -Id on the span, else None."""
        if not self.is_involutive:
            return None
        return self.longest_element

    # -- subgroup operations --------------------------------------------------

    def intersect(self, other: "Parabolic") -> "Parabolic":
        """Intersection of parabolics, computed on root sets.

        For closed sets P = Phi&U and Q = Phi&U', every root of
        span(P&Q) lies in U and U' and hence already in P&Q, so the
        bitwise AND is again closed and spans the intersection subspace;
        the test suite checks both against the spans.
        """
        if self.system is not other.system:
            raise ValueError("parabolics live in different systems")
        return Parabolic(self.system, self.mask & other.mask)

    def conjugate_by(self, w: Element) -> "Parabolic":
        """The parabolic w P w^-1 (image of a closed set is closed)."""
        return Parabolic(self.system, conjugate_mask(self.system, self.mask, w.perm))

    def contains_element(self, w: Element) -> bool:
        """Membership via moved space: w lies in the stabilizer iff it
        moves nothing outside the span."""
        return self.span.contains_subspace(w.moved_space())


# ----------------------------------------------------------------------
# constructors


def closure_of_roots(system: RootSystem, indices) -> Parabolic:
    """Smallest parabolic containing the given reflections: the positive
    roots in the span of the inputs, folded in one root at a time.

    A root already in the closure so far is skipped; any other root b
    multiplies the product c by s_b, and the closure is read off c by
    _zero_sum_cycles, as parabolic_closure does.  A kept root lies outside
    the closure so far, which holds every root in its span, so the kept
    roots are linearly independent.  Each s_b fixes span(b)^perp, so Mov(c)
    lies in their span, and for k independent roots dim Mov(c) = l_T(c) = k
    (Carter, Compositio Math. 25, 1972): the closure of c is the positive
    roots in the span of the kept roots, which is that of every input.
    """
    table, n_pos = system.reflection_table, system.n_pos
    perm, mask = np.arange(system.n_roots, dtype=PERM_DTYPE), 0
    for t in indices:
        t = int(t) % n_pos
        if not mask >> t & 1:
            perm = perm[table[t]]
            mask = _zero_sum_cycles(system, perm)
    return Parabolic(system, mask)


def standard_parabolic(system: RootSystem, generators) -> Parabolic:
    """Closure of a subset of the simple generators (0-based indices)."""
    return closure_of_roots(system, [system.simple_idx[s] for s in generators])


def parabolic_closure(w: Element) -> Parabolic:
    """The smallest parabolic subgroup containing w.

    This is the pointwise stabilizer of the fixed space of w, so its
    roots are the positive roots in Mov(w) = Fix(w)^perp (Carter,
    Compositio Math. 25, 1972).  w has finite order m and preserves the
    form, so the mean of w^0, ..., w^(m-1) is the orthogonal projection
    onto Fix(w), and it sends a root to the mean of the roots in its cycle
    under w.perm: the root lies in Mov(w) exactly when its cycle sums to 0.
    For an involution a cycle is a fixed root or a pair {a, w(a)}, which
    sums to 0 exactly when w(a) = -a, so one vectorized test of the perm
    gives the mask, as involution_masks does per row.
    """
    sys = w.system
    if w.is_involution:
        flipped = w.perm[: sys.n_pos] == sys.negatives
        return Parabolic(sys, rootsystem.packed_mask(flipped))
    return Parabolic(sys, _zero_sum_cycles(sys, w.perm))


def _zero_sum_cycles(system: RootSystem, perm: np.ndarray) -> int:
    """Mask of the positive roots whose cycle under perm sums to 0, on
    RootSystem.cycle_rows, each cycle walked once from a positive root."""
    rows, perm, n_pos = system.cycle_rows, perm.tolist(), system.n_pos
    mask = 0
    for start in range(n_pos):
        i = perm[start]
        if i < 0:  # walked already
            continue
        cycle, total = [start], rows[start]
        perm[start] = -1
        while i != start:
            cycle.append(i)
            total += rows[i]
            perm[i], i = -1, perm[i]
        if not total:
            for i in cycle:
                mask |= 1 << i % n_pos
    return mask


def involution_masks(system: RootSystem, perms: np.ndarray) -> list[int]:
    """Closure masks of the involutions whose perms are the rows of perms:
    the positive roots each sends to its own negative, packed per row."""
    return rootsystem.packed_masks(perms[:, : system.n_pos] == system.negatives)


# ----------------------------------------------------------------------
# involutions of a subsystem


def involutions_with_words(
    p: Parabolic,
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """All involutions of the subsystem, each with one minimal reflection word.

    Involutions are exactly the products of pairwise orthogonal
    reflections; the search enumerates orthogonal subsets of the
    subsystem's positive roots in lexicographic order and keeps the first
    word found for each element.  The identity appears with the empty
    word.  Pairwise orthogonal roots are linearly independent, so every
    such word is T-reduced and its length is the reflection length
    (Carter, Compositio Math. 25, 1972).  Returns (perms, words): one
    read-only PERM_DTYPE row per involution and a tuple of their words,
    sorted by that length, then by permutation bytes.  No Element is built.

    The roots a clique may still take are a mask cut by each new root's
    RootSystem.orthogonal_masks.  The first word of x is t, the smallest
    positive root x flips, then the first word of x s_t; so a clique whose
    product was found before is no prefix of a first word, and stops.
    Each step gathers through table row t cast to intp, twice as fast as int16.

    The involutions of P(u) are the candidates of the interval [1, u].
    The search holds each row twice, in found and then stacked, and the
    down-set table of [1, u] takes count^2 / 8 bytes; it raises
    CapExceededError as soon as the count passes what TABLE_CAP_BYTES
    admits for both, before it holds the rest.
    """
    sys = p.system
    cap = rootsystem.TABLE_CAP_BYTES
    # most: the largest n with n^2/8 + n * b/8 <= cap, b/8 the bytes of two rows
    b = 16 * sys.n_roots * PERM_DTYPE.itemsize
    most = (math.isqrt(b * b + 32 * cap) - b) // 2
    table, simple, orth = sys.reflection_table, sys.simple_idx, sys.orthogonal_masks
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}

    def visit(perm: np.ndarray, clique: tuple[int, ...], allowed: int):
        key = perm[simple].tobytes()
        if key in found:
            return
        found[key] = (perm, clique)
        if len(found) > most:
            raise CapExceededError(
                f"the involution search passed {most} elements, whose "
                f"down-set table would pass the cap of {cap} bytes"
            )
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            t = low.bit_length() - 1
            visit(perm[table[t].astype(np.intp)], clique + (t,), allowed & orth[t])

    try:
        visit(np.arange(sys.n_roots, dtype=PERM_DTYPE), (), p.mask)
    finally:
        visit = None  # the closure refers to itself; drop it, or found lives on
    ordered = sorted(found.values(), key=lambda pw: (len(pw[1]), pw[0].tobytes()))
    perms = np.array([perm for perm, _ in ordered])
    perms.flags.writeable = False
    words = tuple(word for _, word in ordered)
    return perms, words


def enumerate_involutions(p: Parabolic) -> list[Element]:
    """All w in the subsystem with w * w = 1, identity included."""
    return [Element(p.system, perm) for perm in involutions_with_words(p)[0]]


def all_subparabolics(p: Parabolic) -> list[Parabolic]:
    """Every parabolic subgroup of the subsystem, as masks.

    Each is conjugate inside the subsystem to a standard one (closure of
    part of the simple system), so a breadth-first orbit walk under
    conjugation by the subsystem's simple reflections finds them all.
    """
    sys = p.system
    simples = p.simple_system
    seeds = set()
    for r in range(len(simples) + 1):
        for subset in combinations(simples, r):
            seeds.add(closure_of_roots(sys, subset).mask)
    seen = set(seeds)
    queue = list(seeds)
    simple_perms = [sys.reflection_table[b] for b in simples]
    while queue:
        mask = queue.pop()
        for sp in simple_perms:
            img = conjugate_mask(sys, mask, sp)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return [Parabolic(sys, m) for m in sorted(seen)]
