"""Independent brute-force routes used to validate the main code paths.

Nothing here shares logic with the interval or involution machinery: the
deletion oracle counts letters combinatorially, the Cayley oracle walks
the covering graph below an element, and the expression search factors
elements over all reflections.  The test suite compares their output
against the structural implementations; the two sides must never be
collapsed into one.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .element import Element, from_word
from .rootsystem import PERM_DTYPE, RootSystem

#: caps on the oracle inputs, matching the documented contracts
DYER_MAX_WORD = 16
EXPRESSION_MAX_LENGTH = 4


def dyer_reflection_length(system: RootSystem, word) -> int:
    """Reflection length by the deletion rule on a reduced word.

    The reflection length of w equals the least number of letters one
    can delete from a reduced word for w so that the remaining letters
    multiply to the identity.  The input word must be reduced; words
    longer than 16 letters are rejected to bound the subset search.
    """
    word = tuple(word)
    if len(word) > DYER_MAX_WORD:
        raise ValueError(f"deletion oracle accepts at most {DYER_MAX_WORD} letters")
    w = from_word(system, word)
    if w.length_S() != len(word):
        raise ValueError("deletion oracle requires a reduced word")
    letters = [system.reflection_table[system.simple_idx[s]] for s in word]
    ident = np.arange(system.n_roots, dtype=PERM_DTYPE)
    n = len(word)
    for k in range(n + 1):
        for removed in combinations(range(n), k):
            gone = set(removed)
            perm = ident
            for i, lp in enumerate(letters):
                if i not in gone:
                    perm = perm[lp]
            if (perm == ident).all():
                return k
    raise AssertionError("deleting every letter always yields the identity")


def cayley_interval_elements(u: Element) -> list[Element]:
    """All x with x <=_T u, found by walking covers in the Cayley graph.

    Starts at the identity and repeatedly multiplies by every reflection
    of the whole group, keeping the products that gain one reflection
    length and still sit below u by the additivity test.  No parabolic
    or involution structure is consulted.
    """
    sys = u.system
    target_len = u.reflection_length()
    u_perm = u.perm
    found: dict[bytes, Element] = {}
    ident = Element(sys, np.arange(sys.n_roots, dtype=PERM_DTYPE))
    found[ident.key()] = ident
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            lx = x.reflection_length()
            for t in range(sys.n_pos):
                y = Element(sys, x.perm[sys.reflection_table[t]])
                key = y.key()
                if key in found:
                    continue
                ly = y.reflection_length()
                if ly != lx + 1:
                    continue
                # y <= u by length additivity, y^-1 u via permutations
                rest = Element(sys, y.inverse().perm[u_perm])
                if ly + rest.reflection_length() == target_len:
                    found[key] = y
                    nxt.append(y)
        frontier = nxt
    out = list(found.values())
    out.sort(key=lambda e: (e.reflection_length(), e.perm.tobytes()))
    return out


def t_reduced_expressions(u: Element) -> list[tuple[int, ...]]:
    """Every minimal factorization of u into reflections, as root indices.

    Depth-first search over all reflections of the group: t can start a
    minimal expression of w exactly when it drops the reflection length
    by one.  Only elements with reflection length at most 4 are accepted,
    which keeps the search exhaustive yet bounded.
    """
    sys = u.system
    k = u.reflection_length()
    if k > EXPRESSION_MAX_LENGTH:
        raise ValueError(
            f"expression search accepts reflection length at most {EXPRESSION_MAX_LENGTH}"
        )
    results: list[tuple[int, ...]] = []

    def descend(remaining: Element, lrem: int, prefix: tuple[int, ...]):
        if lrem == 0:
            results.append(prefix)
            return
        for t in range(sys.n_pos):
            nxt = Element(sys, sys.reflection_table[t][remaining.perm])
            if nxt.reflection_length() == lrem - 1:
                descend(nxt, lrem - 1, prefix + (t,))

    descend(u, k, ())
    results.sort()
    return results


def hurwitz_orbits(system: RootSystem, expressions) -> list[list[tuple[int, ...]]]:
    """Orbits of the braid moves on reflection factorizations.

    The move at position i replaces (.., a, b, ..) by (.., a b a, a, ..);
    its inverse replaces it by (.., b, b a b, ..).  Conjugating a
    reflection is a table lookup on roots.  Returns the orbits as sorted
    lists, ordered by their smallest member.
    """
    n_pos = system.n_pos

    def conj(a: int, b: int) -> int:
        img = int(system.reflection_table[a][b])
        return img - n_pos if img >= n_pos else img

    remaining = {tuple(e) for e in expressions}
    orbits = []
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            expr = frontier.pop()
            for i in range(len(expr) - 1):
                a, b = expr[i], expr[i + 1]
                for moved in (
                    expr[:i] + (conj(a, b), a) + expr[i + 2 :],
                    expr[:i] + (b, conj(b, a)) + expr[i + 2 :],
                ):
                    if moved in remaining and moved not in orbit:
                        orbit.add(moved)
                        frontier.append(moved)
        remaining -= orbit
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda o: o[0])
    return orbits
