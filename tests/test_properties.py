"""Property tests on random inputs: l_T against the deletion oracle, the
factorization of random involutions through their closures, and the cover
scan of random bounded posets against the full pair scan."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coxabs.absorder import (  # noqa: E402
    IntervalPoset,
    first_meet_failure,
    is_lattice_bruteforce,
)
from coxabs.classify import decompose_involution  # noqa: E402
from coxabs.element import from_word, identity, reflection  # noqa: E402
from coxabs.oracles import DYER_MAX_WORD, dyer_reflection_length  # noqa: E402
from coxabs.parabolic import indices_from_mask  # noqa: E402
from coxabs.rootsystem import RootSystem  # noqa: E402


def reduced_prefix(system, letters):
    """The letters that lengthen the word so far, in order: a reduced word."""
    word, n_pos = [], system.n_pos
    w = identity(system)
    for s in letters:
        s %= system.rank
        if w.perm[system.simple_idx[s]] < n_pos:  # s is not a right descent of w
            w = w * from_word(system, [s])
            word.append(s)
    return word


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["A4", "B4", "D4", "H3", "F4"]),
    st.lists(st.integers(0, 3), max_size=3 * DYER_MAX_WORD),
)
def test_reflection_length_equals_the_deletion_oracle(name, letters):
    # Dyer, Proc. AMS 129 (2001): l_T(w) is the least number of letters
    # to delete from a reduced word of w to leave the identity
    system = RootSystem.named(name)
    word = reduced_prefix(system, letters)[:DYER_MAX_WORD]
    w = from_word(system, word)
    assert w.reflection_length() == dyer_reflection_length(system, word)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["A5", "B4", "D5", "F4", "H3", "H4", "E6", "I2(5)"]),
    st.lists(st.integers(0, 10**6), max_size=8),
)
def test_random_involutions_factor_through_their_closures(name, picks):
    # a product of pairwise orthogonal reflections is an involution, and
    # every involution is one
    system = RootSystem.named(name)
    orth = system.orthogonal_masks
    clique = []
    for k in picks:
        t = k % system.n_pos
        if all(orth[t] >> c & 1 for c in clique):
            clique.append(t)
    u = identity(system)
    for t in clique:
        u = u * reflection(system, t)
    assert u.is_involution
    factorization = decompose_involution(u)
    assert factorization.product() == u
    assert factorization.factor_lengths_add()
    assert factorization.factors_commute()


def bounded_poset(n: int, above: list[bool]) -> list[int]:
    """Down-sets of a poset on 0..n-1 with bottom 0 and top n-1, ids along
    a linear extension: x < y for 0 < x < y < n-1 when above[x * n + y]
    holds, closed under transitivity."""
    down = [1]
    for y in range(1, n):
        below = 1 << y | 1
        for x in range(1, y):
            if y == n - 1 or above[x * n + y]:
                below |= down[x]
        down.append(below)
    return down


def covering_pairs(down: list[int]) -> list[tuple[int, int]]:
    """(x, y) for each x covered by y: the maximal ids strictly below y."""
    hasse = []
    for y, below in enumerate(down):
        strictly = below ^ 1 << y
        deeper = 0
        for x in indices_from_mask(strictly):
            deeper |= down[x] ^ 1 << x
        hasse += [(x, y) for x in indices_from_mask(strictly & ~deeper)]
    return hasse


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 9), st.lists(st.booleans(), min_size=81, max_size=81))
@example(6, [i in (9, 10, 15, 16) for i in range(81)])
def test_the_cover_scan_decides_lattices_of_random_bounded_posets(n, above):
    # the dual of Bjorner, Edelman and Ziegler's Lemma 2.1 (Discrete
    # Comput. Geom. 5, 1990); the example is the crown of B2's w0: atoms
    # 1, 2 below both 3 and 4, no meet for 3 and 4
    down = bounded_poset(n, above)
    lattice = first_meet_failure(down) is None
    # the cover scan reads down and hasse only
    poset = IntervalPoset(None, None, (), None, down, covering_pairs(down), {})
    assert is_lattice_bruteforce(poset)[0] == lattice
