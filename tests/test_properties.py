"""Property tests on random inputs: l_T against the deletion oracle, and
the factorization of random involutions through their closures."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coxabs.classify import decompose_involution  # noqa: E402
from coxabs.element import from_word, identity, reflection  # noqa: E402
from coxabs.oracles import DYER_MAX_WORD, dyer_reflection_length  # noqa: E402
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
