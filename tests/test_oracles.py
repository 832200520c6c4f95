"""The brute-force oracles: deletion length, Cayley walk, expression search."""

import pytest

from coxabs.element import (
    enumerate_group,
    from_word,
    identity,
    longest_element,
    reflection,
)
from coxabs.field import ZERO
from coxabs.oracles import (
    cayley_interval_elements,
    dyer_reflection_length,
    hurwitz_orbits,
    t_reduced_expressions,
)
from coxabs.rootsystem import CoxeterMatrix, RootSystem


def test_deletion_length_basics():
    system = RootSystem.named("B2")
    assert dyer_reflection_length(system, []) == 0
    assert dyer_reflection_length(system, [0]) == 1
    assert dyer_reflection_length(system, [0, 1, 0]) == 1  # sts is a reflection
    assert dyer_reflection_length(system, [0, 1]) == 2
    assert dyer_reflection_length(system, [0, 1, 0, 1]) == 2  # w0 = -Id


def test_deletion_length_rejects_bad_input():
    system = RootSystem.named("A2")
    with pytest.raises(ValueError):
        dyer_reflection_length(system, [0, 0])  # not reduced
    with pytest.raises(ValueError):
        dyer_reflection_length(RootSystem.named("B5"), [0, 1] * 10)  # too long


def test_deletion_length_agrees_with_fixed_space_rank_on_a3():
    system = RootSystem.named("A3")
    enum = enumerate_group(system)
    for i in range(enum.size):
        w = enum.element(i)
        assert dyer_reflection_length(system, w.reduced_word()) == w.reflection_length()


def test_cayley_walk_below_w0_b2():
    system = RootSystem.named("B2")
    found = cayley_interval_elements(longest_element(system))
    assert len(found) == 6
    lengths = sorted(e.reflection_length() for e in found)
    assert lengths == [0, 1, 1, 1, 1, 2]


def test_cayley_walk_below_w0_b3_returns_every_involution():
    system = RootSystem.named("B3")
    found = cayley_interval_elements(longest_element(system))
    # w0 = -Id, so the interval is exactly the set of involutions
    assert len(found) == 20
    assert all(e.is_involution for e in found)


def test_cayley_walk_below_a_reflection():
    system = RootSystem.named("A3")
    found = cayley_interval_elements(reflection(system, 2))
    assert len(found) == 2


def test_expression_search_for_a_reflection():
    system = RootSystem.named("A3")
    assert t_reduced_expressions(reflection(system, 4)) == [(4,)]
    assert t_reduced_expressions(identity(system)) == [()]


def test_expression_search_w0_b2():
    system = RootSystem.named("B2")
    expressions = t_reduced_expressions(longest_element(system))
    assert len(expressions) == 4
    assert all(len(e) == 2 for e in expressions)
    pairs = {frozenset(e) for e in expressions}
    assert len(pairs) == 2
    # each unordered pair is orthogonal and appears in both orders
    for pair in pairs:
        a, b = sorted(pair)
        assert system.bilinear(a, b) == ZERO
        assert (a, b) in expressions and (b, a) in expressions


def test_expression_search_rejects_long_elements():
    system = RootSystem.named("B5")
    with pytest.raises(ValueError):
        t_reduced_expressions(longest_element(system))


def test_expressions_multiply_back_to_the_element():
    system = RootSystem.named("A3")
    w0 = longest_element(system)
    for expr in t_reduced_expressions(w0):
        product = identity(system)
        for t in expr:
            product = product * reflection(system, t)
        assert product == w0


def test_hurwitz_orbits_w0_b2():
    system = RootSystem.named("B2")
    expressions = t_reduced_expressions(longest_element(system))
    orbits = hurwitz_orbits(system, expressions)
    assert len(orbits) == 2
    assert sorted(len(o) for o in orbits) == [2, 2]
    # every orbit consists of the two orderings of one commuting pair
    for orbit in orbits:
        assert {frozenset(e) for e in orbit} == {frozenset(orbit[0])}
    # orbits partition the expressions
    assert sorted(sum(orbits, [])) == sorted(tuple(e) for e in expressions)


def test_hurwitz_single_orbit_for_a_rotation():
    system = RootSystem.named("A2")
    st = from_word(system, [0, 1])
    expressions = t_reduced_expressions(st)
    assert len(expressions) == 3
    orbits = hurwitz_orbits(system, expressions)
    assert len(orbits) == 1
    assert len(orbits[0]) == 3


def test_hurwitz_commuting_product_is_one_orbit():
    matrix = CoxeterMatrix.from_rows([[1, 2], [2, 1]])
    system = RootSystem(matrix)
    w0 = longest_element(system)
    expressions = t_reduced_expressions(w0)
    assert expressions == [(0, 1), (1, 0)]
    orbits = hurwitz_orbits(system, expressions)
    assert len(orbits) == 1
