"""Absolute order intervals below involutions, and the lattice tests."""

import json

import numpy as np
import pytest

from coxabs import linalg, parabolic, rootsystem, verify
from coxabs.absorder import (
    closure_map_report,
    closure_walk,
    first_meet_failure,
    interval_of_involution,
    is_lattice_bruteforce,
    is_lattice_structural,
    leq_T,
    maximal_lower_bounds,
    meet,
    poset_to_dot,
    poset_to_json,
    poset_to_json_dict,
)
from coxabs.dihedral import Dihedral
from coxabs.element import (
    Element,
    enumerate_group,
    from_word,
    identity,
    longest_element,
    reflection,
    simple_reflection,
)
from coxabs.parabolic import (
    Parabolic,
    enumerate_involutions,
    involution_masks,
    involutions_with_words,
    parabolic_closure,
)
from coxabs.rootsystem import (
    CapExceededError,
    RootSystem,
    format_type_multiset,
    named_coxeter_matrix,
    parse_label,
)
from coxabs.verify import SMALL_GROUP_TYPES


def test_leq_T_additivity_definition():
    system = RootSystem.named("B2")
    e = identity(system)
    s = simple_reflection(system, 0)
    w0 = longest_element(system)
    assert leq_T(e, s)
    assert leq_T(s, w0)
    assert leq_T(e, w0)
    assert not leq_T(w0, s)
    assert leq_T(s, s)


def test_interval_rejects_non_involutions():
    system = RootSystem.named("A2")
    with pytest.raises(ValueError):
        interval_of_involution(from_word(system, [0, 1]))


def test_b2_interval_shape():
    system = RootSystem.named("B2")
    poset = interval_of_involution(longest_element(system))
    assert poset.size == 6
    assert sorted(int(r) for r in poset.ranks) == [0, 1, 1, 1, 1, 2]
    # bottom and top are unique
    assert sum(1 for r in poset.ranks if r == 0) == 1
    assert sum(1 for r in poset.ranks if r == 2) == 1
    # the hasse diagram is the 4-crown plus nothing else
    assert len(poset.hasse) == 8


def test_interval_membership_is_exactly_additivity():
    for name in ("A3", "B3", "H3", "D4", "F4"):
        system = RootSystem.named(name)
        w0 = longest_element(system)
        poset = interval_of_involution(w0)
        enum = enumerate_group(system)
        member_keys = {e.key() for e in poset.elements}
        for i in range(enum.size):
            w = enum.element(i)
            assert (w.key() in member_keys) == leq_T(w, w0), name
        # the ranks taken off the reflection words are the reflection lengths
        assert [int(r) for r in poset.ranks] == [
            e.reflection_length() for e in poset.elements
        ], name


def test_interval_build_takes_no_reflection_length(monkeypatch):
    # a fresh system, so that no l_T is cached
    system = RootSystem(named_coxeter_matrix("D6"))
    calls = []
    inner = linalg.rank_rational

    def counting(matrix):
        calls.append(1)
        return inner(matrix)

    monkeypatch.setattr(linalg, "rank_rational", counting)
    poset = interval_of_involution(longest_element(system))
    assert poset.size == 752
    assert calls == []


def test_interval_of_identity_and_reflection():
    system = RootSystem.named("A3")
    assert interval_of_involution(identity(system)).size == 1
    poset = interval_of_involution(reflection(system, 0))
    assert poset.size == 2
    assert poset.hasse == [(0, 1)]


def test_meet_in_a_lattice_interval():
    system = RootSystem.named("B3")
    poset = interval_of_involution(longest_element(system))
    v = poset.elements[poset.size - 1]
    e = identity(system)
    assert meet(poset, v, v) == v
    for i in range(poset.size):
        got = meet(poset, poset.elements[i], e)
        assert got == e


def test_index_of_and_meet_refuse_an_element_outside_the_interval():
    system = RootSystem.named("B3")
    poset = interval_of_involution(reflection(system, 0))
    other = reflection(system, 1)
    with pytest.raises(KeyError, match="element is not in the interval"):
        poset.index_of(other)
    with pytest.raises(KeyError, match="element is not in the interval"):
        meet(poset, poset.top, other)


def test_an_element_has_one_key_whatever_the_dtype_of_its_row():
    # a system of its own, so that no other test has filled its l_T cache
    system = RootSystem(named_coxeter_matrix("B3"), parse_label("B3"))
    poset = interval_of_involution(longest_element(system))
    i = poset.size // 2
    x = poset.elements[i]
    copies = [Element(system, x.perm.astype(d)) for d in (np.int16, np.int32, np.int64)]
    assert all(c == x for c in copies)
    assert len({c.key() for c in copies}) == len({hash(c) for c in copies}) == 1
    assert len(set(copies)) == 1
    assert [poset.index_of(c) for c in copies] == [i, i, i]
    cache = system._ell_t_cache
    cache.pop(x.key(), None)
    before = len(cache)
    assert len({c.reflection_length() for c in copies}) == 1
    assert len(cache) == before + 1


def test_lattice_verdicts_on_small_positives():
    for name in ("A1", "B2", "B3", "D4", "H3"):
        system = RootSystem.named(name)
        poset = interval_of_involution(longest_element(system))
        ok_brute, witness_brute = is_lattice_bruteforce(poset)
        ok_struct, witness_struct = is_lattice_structural(longest_element(system))
        assert ok_brute and witness_brute is None
        assert ok_struct and witness_struct is None


def test_lattice_failure_witnesses_on_d6():
    system = RootSystem.named("D6")
    w0 = longest_element(system)
    ok_struct, witness = is_lattice_structural(w0)
    assert not ok_struct
    assert format_type_multiset(witness.intersection.type_labels) == "A3"
    ok_brute, failure = is_lattice_bruteforce(interval_of_involution(w0))
    assert not ok_brute
    # the failing pair admits several maximal lower bounds, or none unique
    assert len(failure.maximal_lower_bound_ids) != 1


def test_closure_map_report_on_b3():
    report = closure_map_report(longest_element(RootSystem.named("B3")))
    assert report["injective"]
    assert report["surjective"]
    assert report["order_isomorphism"]
    assert report["interval_size"] == report["involutive_parabolic_count"]


def test_json_export_shape():
    system = RootSystem.named("B2")
    poset = interval_of_involution(longest_element(system))
    ok, witness = is_lattice_bruteforce(poset)
    payload = json.loads(poset_to_json(poset, ok, witness))
    assert payload["is_lattice"] is True
    assert len(payload["elements"]) == 6
    assert all({"id", "rank", "t_word"} <= set(e) for e in payload["elements"])
    assert len(payload["hasse"]) == 8
    same = poset_to_json_dict(poset, ok, witness)
    assert payload == json.loads(json.dumps(same))


def test_dot_export_mentions_every_node():
    system = RootSystem.named("A2")
    poset = interval_of_involution(longest_element(system))
    dot = poset_to_dot(poset)
    assert dot.startswith("digraph")
    for i in range(poset.size):
        assert f"n{i} " in dot
    assert dot.count("->") == len(poset.hasse)


def test_interval_ranks_agree_with_reflection_length():
    system = RootSystem.named("H3")
    poset = interval_of_involution(longest_element(system))
    for i, e in enumerate(poset.elements):
        assert int(poset.ranks[i]) == e.reflection_length()
    assert poset.size == 32


# ----------------------------------------------------------------------
# the cover order against the pairwise definition


def pairwise_order(poset) -> np.ndarray:
    """x_i <= x_j by l_T additivity on every pair of ranks i < j."""
    system = poset.top.system
    n = poset.size
    leq = np.eye(n, dtype=bool)
    for i, x in enumerate(poset.elements):
        for j, y in enumerate(poset.elements):
            if poset.ranks[i] < poset.ranks[j]:
                # x^-1 y = x y, as interval elements are involutions
                between = Element(system, x.perm[y.perm]).reflection_length()
                leq[i, j] = poset.ranks[i] + between == poset.ranks[j]
    return leq


def order_from_down(down: list[int]) -> np.ndarray:
    n = len(down)
    nbytes = (n + 7) // 8
    cols = [
        np.unpackbits(
            np.frombuffer(d.to_bytes(nbytes, "little"), np.uint8),
            bitorder="little",
        )[:n]
        for d in down
    ]
    return np.array(cols, dtype=bool).T


def matrix_meet_failure(leq: np.ndarray):
    """Reference scan on an order matrix: j, then i < j, and for each
    incomparable pair the maximal common lower bounds, counted pairwise."""
    n = len(leq)
    for j in range(n):
        for i in range(j):
            if leq[i, j] or leq[j, i]:
                continue
            ids = np.nonzero(leq[:, i] & leq[:, j])[0]
            maximal = ids[leq[np.ix_(ids, ids)].sum(axis=1) == 1]
            if len(maximal) != 1:
                return i, j, tuple(int(m) for m in maximal)
    return None


def assert_matches_pairwise(u):
    poset = interval_of_involution(u)
    leq = pairwise_order(poset)
    assert np.array_equal(order_from_down(poset.down), leq)
    ranks = poset.ranks
    hasse = [
        (i, j)
        for i in range(poset.size)
        for j in range(poset.size)
        if ranks[j] == ranks[i] + 1 and leq[i, j]
    ]
    assert poset.hasse == hasse
    expected = matrix_meet_failure(leq)
    ok, failure = is_lattice_bruteforce(poset)
    assert ok == (expected is None)
    if failure is not None:
        assert (failure.v_id, failure.w_id, failure.maximal_lower_bound_ids) == expected


@pytest.mark.parametrize("name", SMALL_GROUP_TYPES + ("D5", "B5", "D6"))
def test_cover_order_equals_pairwise_order_on_every_involution(name):
    system = RootSystem.named(name)
    full = Parabolic(system, (1 << system.n_pos) - 1)
    for perm in involutions_with_words(full)[0]:
        assert_matches_pairwise(Element(system, perm))


def test_cover_order_equals_pairwise_order_on_h4_w0():
    assert_matches_pairwise(longest_element(RootSystem.named("H4")))


@pytest.mark.parametrize("m", range(2, 13))
def test_dihedral_down_set_scan_equals_the_matrix_scan(m):
    group = Dihedral(m)
    for u in group.involutions():
        members, _, leq = group.interval(u)
        expected = matrix_meet_failure(leq)
        ok, pair = group.lattice_bruteforce(u)
        assert ok == (expected is None)
        if expected is not None:
            i, j, maximal = expected
            assert pair == (members[i], members[j])
        down = [sum(1 << int(i) for i in np.flatnonzero(col)) for col in leq.T]
        failure = first_meet_failure(down)
        assert failure == (None if expected is None else expected[:2])
        if failure is not None:
            assert maximal_lower_bounds(down, *failure) == expected[2]


def test_d6_w0_interval_takes_no_product_lengths():
    # a fresh system, so that its l_T cache holds only this interval's
    # work: the candidate filter, whose products e u are again the 752
    # involutions of D6 since w0 = -Id
    system = RootSystem(named_coxeter_matrix("D6"), parse_label("D6"))
    poset = interval_of_involution(longest_element(system))
    assert poset.size == 752
    assert len(system._ell_t_cache) <= 752


def test_oversized_interval_is_refused(monkeypatch):
    # H3 w0 is -Id: its 32 involutions are all candidates.  The search
    # holds their rows of 30 int16 entries twice (32 * 120 bytes), and a
    # table of 32 down-sets of 32 bits takes 32 * 32 / 8 = 128 bytes more
    u = longest_element(RootSystem.named("H3"))
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 3967)
    with pytest.raises(CapExceededError, match="passed 31 elements"):
        interval_of_involution(u)
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 3968)
    assert interval_of_involution(u).size == 32


def incomparable_pair_scan(down: list[int]):
    """Reference scan: j, then i < j, testing only the incomparable pairs."""
    principal = set(down)
    for j, below_j in enumerate(down):
        for i in range(j):
            if not below_j >> i & 1 and down[i] & below_j not in principal:
                return i, j
    return None


@pytest.mark.parametrize("name", SMALL_GROUP_TYPES + ("D6",))
def test_meet_scan_equals_the_incomparable_pair_scan(name):
    # a comparable pair has the smaller element as its meet, so testing
    # every pair finds the same first failure
    system = RootSystem.named(name)
    full = Parabolic(system, (1 << system.n_pos) - 1)
    for perm in involutions_with_words(full)[0]:
        down = interval_of_involution(Element(system, perm)).down
        assert first_meet_failure(down) == incomparable_pair_scan(down)


@pytest.mark.parametrize("m", range(2, 13))
def test_meet_scan_equals_the_incomparable_pair_scan_on_dihedral_down_sets(m):
    group = Dihedral(m)
    for u in group.involutions():
        _, _, leq = group.interval(u)
        down = [sum(1 << int(i) for i in np.flatnonzero(col)) for col in leq.T]
        assert first_meet_failure(down) == incomparable_pair_scan(down)


def fresh_b5_w0():
    """B5's w0, a lattice, in a system of its own, so that nothing a test
    spoils reaches the shared one."""
    return longest_element(RootSystem(named_coxeter_matrix("B5"), parse_label("B5")))


def test_a_spoiled_down_set_fails_the_cover_scan_on_b5_w0():
    poset = interval_of_involution(fresh_b5_w0())
    assert is_lattice_bruteforce(poset) == (True, None)
    # an atom x below a rank 2 element z loses the bottom: with z's other
    # lower cover it has no common lower bound left, and every down-set
    # but its own holds the bottom
    x, z = next((x, z) for x, z in poset.hasse if poset.ranks[z] == 2)
    poset.down[x] ^= 1
    ok, failure = is_lattice_bruteforce(poset)
    assert not ok and failure.maximal_lower_bound_ids == ()


def test_a_spoiled_orthogonality_row_fails_the_structural_walk_on_b5_w0():
    u = fresh_b5_w0()
    system = u.system
    orth = list(system.orthogonal_masks)
    # roots 2 and 0 (short, the simple root of the fifth node) are
    # orthogonal; with the bit cleared every cover C_2 the walk takes
    # loses root 0, and those masks are no longer all closures
    assert orth[2] & 1
    orth[2] ^= 1
    system.__dict__["orthogonal_masks"] = tuple(orth)
    assert not is_lattice_structural(u)[0]


def test_one_intersection_taken_for_non_involutive_fails_the_structural_walk(
    monkeypatch,
):
    u = fresh_b5_w0()
    system = u.system
    assert is_lattice_structural(u) == (True, None)
    orth, top = system.orthogonal_masks, parabolic_closure(u).mask
    a, b = system.simple_idx[:2]
    spoiled = top & orth[a] & orth[b]  # two lower covers of the top meet here
    involutive = Parabolic.is_involutive.func
    monkeypatch.setattr(
        Parabolic,
        "is_involutive",
        property(lambda p: p.mask != spoiled and involutive(p)),
    )
    ok, failure = is_lattice_structural(u)
    assert not ok and failure.intersection.mask == spoiled


def walk_family(u: Element) -> set[int]:
    return {q for q, _ in closure_walk(u)}


def search_family(u: Element) -> list[int]:
    perms, _ = involutions_with_words(parabolic_closure(u))
    return involution_masks(u.system, perms)


@pytest.mark.parametrize("name", SMALL_GROUP_TYPES + ("D6", "E6"))
def test_the_closure_walk_finds_the_searchs_closures_below_every_involution(name):
    system = RootSystem.named(name)
    for u in enumerate_involutions(Parabolic(system, (1 << system.n_pos) - 1)):
        masks = search_family(u)
        assert walk_family(u) == set(masks) and len(set(masks)) == len(masks)


@pytest.mark.parametrize("name", ["B7", "E7", "D8"])
def test_the_closure_walk_finds_the_searchs_closures_below_w0(name):
    u = longest_element(RootSystem.named(name))
    assert walk_family(u) == set(search_family(u))


def test_a_search_that_drops_an_involution_fails_the_walk_cross_check(monkeypatch):
    u = longest_element(RootSystem.named("B3"))
    assert verify._walk_matches_search(u)
    search = parabolic.involutions_with_words

    def dropping(p):  # loses its row 1, an atom
        perms, words = search(p)
        return np.delete(perms, 1, axis=0), words[:1] + words[2:]

    monkeypatch.setattr(parabolic, "involutions_with_words", dropping)
    assert not verify._walk_matches_search(u)


def test_the_closure_walk_is_refused_under_a_lowered_cap(monkeypatch):
    # H3 w0 is -Id: the walk holds its 32 masks and yields 16 distinct
    # intersections of cover pairs, 48 counted in all; each counts one bit
    # row of 15 roots, one perm row of 30 int16 entries and 600 bytes
    u = longest_element(RootSystem.named("H3"))
    assert len(walk_family(u)) == 32
    assert len(set().union(*(pairs for _, pairs in closure_walk(u)))) == 16
    per_mask = 15 // 8 + 30 * 2 + 600
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 48 * per_mask - 1)
    message = (
        "the closure walk passed 47 masks, whose parabolics "
        f"would pass the cap of {48 * per_mask - 1} bytes"
    )
    with pytest.raises(CapExceededError) as excinfo:
        is_lattice_structural(u)
    assert str(excinfo.value) == message
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 48 * per_mask)
    assert is_lattice_structural(u) == (True, None)
