"""Symbolic dihedral groups, checked against the geometric route where both exist."""

import os
import subprocess
import sys

import pytest

from coxabs import rootsystem
from coxabs.dihedral import Dihedral
from coxabs.element import enumerate_group, longest_element
from coxabs.rootsystem import CapExceededError, RootSystem


def test_group_law():
    group = Dihedral(5)
    e = group.identity
    s, t = group.generators
    assert group.mul(s, s) == e
    assert group.mul(t, t) == e
    st = group.mul(s, t)
    power = e
    for _ in range(5):
        power = group.mul(power, st)
    assert power == e
    assert group.inv(st) == group.mul(t, s)


def test_from_word_and_longest():
    group = Dihedral(4)
    w0 = group.longest_element()
    assert group.from_word([0, 1, 0, 1]) == w0
    assert group.from_word([1, 0, 1, 0]) == w0
    assert group.is_involution(w0)
    assert group.reflection_length(w0) == 2


def test_element_counts():
    for m in (3, 4, 5, 6, 7, 8, 10):
        group = Dihedral(m)
        assert len(group.all_elements()) == 2 * m
        expected = m + 2 if m % 2 == 0 else m + 1  # identity, reflections, maybe -Id
        assert len(group.involutions()) == expected


def test_reflection_lengths():
    group = Dihedral(7)
    assert group.reflection_length(group.identity) == 0
    assert group.reflection_length(group.reflection(3)) == 1
    assert group.reflection_length(group.rotation(2)) == 2


@pytest.mark.parametrize("m", [4, 6])
def test_symbolic_interval_matches_geometric(m):
    group = Dihedral(m)
    w0 = group.longest_element()
    members, ranks, _ = group.interval(w0)
    system = RootSystem.named(f"I2({m})")
    enum = enumerate_group(system)
    geometric = [
        enum.element(int(i))
        for i in enum.involution_ids()
    ]
    # w0 = -Id here so every involution sits below it
    assert len(members) == len(geometric) == m + 2
    assert sorted(int(r) for r in ranks) == [0] + [1] * m + [2]
    ok_sym, _ = group.lattice_bruteforce(w0)
    from coxabs.absorder import interval_of_involution, is_lattice_bruteforce

    ok_geo, _ = is_lattice_bruteforce(
        interval_of_involution(longest_element(system))
    )
    assert ok_sym == ok_geo == True  # noqa: E712


def test_odd_w0_is_a_reflection():
    group = Dihedral(5)
    w0 = group.longest_element()
    assert group.reflection_length(w0) == 1
    members, _, _ = group.interval(w0)
    assert len(members) == 2


def test_oversized_interval_is_refused_before_listing(monkeypatch):
    group = Dihedral(8)
    half_turn = group.rotation(4)
    monkeypatch.setattr(group, "involutions", lambda: pytest.fail("listed"))
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 119)  # 10 x (10 + 2) = 120
    with pytest.raises(CapExceededError):
        group.interval(half_turn)
    monkeypatch.undo()
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 120)
    assert len(group.interval(half_turn)[0]) == 10


@pytest.mark.parametrize("m", range(2, 14))
def test_interval_order_matrix_is_pairwise_leq_T(m):
    # the whole-array additivity against one leq_T call per pair
    group = Dihedral(m)
    for u in group.involutions():
        members, ranks, leq = group.interval(u)
        assert ranks.tolist() == [group.reflection_length(x) for x in members]
        assert leq.tolist() == [[group.leq_T(a, b) for b in members] for a in members]


# VmHWM starts afresh at exec; ru_maxrss would count the forking pytest's RSS
RSS_GROWTH = """
from coxabs.dihedral import Dihedral
def kib(field):
    return int(open("/proc/self/status").read().split(field)[1].split()[0])
group = Dihedral(2000)
before = kib("VmRSS:")
assert group.verdicts(group.longest_element()) == (True, True, True)
print(1024 * (kib("VmHWM:") - before))
"""


def test_symbolic_interval_stays_within_the_bytes_its_cap_counts():
    # 2002 members: the bytes the cap counts plus 4 MiB of slack
    src = os.path.dirname(os.path.dirname(rootsystem.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.check_output([sys.executable, "-c", RSS_GROWTH], env=env)
    assert int(out) <= 2002 * (2002 + 251) + 4 * 2**20


def test_closure_masks():
    # one bit per reflection axis, as Parabolic.mask has per positive root
    group = Dihedral(6)
    assert group.closure_mask(group.identity) == 0
    assert group.closure_mask(group.reflection(2)) == 0b000100
    assert group.closure_mask(group.rotation(3)) == 0b111111
    assert [group.closure_type_string(k) for k in (0, 0b100, 0b111111)] == [
        "trivial", "A1", "I2(6)"
    ]
    assert Dihedral(2).closure_type_string(0b11) == "A1 x A1"


def test_closure_masks_intersect_by_and():
    # the whole group, the axis of f1 and the axis of f5
    group = Dihedral(8)
    full, a, b = (
        group.closure_mask(x)
        for x in (group.rotation(3), group.reflection(1), group.reflection(5))
    )
    assert full & a == a
    assert a & b == 0
    assert a & a == a
    assert all(group.closure_is_involutive(k) for k in (0, a, full))
    odd = Dihedral(7)
    assert [odd.closure_is_involutive(k) for k in (0, a, 127)] == [True, True, False]


@pytest.mark.parametrize("m", [7, 8, 10])
def test_w0_facts(m):
    group = Dihedral(m)
    elements = group.all_elements()
    assert len(elements) == 2 * m
    assert sum(x.is_reflection for x in elements) == m
    w0 = group.longest_element()
    central = all(group.mul(w0, x) == group.mul(x, w0) for x in elements)
    assert central == (m % 2 == 0)
    if m % 2 == 0:
        members, _, _ = group.interval(w0)
        assert len(members) == m + 2
        assert group.reflection_length(w0) == 2
    assert group.verdicts(w0) == (True, True, True)


def test_lattice_tests_agree_on_every_involution():
    for m in (5, 6, 7, 12):
        group = Dihedral(m)
        for u in group.involutions():
            brute, _ = group.lattice_bruteforce(u)
            structural, _ = group.lattice_structural(u)
            table = group.lattice_by_classification(u)
            assert brute == structural == table
