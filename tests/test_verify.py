"""The order structure laws against spoiled references, the integer
criterion c against the FieldScalar containment it stands for, and each
check failing through the lines it yields when one of its inputs is spoiled."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from coxabs import verify
from coxabs.dihedral import Dihedral
from coxabs.element import Element, enumerate_group, from_word
from coxabs.field import FieldScalar
from coxabs.linalg import Subspace
from coxabs.rootsystem import RootSystem

# the deep run's lines of every check
GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())


def test_a_spoiled_fixed_space_fails_the_split_and_the_three_way_laws(monkeypatch):
    system = RootSystem.named("B3")
    spoiled = from_word(system, [0])  # a reflection: its fixed space is a plane
    reference = Element.fixed_space
    monkeypatch.setattr(
        Element,
        "fixed_space",
        lambda w: Subspace((), system.rank) if w == spoiled else reference(w),
    )
    failures, _ = verify._order_law_failures(system)
    key = spoiled.perm[None, system.simple_idx]
    spoiled_id = int(enumerate_group(system).ids_of_images(key)[0])
    assert any("no direct sum split" in f for f in failures)
    assert any("three-way interval criteria" in f for f in failures)
    assert all(f.split(":")[0].endswith(f",{spoiled_id}") for f in failures)


def test_spoiled_membership_labels_fail_the_three_way_law(monkeypatch):
    # drop the last simple root of each closure from the orbit's generators
    system = RootSystem.named("B3")
    labels = verify.orbit_labels
    monkeypatch.setattr(verify, "orbit_labels", lambda rows: labels(rows[:-1] or rows))
    failures, _ = verify._order_law_failures(system)
    assert failures
    law = "three-way interval criteria True/False/True"
    assert all(f.endswith(law) for f in failures)


@pytest.mark.parametrize("name", ["B3", "D4", "F4", "H3"])
def test_integer_criterion_c_is_the_fieldscalar_containment(name, monkeypatch):
    # criterion c stays independent of the production closure route
    def refuse(*args):
        raise AssertionError("criterion c reached the closure route")

    for route in (
        "coxabs.parabolic._zero_sum_cycles",
        "coxabs.linalg.rank_rational",
        "coxabs.parabolic.involution_masks",
    ):
        monkeypatch.setattr(route, refuse)
    system = RootSystem.named(name)
    enum = enumerate_group(system)
    invols = [enum.element(i) for i in enum.involution_ids()]
    fixes = verify._pointwise_fixers(system, np.array([v.perm for v in invols]))
    fixed = [v.fixed_space() for v in invols]
    held = 0
    for fix_u in fixed:
        want = [fix_v.contains_subspace(fix_u) for fix_v in fixed]
        assert fixes(fix_u.basis).tolist() == want
        held += sum(want)
    assert len(invols) < held < len(invols) ** 2


def test_integer_criterion_c_leaves_int64_for_wide_vectors():
    # scaled by 3^41 / 2 the cleared vectors no longer fit int64, so the
    # products run on Python ints, and scaling changes no verdict
    system = RootSystem.named("B3")
    enum = enumerate_group(system)
    perms = enum.perms[enum.involution_ids()]
    fixes = verify._pointwise_fixers(system, perms)
    wide = FieldScalar.from_rational(3**41, 2)
    for v in perms:
        basis = Element(system, v).fixed_space().basis
        scaled = [[c * wide for c in x] for x in basis]
        assert fixes(scaled).tolist() == fixes(basis).tolist()


def test_every_registered_check_body_is_a_generator():
    bodies = [check.__wrapped__ for _, check, _ in verify.ALL_CHECKS]
    assert bodies and all(inspect.isgeneratorfunction(body) for body in bodies)


def test_a_disagreeing_symbolic_route_fails_lattice_positives(monkeypatch):
    verdicts = Dihedral.verdicts
    monkeypatch.setattr(
        Dihedral,
        "verdicts",
        lambda group, u: (True, True, False) if group.m == 4 else verdicts(group, u),
    )
    result = verify.check_lattice_positives()
    lines = list(GOLDEN["lattice positives"])
    lines.insert(1, "I2(4): symbolic route disagrees: (True, True, False)")
    assert result.passed is False
    assert result.lines == lines


def test_a_wrong_witness_fails_lattice_negatives(monkeypatch):
    witness = verify.counterexample_witness
    monkeypatch.setattr(
        verify, "counterexample_witness", lambda name: witness(name.replace("F4", "D6"))
    )
    result = verify.check_lattice_negatives()
    lines = list(GOLDEN["lattice negatives and witnesses"])
    lines[1] = lines[1].replace("intersection=A2", "intersection=A3")
    assert result.passed is False
    assert result.lines == lines


@pytest.mark.parametrize(
    "spoiled,shown",
    [
        ([(1, 0, 1, 0)], [(1, 0, 1, 0)]),
        # five failures, the first three in search order on show
        ([(0, 1, 0), (0,), (1,), (1, 0, 1), (1, 0, 1, 0)], [(0, 1, 0), (0,), (1,)]),
    ],
)
def test_spoiled_verdicts_fail_the_classification_sweep(monkeypatch, spoiled, shown):
    # flip the order-matrix verdict on the given involutions of B2
    verdicts = verify.lattice_verdicts

    def flipped(u):
        (brute, structural, classified), failure = verdicts(u)
        if str(u.system.label) == "B2" and u.reduced_word() in spoiled:
            brute = not brute
        return (brute, structural, classified), failure

    monkeypatch.setattr(verify, "lattice_verdicts", flipped)
    result = verify.check_classification_sweep()
    lines = [line for line in GOLDEN["classification sweep"] if line[:3] != "E6:"]
    at = lines.index("B2: 6 involutions, 6 lattice intervals, 0 disagreements")
    lines[at : at + 1] = [
        *(
            f"B2: disagreement at involution with word {word}: "
            "brute=False structural=True table=True"
            for word in shown
        ),
        f"B2: 6 involutions, 6 lattice intervals, {len(spoiled)} disagreements",
    ]
    assert result.passed is False
    assert result.lines == [*lines, "E6 skipped (enable deep)"]


def test_split_orbits_fail_the_hurwitz_check(monkeypatch):
    # every expression its own orbit
    monkeypatch.setattr(
        verify, "hurwitz_orbits", lambda system, exprs: [[e] for e in exprs]
    )
    result = verify.check_hurwitz_b2()
    pairs = [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert result.passed is False
    assert result.lines == [
        *(f"orbit [{pair}] is not one pair's orderings" for pair in pairs),
        "4 expressions, 4 orbits: {(0, 3)}; {(1, 2)}; {(2, 1)}; {(3, 0)}",
    ]


def test_a_spoiled_inverse_fails_the_field_kernel(monkeypatch):
    # x^-1 = x whenever the phi coordinate of x is 0
    invert = FieldScalar.invert
    monkeypatch.setattr(
        FieldScalar, "invert", lambda x: x if x.coords[1] == 0 else invert(x)
    )
    result = verify.check_field_kernel(trials=50)
    assert result.passed is False
    assert result.lines == ["50 trials, 6 failures", "trial 4: x=-4 y=1 - 3*phi"]
