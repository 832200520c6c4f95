"""The order structure laws against spoiled references, and the integer
criterion c against the FieldScalar containment it stands for."""

import numpy as np
import pytest

from coxabs import verify
from coxabs.element import Element, enumerate_group, from_word
from coxabs.field import FieldScalar
from coxabs.linalg import Subspace
from coxabs.rootsystem import RootSystem


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
        "coxabs.linalg.echelon",
        "coxabs.linalg.annihilator",
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
