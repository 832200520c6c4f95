"""The type table, involution factorization, and explicit witness pairs."""

import numpy as np
import pytest

from coxabs.absorder import leq_T
from coxabs.classify import (
    counterexample_witness,
    decompose_involution,
    dihedral_involution_class_table,
    has_central_minus_id,
    involution_class_table,
    is_good_type,
    lattice_by_classification,
)
from coxabs.dihedral import Dihedral
from coxabs.element import identity, longest_element, reflection, simple_reflection
from coxabs.parabolic import parabolic_closure
from coxabs.rootsystem import RootSystem, parse_label

MINUS_ID_TABLE = [
    ("A1", True),
    ("A2", False),
    ("A3", False),
    ("A5", False),
    ("B2", True),
    ("B5", True),
    ("D4", True),
    ("D5", False),
    ("D6", True),
    ("E6", False),
    ("E7", True),
    ("E8", True),
    ("F4", True),
    ("H3", True),
    ("H4", True),
    ("I2(5)", False),
    ("I2(6)", True),
    ("I2(7)", False),
    ("I2(8)", True),
]


@pytest.mark.parametrize("name,expected", MINUS_ID_TABLE)
def test_minus_id_table(name, expected):
    assert has_central_minus_id(parse_label(name)) == expected


GOOD_TABLE = [
    ("A1", True),
    ("B2", True),
    ("B3", True),
    ("B6", True),
    ("D4", True),
    ("D6", False),
    ("D8", False),
    ("E7", False),
    ("E8", False),
    ("F4", False),
    ("H3", True),
    ("H4", False),
    ("I2(6)", True),
    ("I2(8)", True),
    ("I2(30)", True),
]


@pytest.mark.parametrize("name,expected", GOOD_TABLE)
def test_good_type_table(name, expected):
    assert is_good_type(parse_label(name)) == expected


def test_lattice_by_classification_on_elements():
    b3 = RootSystem.named("B3")
    assert lattice_by_classification(longest_element(b3))
    assert lattice_by_classification(identity(b3))
    assert lattice_by_classification(reflection(b3, 0))
    d6 = RootSystem.named("D6")
    assert not lattice_by_classification(longest_element(d6))


def test_decompose_w0_a3():
    system = RootSystem.named("A3")
    factorization = decompose_involution(longest_element(system))
    assert len(factorization.factors) == 2
    assert all(str(f.label) == "A1" for f in factorization.factors)
    assert factorization.product() == longest_element(system)
    assert factorization.factor_lengths_add()
    assert factorization.factors_commute()


def test_decompose_irreducible_top_is_a_single_factor():
    system = RootSystem.named("B3")
    factorization = decompose_involution(longest_element(system))
    assert len(factorization.factors) == 1
    assert str(factorization.factors[0].label) == "B3"


def test_decompose_identity_is_empty():
    system = RootSystem.named("A2")
    factorization = decompose_involution(identity(system))
    assert factorization.factors == ()
    assert factorization.product() == identity(system)


def test_decompose_rejects_non_involutions():
    from coxabs.element import from_word

    with pytest.raises(ValueError):
        decompose_involution(from_word(RootSystem.named("A2"), [0, 1]))


ALL_NAMED = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "B5",
    "D4", "D5", "D6",
    "E6", "E7", "E8",
    "F4", "H3", "H4",
    "I2(5)", "I2(6)", "I2(7)", "I2(12)",
]


@pytest.mark.parametrize("name", ALL_NAMED)
def test_involutive_list_matches_table(name):
    # w0 = -Id four ways; bond labels past 6 leave Q(phi) and run symbolically
    label = parse_label(name)
    if label.family == "I" and label.bond > 6:
        g = Dihedral(label.bond)
        w0 = g.longest_element()
        central = all(g.mul(w0, s) == g.mul(s, w0) for s in g.generators)
        minus_id = w0 == g.rotation(g.m // 2)
        full = g.closure_mask(w0) == (1 << g.m) - 1
        below = all(g.leq_T(g.reflection(j), w0) for j in range(g.m))
    else:
        system = RootSystem.named(label)
        w0, n_pos = longest_element(system), system.n_pos
        gens = [simple_reflection(system, s) for s in range(system.rank)]
        central = all(w0 * s == s * w0 for s in gens)
        minus_id = (w0.perm == (np.arange(2 * n_pos) + n_pos) % (2 * n_pos)).all()
        full = parabolic_closure(w0).mask == (1 << n_pos) - 1
        below = all(leq_T(reflection(system, t), w0) for t in range(n_pos))
    assert [central, minus_id, full, below] == [has_central_minus_id(label)] * 4


WITNESS_TYPES = [
    ("D6", "A3"),
    ("D8", "A3"),
    ("E7", "A3"),
    ("E8", "A3"),
    ("F4", "A2"),
    ("H4", "I2(5)"),
]


@pytest.mark.parametrize("name,expected", WITNESS_TYPES)
def test_counterexample_witnesses(name, expected):
    witness = counterexample_witness(name)
    assert witness.is_valid()
    assert witness.intersection_matches()
    assert [str(t) for t in witness.intersection.type_labels] == [expected]
    # both halves really sit inside the system and are conjugate
    assert witness.p1.size == witness.p2.size
    assert name in witness.describe() or witness.system.describe() == name


def test_counterexample_witness_rejects_good_types():
    with pytest.raises(ValueError):
        counterexample_witness("B4")
    with pytest.raises(ValueError):
        counterexample_witness("A3")  # w0 is not -Id there


def test_involution_class_table_b3():
    rows = involution_class_table(RootSystem.named("B3"))
    assert [r["reflection_length"] for r in rows] == sorted(
        r["reflection_length"] for r in rows
    )
    assert rows[0]["t_word"] == ()
    assert rows[0]["class_size"] == 1
    assert sum(r["class_size"] for r in rows) == 20
    assert all(
        r["is_lattice_bruteforce"]
        == r["is_lattice_structural"]
        == r["is_lattice_by_classification"]
        for r in rows
    )
    # the long element of B3 is its own class
    assert rows[-1]["closure_type"] == "B3"


def test_dihedral_class_table_even():
    rows = dihedral_involution_class_table(8)
    assert len(rows) == 4
    assert sum(r["class_size"] for r in rows) == 10
    assert rows[-1]["closure_type"] == "I2(8)"
    assert all(
        r["is_lattice_bruteforce"]
        == r["is_lattice_structural"]
        == r["is_lattice_by_classification"]
        for r in rows
    )


def test_dihedral_class_table_odd():
    rows = dihedral_involution_class_table(7)
    assert len(rows) == 2
    assert rows[1]["class_size"] == 7
    assert rows[1]["closure_type"] == "A1"


def test_dihedral_table_agrees_with_geometric_table():
    symbolic = dihedral_involution_class_table(6)
    geometric = involution_class_table(RootSystem.named("I2(6)"))
    assert len(symbolic) == len(geometric)
    for s, g in zip(symbolic, geometric):
        assert s["class_size"] == g["class_size"]
        assert s["reflection_length"] == g["reflection_length"]
        assert s["is_lattice_bruteforce"] == g["is_lattice_bruteforce"]
