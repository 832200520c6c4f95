"""Exact linear algebra over Q(phi)."""

from coxabs.field import HALF, ONE, PHI, ZERO, FieldScalar
from coxabs.linalg import (
    Subspace,
    is_positive_definite,
    kernel,
    rank,
    rank_rational,
    rref,
)


def rational(num, den=1):
    return FieldScalar.from_rational(num, den)


def test_rank_basic():
    assert rank([[ONE, ZERO], [ZERO, ONE]]) == 2
    assert rank([[ONE, ONE], [ONE, ONE]]) == 1
    assert rank([[ZERO, ZERO]]) == 0
    # irrational dependency: row2 = phi * row1, since phi^2 = phi + 1
    assert rank([[ONE, PHI], [PHI, PHI + ONE]]) == 1
    # and a near miss: F(16)/F(15) is within 1e-6 of phi
    assert rank([[ONE, PHI], [rational(610), rational(987)]]) == 2


def test_rref_identity_block():
    reduced = rref([[rational(2), ZERO], [ZERO, rational(3)]])
    assert reduced == [[ONE, ZERO], [ZERO, ONE]]


def test_kernel_vectors_annihilate():
    matrix = [[ONE, ONE, ZERO], [ZERO, ONE, ONE]]
    basis = kernel(matrix)
    assert len(basis) == 1
    for row in matrix:
        total = ZERO
        for a, b in zip(row, basis[0]):
            total = total + a * b
        assert not total


def test_kernel_of_full_rank_matrix_is_empty():
    assert kernel([[ONE, ZERO], [ZERO, ONE]]) == []


def test_positive_definite_gram():
    # the Cartan-normalized bond-4 gram matrix, and the bond-5 one
    assert is_positive_definite([[ONE, -ONE], [-ONE, rational(2)]])
    gram = [[ONE, -PHI / 2], [-PHI / 2, ONE]]
    assert is_positive_definite(gram)
    # bond 5 next to bond 3 in rank 3 (H3) is definite, a second
    # bond 5 instead is not
    h3 = [[ONE, -PHI / 2, ZERO], [-PHI / 2, ONE, -HALF], [ZERO, -HALF, ONE]]
    assert is_positive_definite(h3)
    h5h5 = [[ONE, -PHI / 2, ZERO], [-PHI / 2, ONE, -PHI / 2], [ZERO, -PHI / 2, ONE]]
    assert not is_positive_definite(h5h5)


def test_semidefinite_gram_rejected():
    # bond infinity degenerates: det = 0
    gram = [[ONE, -ONE], [-ONE, ONE]]
    assert not is_positive_definite(gram)
    # indefinite
    gram = [[ONE, -rational(2)], [-rational(2), ONE]]
    assert not is_positive_definite(gram)


def test_rank_rational_agrees_with_generic_rank():
    matrix = [
        [rational(1), rational(2), rational(3)],
        [rational(2), rational(4), rational(6)],
        [rational(0), rational(1), rational(1)],
    ]
    coords = [[x.coords[0] for x in row] for row in matrix]
    assert rank_rational(coords) == rank(matrix) == 2


def test_subspace_membership():
    vecs = [[ONE, ZERO, ONE], [ZERO, ONE, ZERO]]
    space = Subspace.from_vectors(vecs, 3)
    assert space.dim == 2
    assert space.contains([ONE, ONE, ONE])
    assert not space.contains([ONE, ZERO, ZERO])


def test_subspace_intersection():
    # two planes in 3-space meet in a line
    xy = Subspace.from_vectors([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]], 3)
    yz = Subspace.from_vectors([[ZERO, ONE, ZERO], [ZERO, ZERO, ONE]], 3)
    line = xy.intersect(yz)
    assert line.dim == 1
    assert line.contains([ZERO, ONE, ZERO])
    assert xy.contains_subspace(line)
    assert yz.contains_subspace(line)


def test_subspace_sum_and_dimension_formula():
    a = Subspace.from_vectors([[ONE, ZERO, ZERO]], 3)
    b = Subspace.from_vectors([[HALF, HALF, ZERO]], 3)
    total = a.sum(b)
    assert total.dim == 2
    assert a.intersect(b).dim == 0
    assert total.contains([ZERO, ONE, ZERO])


def test_subspace_equality_ignores_basis_choice():
    a = Subspace.from_vectors([[ONE, ONE], [ONE, ZERO]], 2)
    b = Subspace.from_vectors([[ZERO, ONE], [ONE, ZERO]], 2)
    assert a == b
    assert hash(a) == hash(b)


def test_subspace_irrational_line():
    line = Subspace.from_vectors([[ONE, PHI]], 2)
    assert line.contains([PHI, PHI + ONE])
    assert not line.contains([PHI, PHI + HALF])
    assert not line.contains([rational(610), rational(987)])
