"""Exact linear algebra: the packed integer Bareiss and the Q(phi) reference."""

import math
import random
from fractions import Fraction

import pytest

from coxabs import linalg
from coxabs.field import ONE, PHI, ZERO, FieldScalar
from coxabs.linalg import (
    PackedRows,
    Subspace,
    hadamard_bits,
    is_positive_definite,
    kernel,
    pack_row,
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
    half = FieldScalar.from_rational(1, 2)
    h3 = [[ONE, -PHI / 2, ZERO], [-PHI / 2, ONE, -half], [ZERO, -half, ONE]]
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


def test_subspace_equality_ignores_basis_choice():
    a = Subspace.from_vectors([[ONE, ONE], [ONE, ZERO]], 2)
    b = Subspace.from_vectors([[ZERO, ONE], [ONE, ZERO]], 2)
    assert a == b
    assert hash(a) == hash(b)


def test_subspace_irrational_line():
    line = Subspace.from_vectors([[ONE, PHI]], 2)
    assert line.contains([PHI, PHI + ONE])
    assert not line.contains([PHI, PHI + FieldScalar.from_rational(1, 2)])
    assert not line.contains([rational(610), rational(987)])


def echelon(matrix) -> list[list[int]]:
    """The pivot rows of the packed Bareiss (linalg._pivot_rows) on a
    matrix of ints or rationals or on PackedRows, each decoded from its
    signed fields, with zeros left of its pivot column."""
    packed = linalg._packed(matrix)
    bits, ncols = packed.bits, packed.ncols
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for col, row in linalg._pivot_rows(packed):
        entries = [0] * col
        for _ in range(col, ncols):
            x = ((row + half) & mask) - half
            entries.append(x)
            row = (row - x) >> bits
        assert row == 0
        out.append(entries)
    return out


def reference_echelon(matrix) -> list[list[int]]:
    """Bareiss elimination on lists of Python ints, one update per entry:
    the packed pivot rows' reference, row for row."""
    rows = []
    for row in matrix:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(Fraction(x) * den) for x in row])
    rows = [row for row in rows if any(row)]
    if not rows:
        return []
    ncols = len(rows[0])
    prev = 1
    r = 0
    for col in range(ncols):
        for i in range(r, len(rows)):
            if rows[i][col]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        p = top[col]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[col]
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
            elif p != prev:
                rows[i] = [p * a // prev for a in row]
        prev = p
        r += 1
        if r == len(rows):
            break
    return rows[:r]


def seeded_matrix(rng: random.Random) -> list[list]:
    """A small matrix of ints (some past 2**63) or Fractions, of low rank
    at times, with zero and duplicate rows mixed in."""
    nrows, ncols = rng.randint(0, 9), rng.randint(1, 7)
    top = rng.choice([1, 3, 50, 2**70])
    kind = rng.choice(["int", "fraction", "low rank"])

    def entry():
        x = rng.randint(-top, top) if rng.random() < 0.7 else 0
        return Fraction(x, rng.randint(1, 12)) if kind == "fraction" else x

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if kind == "low rank" and rows:
        basis = rows[: rng.randint(1, 3)]
        rows = [
            [sum(rng.randint(-2, 2) * b[k] for b in basis) for k in range(ncols)]
            for _ in range(nrows)
        ]
    for _ in range(rng.randint(0, 2)):
        if rows and rng.random() < 0.5:
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
        else:
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    return rows


def test_echelon_equals_the_list_bareiss_row_for_row():
    rng = random.Random(20240)
    shapes = set()
    for _ in range(3000):
        matrix = seeded_matrix(rng)
        expected = reference_echelon(matrix)
        assert echelon(matrix) == expected, matrix
        assert rank_rational(matrix) == len(expected)
        if matrix:
            shapes.add(len(matrix) > len(matrix[0]))
    assert shapes == {True, False}  # more rows than columns, and fewer
    assert echelon([]) == []
    assert echelon([[0, 0], [0, 0]]) == [] and rank_rational([[0, 0]]) == 0


def test_echelon_keeps_entries_past_64_bits():
    big = 2**64 + 13
    matrix = [[big, 1, 0], [big, 1, 0], [0, 0, 0], [1, big, -big], [3, 2, 1]]
    assert echelon(matrix) == reference_echelon(matrix)
    assert rank_rational(matrix) == 3


def test_packed_rows_give_the_list_echelon():
    matrix = [[2, -1, 0, 5], [0, 0, 3, -3], [4, -2, 3, 7], [-1, 0, 0, 1]]
    bits = hadamard_bits(4, 4, 7)
    packed = PackedRows([pack_row(row, bits) for row in matrix], bits, 4)
    assert echelon(packed) == echelon(matrix) == reference_echelon(matrix)
    assert rank_rational(packed) == 3


def sylvester(order: int) -> list[list[int]]:
    """The Sylvester +-1 Hadamard matrix of a power-of-two order."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("order", [8, 16])
def test_width_holds_the_hadamard_extreme(order):
    # |det| = order ** (order / 2) reaches Hadamard's bound, and Bareiss
    # leaves the determinant as the last pivot
    sympy = pytest.importorskip("sympy")
    h = sylvester(order)
    rows = echelon(h)
    assert len(rows) == rank_rational(h) == sympy.Matrix(h).rank() == order
    assert abs(rows[-1][-1]) == order ** (order // 2)
    assert rows == reference_echelon(h)
    # a row of the matrix appended twice leaves the rank
    assert rank_rational(h + h[:2]) == sympy.Matrix(h + h[:2]).rank() == order
