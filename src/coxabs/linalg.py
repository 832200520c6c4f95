"""Exact linear algebra: a packed-row integer Bareiss and a Q(phi) reference.

Production ranks run on plain ints: rank_rational() counts the pivots of
Bareiss elimination over Q on rows packed one Python int each
(PackedRows), in signed fields of one width from Hadamard's bound.  No
closure eliminates: parabolic reads every closure off orbit sums.  The
FieldScalar rank, rref, kernel and Subspace work over Q(phi),
fraction free with one normalization pass at the end, and are the
reference the tests and verify compare against.  A Subspace is kept in
reduced row echelon form, so equality is a tuple comparison and
membership one pass of elimination against its rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .field import FieldScalar, ZERO, ONE


def _forward_eliminate(rows: list[list[FieldScalar]]) -> list[int]:
    """In-place fraction-free forward elimination.

    Returns the list of pivot column indices; on return rows[k] has its
    pivot in column pivots[k] and zeros below every pivot.  Zero rows sink
    to the bottom.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                ri, rr = rows[i], rows[r]
                rows[i] = [p * ri[k] - f * rr[k] for k in range(ncols)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(matrix: list[list[FieldScalar]]) -> int:
    """Exact rank."""
    rows = [list(row) for row in matrix]
    return len(_forward_eliminate(rows))


def rref(matrix) -> list[list[FieldScalar]]:
    """Reduced row echelon form with zero rows dropped.

    Pivots are normalized to 1 and cleared above, so the result is the
    canonical basis of the row space.
    """
    rows = [list(row) for row in matrix]
    pivots = _forward_eliminate(rows)
    rows = rows[: len(pivots)]
    ncols = len(matrix[0]) if matrix else 0
    for k in range(len(pivots) - 1, -1, -1):
        col = pivots[k]
        inv = rows[k][col].invert()
        rows[k] = [v * inv for v in rows[k]]
        for i in range(k):
            f = rows[i][col]
            if f:
                ri, rk = rows[i], rows[k]
                rows[i] = [ri[c] - f * rk[c] for c in range(ncols)]
    return rows


def kernel(matrix: list[list[FieldScalar]]) -> list[list[FieldScalar]]:
    """Canonical basis of the right null space {x : matrix @ x = 0}.

    One basis vector per free column, with a 1 in that column; this is the
    standard basis read off the reduced echelon form.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    reduced = rref(matrix)
    pivot_cols = []
    for row in reduced:
        for c, v in enumerate(row):
            if v:
                pivot_cols.append(c)
                break
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for k, pc in enumerate(pivot_cols):
            vec[pc] = -reduced[k][free]
        basis.append(vec)
    return basis


def dot(gram, u, v) -> FieldScalar:
    """Bilinear form value u^T gram v."""
    total = ZERO
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = gram[i]
        for j, vj in enumerate(v):
            if vj:
                total = total + ui * row[j] * vj
    return total


def is_positive_definite(gram) -> bool:
    """Exact positive-definiteness by symmetric (Lagrange) elimination.

    A reference: builds name the diagram instead.  Every pivot, each step
    passing to the Schur complement, must be positive.
    """
    work = [list(row) for row in gram]
    n = len(work)
    for k in range(n):
        d = work[k][k]
        if d.sign() <= 0:
            return False
        dinv = d.invert()
        for i in range(k + 1, n):
            f = work[i][k]
            if f:
                scale = f * dinv
                wi, wk = work[i], work[k]
                work[i] = [wi[c] - scale * wk[c] for c in range(n)]
    return True


class PackedRows(NamedTuple):
    """Integer rows, one Python int each (pack_row), in fields of a width
    bits that holds every minor of the matrix (hadamard_bits)."""

    rows: list[int]
    bits: int
    ncols: int


def hadamard_bits(nrows: int, ncols: int, largest: int) -> int:
    """A field width for every minor of an nrows x ncols matrix of ints of
    absolute value at most largest: 2 ** ceil(L / 2) passes Hadamard's bound
    (sqrt(ncols) * largest) ** min(nrows, ncols), L the bit length of its
    square; add a sign bit and one of headroom."""
    square = (ncols * largest * largest) ** min(nrows, ncols)
    return (square.bit_length() + 1) // 2 + 2


def pack_row(row, bits: int) -> int:
    """Sum of row[k] * 2 ** (bits * k): signed fields, column 0 lowest.
    Packing is linear while the entries fit their fields."""
    return sum(x << bits * k for k, x in enumerate(row) if x)


def _packed(matrix) -> PackedRows:
    """PackedRows as they are; a matrix of ints or rationals scaled to
    integers row by row, at the width its own entries need."""
    if isinstance(matrix, PackedRows):
        return matrix
    rows = []
    for row in matrix:
        # a row of ints sums to an int, a Fraction anywhere makes the sum one
        den = 1 if type(sum(row)) is int else math.lcm(*(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
    ncols = len(rows[0]) if rows else 0
    largest = max((abs(x) for row in rows for x in row), default=0)
    bits = hadamard_bits(len(rows), ncols, largest)
    return PackedRows([pack_row(row, bits) for row in rows], bits, ncols)


def _pivot_rows(packed: PackedRows) -> list[tuple[int, int]]:
    """Bareiss elimination over Q (Math. Comp. 22, 1968) on packed rows:
    (column, row) per pivot, the row packed from its pivot column on.

    The update of a whole row (p * R - f * T) // prev is exact, each field
    being divisible by prev, and leaves minors of the input, which the
    width holds, so p and f decode exactly; a factor f = 0 still rescales
    the row, for the later divisions.  The pivot column is always the
    lowest field: every row left shifts down one field after a pivot, and
    every row when a column has none."""
    rows = [row for row in packed.rows if row]
    bits = packed.bits
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out, prev = [], 1
    for col in range(packed.ncols):
        for i, top in enumerate(rows):
            if top & mask:
                break
        else:
            rows = [row >> bits for row in rows]
            continue
        rows[i] = rows[0]  # the swap; the rows left are rows[1:]
        p = ((top + half) & mask) - half
        step = prev << bits  # divide by prev and shift in one step
        rows = [
            (p * row - (((row + half) & mask) - half) * top) // step
            for row in rows[1:]
        ]
        out.append((col, top))
        prev = p
    return out


def rank_rational(matrix) -> int:
    """Exact rank over Q of a matrix of ints or rationals, or of
    PackedRows: the number of pivots, never unpacked."""
    return len(_pivot_rows(_packed(matrix)))


class Subspace:
    """A linear subspace held as a canonical reduced-echelon basis.

    Equality of subspaces is equality of the canonical bases, so Subspace
    objects can sit in sets and dict keys.
    """

    __slots__ = ("basis", "ambient_dim")

    def __init__(self, basis: tuple, ambient_dim: int):
        self.basis = basis
        self.ambient_dim = ambient_dim

    @staticmethod
    def from_vectors(vectors, ambient_dim: int | None = None) -> Subspace:
        vectors = list(vectors)
        if ambient_dim is None:
            if not vectors:
                raise ValueError("need vectors or an explicit ambient dimension")
            ambient_dim = len(vectors[0])
        if not vectors:
            return Subspace((), ambient_dim)
        reduced = rref(vectors)
        return Subspace(tuple(tuple(row) for row in reduced), ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        """Membership test by elimination against the echelon basis."""
        residue = list(vec)
        for row in self.basis:
            lead = next(c for c, v in enumerate(row) if v)
            f = residue[lead]
            if f:
                residue = [residue[c] - f * row[c] for c in range(len(residue))]
        return not any(residue)

    def contains_subspace(self, other: Subspace) -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
