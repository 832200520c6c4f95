"""Exact linear algebra: an integer Bareiss echelon and a Q(phi) reference.

Production ranks and spans run on plain ints: echelon() is Bareiss
elimination over Q, rank_rational() counts its rows and annihilator()
gives an integer basis of their null space; roots enter as
RootSystem.int_rows.  The FieldScalar rank, rref, kernel and Subspace
work over Q(phi), fraction free with one normalization pass at the end,
and are the reference the tests and verify compare against.  A Subspace
is kept in reduced row echelon form, so equality is a tuple comparison.
"""

from __future__ import annotations

import bisect
import math
import operator

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


def _integer_row(row) -> list[int]:
    """The row scaled by the lcm of its denominators, as Python ints."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def echelon(matrix) -> list[list[int]]:
    """Row echelon form over Q of a matrix of ints or rationals, on ints.

    Bareiss elimination (Math. Comp. 22, 1968) on Python ints: each row is
    first scaled to integers, and every update divides exactly by the
    previous pivot, so the entries stay minors of the input and never need
    a gcd.  Rows with a zero in the pivot column are still rescaled by
    p / prev, which keeps the later divisions exact.  Returns the nonzero
    rows, each with its first nonzero entry in its own pivot column.
    """
    # a row of ints sums to an int, a Fraction anywhere makes the sum one
    rows = [row if type(sum(row)) is int else _integer_row(row) for row in matrix]
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


def rank_rational(matrix) -> int:
    """Exact rank of a matrix of ints or rationals, over Q."""
    return len(echelon(matrix))


def annihilator(basis, ncols: int) -> list[list[int]]:
    """Integer basis of the null space of basis, an echelon() result: one
    vector per free column, by back substitution that scales the vector by
    p / gcd(s, p) so that a pivot entry s / p is an integer, then divides
    out the vector's gcd."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        # pivots right of f get zeros, and vec is zero right of f
        for k in range(bisect.bisect(pivots, f) - 1, -1, -1):
            row, c = basis[k], pivots[k]
            s = -sum(map(operator.mul, row[c + 1 : f + 1], vec[c + 1 : f + 1]))
            if s:
                p = row[c]
                g = math.gcd(s, p)
                if p != g:
                    vec = [x * (p // g) for x in vec]
                vec[c] = s // g
        g = math.gcd(*vec)
        out.append([x // g for x in vec] if g != 1 else vec)
    return out


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

    def intersect(self, other: Subspace) -> Subspace:
        """Zassenhaus block elimination."""
        n = self.ambient_dim
        block = []
        for u in self.basis:
            block.append(list(u) + list(u))
        for w in other.basis:
            block.append(list(w) + [ZERO] * n)
        _forward_eliminate(block)
        inter = []
        for row in block:
            if not any(row[:n]) and any(row[n:]):
                inter.append(row[n:])
        return Subspace.from_vectors(inter, n) if inter else Subspace((), n)

    def sum(self, other: Subspace) -> Subspace:
        return Subspace.from_vectors(
            [list(v) for v in self.basis + other.basis], self.ambient_dim
        )

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
