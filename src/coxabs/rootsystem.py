"""Finite Coxeter systems and their root systems, built exactly.

The roots are Cartan-normalized (Humphreys, Reflection Groups and Coxeter
Groups, 1990, chapter 2): across a bond m of 4 or 6 the squared lengths
of the two simple roots differ by the factor 2 or 3, and are equal
otherwise.  Then B(a_i, a_j) = -cos(pi/m) |a_i| |a_j| is a rational
multiple of the shorter squared length, or phi/2 times it for m = 5, so
the Cartan entries lie in Z[phi] and so does every root coordinate in the
simple-root basis.  The build reflects those coordinates as integer pairs
(a, b) = a + b*phi, each reflection becomes a permutation of root
indices, and all later questions about the group reduce to integer
permutation work plus exact integer rank computations; the FieldScalar
roots and the form are a view kept for the reference.

Numbering conventions for the named types:

    A_n   path s1 - s2 - ... - sn
    B_n   path with the 4-bond between s_{n-1} and s_n
    D_n   fork: s1 and s2 both attached to s3, then chain s3 - ... - s_n
    E_n   chain s1 - s3 - s4 - ... - s_n with s2 attached to s4
    F_4   path with bonds 3, 4, 3
    H_3, H_4   path with the 5-bond between s1 and s2
    I2(m) two generators with bond m

Across a 4- or 6-bond the later generator gets the longer root.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

import numpy as np

from . import linalg
from .field import FieldScalar, ZERO, ONE, HALF, PHI

#: largest reflection table (n_pos x n_roots int32 entries) a build will
#: allocate, in bytes: A100 needs about 204 MB, A107 is the last A_n admitted
TABLE_CAP_BYTES = 256 * 2**20


class CoxeterError(Exception):
    """Base class for errors raised by this package."""


class InfiniteTypeError(CoxeterError):
    """The Coxeter matrix does not define a finite group."""


class UnsupportedBondError(CoxeterError):
    """A bond label above 6 cannot be represented in the field Q(phi)."""


class CapExceededError(CoxeterError):
    """An enumeration grew past its configured cap."""


class RecognitionError(CoxeterError):
    """A diagram did not match any finite type (internal inconsistency)."""


# ----------------------------------------------------------------------
# type labels


@dataclasses.dataclass(frozen=True, order=True)
class TypeLabel:
    """An irreducible finite type: family letter, rank, and dihedral bond.

    The bond field is 0 except for family "I", where it holds m.  Labels
    are normalized on creation: I2(3) is A2 and I2(4) is B2.
    """

    family: str
    rank: int
    bond: int = 0

    def __str__(self) -> str:
        if self.family == "I":
            return f"I2({self.bond})"
        return f"{self.family}{self.rank}"


def make_label(family: str, rank: int, bond: int = 0) -> TypeLabel:
    """Validated, normalized TypeLabel constructor."""
    if family == "I":
        if rank != 2 or bond < 3:
            raise ValueError(f"invalid dihedral label I{rank}({bond})")
        if bond == 3:
            return TypeLabel("A", 2)
        if bond == 4:
            return TypeLabel("B", 2)
        return TypeLabel("I", 2, bond)
    valid = {
        "A": rank >= 1,
        "B": rank >= 2,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "H": rank in (3, 4),
    }
    if not valid.get(family, False):
        raise ValueError(f"invalid type label {family}{rank}")
    return TypeLabel(family, rank, bond=0)


_LABEL_RE = re.compile(r"^([ABDEFH])(\d+)$")
_DIHEDRAL_RE = re.compile(r"^I2\((\d+)\)$")


def parse_label(text: str) -> TypeLabel:
    """Parse labels like "A3", "B4", "H3", "I2(8)".  "G2" means I2(6)."""
    text = text.strip()
    if text == "G2":
        return make_label("I", 2, 6)
    m = _LABEL_RE.match(text)
    if m:
        return make_label(m.group(1), int(m.group(2)))
    m = _DIHEDRAL_RE.match(text)
    if m:
        return make_label("I", 2, int(m.group(1)))
    raise ValueError(f"unrecognized type label: {text!r}")


def format_type_multiset(labels) -> str:
    """Render a multiset of irreducible labels, e.g. "A1 x A1 x B2"."""
    parts = [str(l) for l in sorted(labels)]
    return " x ".join(parts) if parts else "trivial"


# ----------------------------------------------------------------------
# Coxeter matrices


@dataclasses.dataclass(frozen=True)
class CoxeterMatrix:
    """A symmetric integer matrix with 1 on the diagonal, entries >= 2 off it."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("Coxeter matrix must be square")
            for j, m in enumerate(row):
                if not isinstance(m, int):
                    raise ValueError("Coxeter matrix entries must be integers")
                if i == j:
                    if m != 1:
                        raise ValueError("diagonal entries must be 1")
                elif m < 2:
                    raise ValueError("off-diagonal entries must be at least 2")
                elif self.rows[j][i] != m:
                    raise ValueError("Coxeter matrix must be symmetric")

    @staticmethod
    def from_rows(rows) -> CoxeterMatrix:
        return CoxeterMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def from_text(text: str) -> CoxeterMatrix:
        """Parse the plain text format: first line the rank n, then n rows."""
        tokens = text.split()
        if not tokens:
            raise ValueError("empty matrix description")
        n = int(tokens[0])
        if n < 1:
            raise ValueError("rank must be positive")
        if len(tokens) != 1 + n * n:
            raise ValueError(
                f"expected {n * n} entries after the rank, got {len(tokens) - 1}"
            )
        vals = [int(t) for t in tokens[1:]]
        rows = [tuple(vals[i * n : (i + 1) * n]) for i in range(n)]
        return CoxeterMatrix(tuple(rows))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def max_bond(self) -> int:
        if self.rank == 1:
            return 1
        return max(
            self.rows[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
            if i != j
        )

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]


def named_coxeter_matrix(label) -> CoxeterMatrix:
    """The Coxeter matrix of a named irreducible type."""
    if isinstance(label, str):
        label = parse_label(label)
    n = label.rank
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1

    def bond(i: int, j: int, m: int) -> None:
        rows[i][j] = rows[j][i] = m

    fam = label.family
    if fam == "A":
        for i in range(n - 1):
            bond(i, i + 1, 3)
    elif fam == "B":
        for i in range(n - 1):
            bond(i, i + 1, 3)
        bond(n - 2, n - 1, 4)
    elif fam == "D":
        bond(0, 2, 3)
        bond(1, 2, 3)
        for i in range(2, n - 1):
            bond(i, i + 1, 3)
    elif fam == "E":
        bond(0, 2, 3)
        bond(1, 3, 3)
        for i in range(2, n - 1):
            bond(i, i + 1, 3)
    elif fam == "F":
        bond(0, 1, 3)
        bond(1, 2, 4)
        bond(2, 3, 3)
    elif fam == "H":
        bond(0, 1, 5)
        for i in range(1, n - 1):
            bond(i, i + 1, 3)
    elif fam == "I":
        bond(0, 1, label.bond)
    else:  # pragma: no cover - make_label already validated
        raise ValueError(f"unknown family {fam}")
    return CoxeterMatrix.from_rows(rows)


# ----------------------------------------------------------------------
# root systems

#: per bond m: the squared-length ratio of the two simple roots across it,
#: and k_m with B(a_i, a_j) = -k_m * min(B(a_i, a_i), B(a_j, a_j))
_BOND_FORM = {
    2: (1, ZERO),
    3: (1, HALF),
    4: (2, ONE),
    5: (1, PHI / 2),
    6: (3, FieldScalar.from_rational(3, 2)),
}


def _squared_lengths(matrix: CoxeterMatrix) -> list[Fraction]:
    """Squared lengths of the simple roots, Cartan-normalized.

    The first generator of each component gets 1, and the lengths spread
    along the bonds of the Coxeter graph with the ratios of _BOND_FORM,
    the later generator of a bond getting the longer root.  The graph of
    a finite type is a forest; a cycle whose ratios conflict is rejected
    as infinite (every cycle of bonds is).
    """
    n = matrix.rank
    lengths: list = [None] * n
    for first in range(n):
        if lengths[first] is not None:
            continue
        lengths[first] = Fraction(1)
        stack = [first]
        while stack:
            i = stack.pop()
            for j in range(n):
                m = matrix.entry(i, j)
                if j == i or m == 2:
                    continue
                ratio = _BOND_FORM[m][0]
                want = lengths[i] * ratio if j > i else lengths[i] / ratio
                if lengths[j] is None:
                    lengths[j] = want
                    stack.append(j)
                elif lengths[j] != want:
                    raise InfiniteTypeError(
                        "root lengths conflict around a cycle of the "
                        "Coxeter graph: this matrix defines an infinite group"
                    )
    return lengths


def _check_table_bytes(n_roots: int) -> None:
    """Refuse a build whose reflection table would pass TABLE_CAP_BYTES."""
    size = (n_roots // 2) * n_roots * 4
    if size > TABLE_CAP_BYTES:
        raise CapExceededError(
            f"a system with {n_roots} or more roots needs a reflection table "
            f"of at least {size} bytes, over the cap of {TABLE_CAP_BYTES}"
        )


def root_count(label: TypeLabel) -> int:
    """Number of roots of a named irreducible type: rank times Coxeter number."""
    n = label.rank
    coxeter_number = {
        "A": n + 1,
        "B": 2 * n,
        "D": 2 * n - 2,
        "E": {6: 12, 7: 18, 8: 30}.get(n),
        "F": 12,
        "H": {3: 10, 4: 30}.get(n),
        "I": label.bond,
    }[label.family]
    return n * coxeter_number


class RootSystem:
    """The full root system of a finite Coxeter matrix, built on integers.

    The build sees a root as the flat tuple (a_1, b_1, ..., a_n, b_n) of
    its coordinates a_k + b_k*phi in the simple-root basis.  Positive roots
    come first (indices 0 .. n_pos-1), sorted by height and then
    lexicographically; index i + n_pos is the negative of index i.

    Production reads simple_idx, reflection_table (row t permutes all
    root indices as the reflection along positive root t does), the
    orthogonality and bond_between read off that table, and int_rows, the
    input of the exact integer rank: root i as int_degree rows.  With
    every coordinate in Z a root is its own row (degree 1); otherwise it
    gives the rows x and phi*x on the basis {1, phi}, a coordinate a + b*phi
    putting [a, b] in the first and [b, a + b] in the second (degree 2,
    twice the rank over Q(phi) as the rank over Q).  The reference view,
    which tests and verify compare against, is roots (tuples of
    FieldScalar), gram (the form on the simple roots) and bilinear.
    """

    def __init__(self, matrix: CoxeterMatrix, label: TypeLabel | None = None):
        if matrix.max_bond > 6:
            raise UnsupportedBondError(
                "bond labels above 6 leave the field Q(phi); "
                "use the symbolic dihedral model for I2(m), m > 6"
            )
        if label is not None:
            # a named type's table size is known before a root is built
            _check_table_bytes(root_count(label))
        self.matrix = matrix
        self.label = label
        n = matrix.rank
        self.rank = n
        lengths = _squared_lengths(matrix)
        gram = [
            [
                FieldScalar.from_rational(lengths[i])
                if i == j
                else -_BOND_FORM[matrix.entry(i, j)][1] * min(lengths[i], lengths[j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        self.gram = tuple(tuple(row) for row in gram)
        if not linalg.is_positive_definite(gram):
            raise InfiniteTypeError(
                "the bilinear form is not positive definite: "
                "this Coxeter matrix defines an infinite group"
            )
        # Cartan entries 2 B(a_s, a_j) / B(a_s, a_s) = p + q*phi, the nonzero
        # ones per row s as (j, p, q): 2 on the diagonal, -1, -2, -3 or -phi
        cartan = [
            [(j, *(g * (2 / lengths[s])).coords) for j, g in enumerate(row) if g]
            for s, row in enumerate(gram)
        ]
        if any(q.denominator != 1 for row in cartan for e in row for q in e[1:]):
            raise RecognitionError(
                "a Cartan entry is not in Z[phi]; "
                "Cartan-normalized roots must be integral"
            )
        self._cartan = tuple(
            tuple((j, p.numerator, q.numerator) for j, p, q in row) for row in cartan
        )
        positives, view = self._orbit_closure()
        positives.sort(key=lambda r: (sum(view[r], start=ZERO), view[r]))
        self.n_pos = len(positives)
        self.n_roots = 2 * self.n_pos
        flat = positives + [tuple(-x for x in r) for r in positives]
        self.roots = tuple(view[r] for r in flat)
        index = {r: i for i, r in enumerate(flat)}
        self.simple_idx = tuple(
            index[tuple(int(k == 2 * s) for k in range(2 * n))] for s in range(n)
        )
        self.reflection_table = self._build_reflection_table(flat, index)
        self.int_degree = 2 if any(any(r[1::2]) for r in positives) else 1
        self.int_rows = tuple(
            (r, tuple(x for a, b in zip(r[::2], r[1::2]) for x in (b, a + b)))
            if self.int_degree == 2
            else (r[::2],)
            for r in flat
        )
        # per-system caches filled lazily by other modules
        self._orth: np.ndarray | None = None
        self._subsystem_cache: dict = {}
        self._ell_t_cache: dict[bytes, int] = {}
        self._group = None
        self._w0 = None

    # -- construction ---------------------------------------------------

    def _reflect(self, s: int, root: tuple) -> tuple:
        """Apply the simple reflection s to a flat integer root: coordinate
        s drops by the Cartan entries p + q*phi times the coordinates
        a + b*phi, each product pa + qb + (pb + qa + qb)*phi."""
        da = db = 0
        for j, p, q in self._cartan[s]:
            a, b = root[2 * j], root[2 * j + 1]
            if a or b:
                da += p * a + q * b
                db += p * b + q * (a + b)
        new = list(root)
        new[2 * s] -= da
        new[2 * s + 1] -= db
        return tuple(new)

    def _orbit_closure(self) -> tuple[list, dict]:
        """The positive flat roots, and the FieldScalar view of every root,
        which decides its sign; equal coordinates share one FieldScalar."""
        n = self.rank
        units = [tuple(int(k == 2 * s) for k in range(2 * n)) for s in range(n)]
        seen = set(units)
        frontier = units
        while frontier:
            nxt = []
            for root in frontier:
                for s in range(n):
                    img = self._reflect(s, root)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            # seen only grows, so the table is refused as soon as it must
            # pass the cap; after the last level the count is exact
            _check_table_bytes(len(seen))
            frontier = nxt
        pairs = {p for root in seen for p in zip(root[::2], root[1::2])}
        scalar = {p: FieldScalar(tuple(map(Fraction, p))) for p in pairs}
        view = {r: tuple(scalar[p] for p in zip(r[::2], r[1::2])) for r in seen}
        positives = [r for r, v in view.items() if all(c.sign() >= 0 for c in v)]
        # -roots = roots, so this fails exactly when a root has mixed signs
        if 2 * len(positives) != len(seen):
            raise RecognitionError(
                "root with mixed coordinate signs; the geometric "
                "representation is inconsistent"
            )
        return positives, view

    def _build_reflection_table(self, flat: list, index: dict) -> np.ndarray:
        n_pos, n_roots = self.n_pos, self.n_roots
        table = np.full((n_pos, n_roots), -1, dtype=np.int32)
        simple_perms = {}
        for s in range(self.rank):
            t = self.simple_idx[s]
            perm = np.array([index[self._reflect(s, r)] for r in flat], np.int32)
            table[t] = perm
            simple_perms[t] = perm
        # remaining reflections by conjugation: the reflection along s(b)
        # is s r_b s, so a breadth-first walk from the simples fills the
        # table with pure permutation composition
        queue = list(simple_perms.keys())
        seen = set(queue)
        while queue:
            t = queue.pop(0)
            row_t = table[t]
            for sp in simple_perms.values():
                img = int(sp[t])
                if img >= n_pos:
                    img -= n_pos
                if img not in seen:
                    seen.add(img)
                    table[img] = sp[row_t[sp]]
                    queue.append(img)
        if len(seen) != n_pos:  # pragma: no cover - connectivity always holds
            raise RecognitionError("reflection table is incomplete")
        return table

    # -- basic queries ---------------------------------------------------

    def negate(self, idx: int) -> int:
        """Index of the negative of a root index."""
        return idx + self.n_pos if idx < self.n_pos else idx - self.n_pos

    def reflection_perm(self, t: int) -> np.ndarray:
        """Permutation of root indices for the reflection along root t."""
        return self.reflection_table[t if t < self.n_pos else t - self.n_pos]

    def bilinear(self, i: int, j: int) -> FieldScalar:
        """Form value B(root_i, root_j), on the reference view."""
        return linalg.dot(self.gram, self.roots[i], self.roots[j])

    @property
    def orthogonality(self) -> np.ndarray:
        """Boolean matrix over positive roots: True where B(a, b) = 0.

        s_a(b) = b - (2 B(a, b) / B(a, a)) a, so s_a fixes b exactly when
        B(a, b) = 0: the matrix is read off the reflection table.
        """
        if self._orth is None:
            n = self.n_pos
            self._orth = self.reflection_table[:, :n] == np.arange(n)
        return self._orth

    def bond_between(self, i: int, j: int) -> int:
        """Bond label m of two distinct positive roots, read off the table.

        The roots of the dihedral group <s_a, s_b> are the orbit of {a, b}
        under it, and a and b are its simple roots exactly when s_a and s_b
        each keep the other positive roots of the orbit positive; there are
        then m of them, and B(a, b) = -cos(pi/m)|a||b|.  Takes positive
        roots only: raises RecognitionError when i == j, when an index is
        not a positive root, and when a and b are not simple in their orbit.
        """
        n_pos = self.n_pos
        if i != j and 0 <= min(i, j) and max(i, j) < n_pos:
            perms = (self.reflection_table[i], self.reflection_table[j])
            orbit, frontier = {i, j}, [i, j]
            while frontier:
                x = frontier.pop()
                new = {int(perm[x]) for perm in perms} - orbit
                orbit |= new
                frontier.extend(new)
            positives = [x for x in orbit if x < n_pos]
            # s_a sends a to -a, and must keep every other positive root
            if all(sum(perm[x] >= n_pos for x in positives) == 1 for perm in perms):
                return len(positives)
        raise RecognitionError(
            f"roots {i} and {j} are not the simple roots of a dihedral subsystem"
        )

    def describe(self) -> str:
        if self.label is not None:
            return str(self.label)
        return f"rank-{self.rank} system with {self.n_pos} positive roots"

    def __repr__(self) -> str:
        return f"RootSystem({self.describe()}, n_pos={self.n_pos})"

    # -- constructors ----------------------------------------------------

    _named_cache: dict = {}

    @classmethod
    def named(cls, label) -> "RootSystem":
        """Build (and cache) the system of a named type."""
        if isinstance(label, str):
            label = parse_label(label)
        cached = cls._named_cache.get(label)
        if cached is None:
            cached = cls(named_coxeter_matrix(label), label)
            cls._named_cache[label] = cached
        return cached
