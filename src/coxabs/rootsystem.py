"""Finite Coxeter systems and their root systems, built exactly.

The roots are Cartan-normalized (Humphreys, Reflection Groups and Coxeter
Groups, 1990, chapter 2): across a bond m of 4 or 6 the squared lengths
of the two simple roots differ by the factor 2 or 3, and are equal
otherwise.  Then B(a_i, a_j) = -cos(pi/m) |a_i| |a_j| is a rational
multiple of the shorter squared length, or phi/2 times it for m = 5, so
the Cartan entries lie in Z[phi] and so does every root coordinate in the
simple-root basis.  The build names the Coxeter diagram first
(recognize, on the classical list of connected finite Coxeter graphs), so
that an infinite type and an oversized table are refused before any root
exists.  It then reflects the coordinates as integer pairs
(a, b) = a + b*phi with Cartan entries read off the bond table, signs and
orders them with phi_sign, and turns each reflection into a permutation
of root indices; all later questions about the group reduce to integer
permutation work plus exact integer rank computations.  The FieldScalar
roots and the form are a reference view, built on first use.

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
import math
import re
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain

import numpy as np

from . import linalg
from .field import FieldScalar, phi_sign

#: the dtype of every permutation of root indices: the reflection table,
#: the group table, involution rows and keys (Element.key).  An index in a
#: per-call loop is intp: numpy 2.4 gathers 60-120 entries in 2.0 us through
#: an int16 index, 1.1 us casting it per call, 0.5 us through a ready intp row
PERM_DTYPE = np.dtype(np.int16)

#: rows per step of a blockwise pass, which bounds the step's temporaries
ROW_BLOCK = 256

#: largest reflection table (n_pos x n_roots PERM_DTYPE entries) a build
#: will allocate, in bytes: A127 (16 256 roots) is the last A_n admitted
TABLE_CAP_BYTES = 256 * 2**20


class CoxeterError(Exception):
    """Base class for errors raised by this package."""


class InfiniteTypeError(CoxeterError):
    """The Coxeter diagram is not a finite type: the group is infinite."""


class UnsupportedBondError(CoxeterError):
    """A bond label above 6 cannot be represented in the field Q(phi)."""


class CapExceededError(CoxeterError):
    """An enumeration grew past its configured cap."""


class RecognitionError(CoxeterError):
    """Internal inconsistency: computed roots or bonds contradict the
    recognized diagram.  A diagram that names no finite type raises
    InfiniteTypeError instead."""


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
    if fam in "DE":  # s1 on s3, s2 on s3 (D) or s4 (E), chain from s3
        bond(0, 2, 3)
        bond(1, 2 if fam == "D" else 3, 3)
        for i in range(2, n - 1):
            bond(i, i + 1, 3)
    else:  # a path, with its one high bond
        for i in range(n - 1):
            bond(i, i + 1, 3)
        high = {"B": (n - 2, 4), "F": (1, 4), "H": (0, 5), "I": (0, label.bond)}
        if fam in high:
            i, m = high[fam]
            bond(i, i + 1, m)
    return CoxeterMatrix.from_rows(rows)


# ----------------------------------------------------------------------
# diagram recognition


def recognize(nodes, bonds: dict) -> list[tuple[TypeLabel, tuple]]:
    """Split a Coxeter diagram into connected components and name each.

    bonds maps a pair of nodes (i, j) to its label m > 2; absent pairs
    commute.  Returns (label, sorted nodes) per component, in order of
    first appearance in nodes.  The connected finite Coxeter graphs are
    A_n, B_n, D_n, E6-E8, F4, H3, H4 and I2(m) (Coxeter 1935; Humphreys,
    Reflection Groups and Coxeter Groups, 1990, 2.4-2.7); any other
    component raises InfiniteTypeError.
    """
    adj: dict = {v: [] for v in nodes}
    for a, b in bonds:
        adj[a].append(b)
        adj[b].append(a)
    parts, placed = [], set()
    for v in adj:
        if v in placed:
            continue
        comp, stack = {v}, [v]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        placed |= comp
        comp_bonds = {e: m for e, m in bonds.items() if e[0] in comp}
        parts.append((_name_component(comp, adj, comp_bonds), tuple(sorted(comp))))
    return parts


def _name_component(comp: set, adj: dict, bonds: dict) -> TypeLabel:
    r = len(comp)
    if r == 1:
        return make_label("A", 1)
    if r == 2:
        return make_label("I", 2, next(iter(bonds.values())))
    if len(bonds) == r - 1:  # a tree; every cycle is infinite
        branches = [v for v in comp if len(adj[v]) > 2]
        high = [(e, m) for e, m in bonds.items() if m > 3]
        if not high and not branches:
            return make_label("A", r)
        if len(high) == 1 and not branches:
            (a, b), m = high[0]
            at_end = min(len(adj[a]), len(adj[b])) == 1
            if m == 4 and (at_end or r == 4):
                return make_label("B" if at_end else "F", r)
            if m == 5 and at_end and r <= 4:
                return make_label("H", r)
        if not high and len(branches) == 1 and len(adj[branches[0]]) == 3:
            node = branches[0]
            arms = sorted(_arm_length(adj, node, x) for x in adj[node])
            if arms[:2] == [1, 1]:
                return make_label("D", r)
            if arms[:2] == [1, 2] and arms[2] <= 4:
                return make_label("E", r)
    raise InfiniteTypeError(
        f"a connected Coxeter graph of rank {r} with bonds "
        f"{sorted(bonds.values())} is not a finite type: "
        "this Coxeter matrix defines an infinite group"
    )


def _arm_length(adj: dict, node, start) -> int:
    """Nodes on the path from node's neighbour start out to a leaf."""
    length, prev, cur = 1, node, start
    while len(adj[cur]) == 2:
        prev, cur = cur, next(x for x in adj[cur] if x != prev)
        length += 1
    return length


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


def group_order(label: TypeLabel) -> int:
    """Order of the Coxeter group of a named irreducible type."""
    n = label.rank
    return {
        "A": math.factorial(n + 1),
        "B": 2**n * math.factorial(n),
        "D": 2 ** (n - 1) * math.factorial(n),
        "E": {6: 51840, 7: 2903040, 8: 696729600}.get(n),
        "F": 1152,
        "H": {3: 120, 4: 14400}.get(n),
        "I": 2 * label.bond,
    }[label.family]


# ----------------------------------------------------------------------
# root systems

#: per bond m: the squared-length ratio of the two simple roots across it,
#: and 2k_m = p + q*phi as the pair (p, q), where
#: B(a_i, a_j) = -k_m * min(B(a_i, a_i), B(a_j, a_j))
_BOND_FORM = {
    2: (1, (0, 0)),
    3: (1, (1, 0)),
    4: (2, (2, 0)),
    5: (1, (0, 1)),
    6: (3, (3, 0)),
}


def _reference_gram(matrix: CoxeterMatrix) -> tuple:
    """The form on the Cartan-normalized simple roots, as FieldScalars.

    A reference, which the build never evaluates.  The first generator of
    each component gets squared length 1, and the lengths spread along
    the bonds of the Coxeter graph with the ratios of _BOND_FORM, the
    later generator of a bond getting the longer root.  A cycle whose
    ratios conflict raises InfiniteTypeError (every cycle is infinite).
    """
    n = matrix.rank
    lengths: list = [None] * n
    for first in range(n):
        stack = [] if lengths[first] else [first]
        lengths[first] = lengths[first] or Fraction(1)
        while stack:
            i = stack.pop()
            for j, m in enumerate(matrix.rows[i]):
                if m < 3:
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
    return tuple(
        tuple(
            FieldScalar.from_rational(lengths[i])
            if i == j
            else FieldScalar(tuple(Fraction(x, 2) for x in _BOND_FORM[m][1]))
            * -min(lengths[i], lengths[j])
            for j, m in enumerate(row)
        )
        for i, row in enumerate(matrix.rows)
    )


def _check_table_bytes(n_roots: int) -> None:
    """Refuse a build whose root indices would not fit PERM_DTYPE, or whose
    reflection table would pass TABLE_CAP_BYTES."""
    if n_roots - 1 > np.iinfo(PERM_DTYPE).max:
        raise CapExceededError(
            f"a system with {n_roots} roots has root indices beyond "
            f"{PERM_DTYPE.name}"
        )
    size = (n_roots // 2) * n_roots * PERM_DTYPE.itemsize
    if size > TABLE_CAP_BYTES:
        raise CapExceededError(
            f"a system with {n_roots} or more roots needs a reflection table "
            f"of at least {size} bytes, over the cap of {TABLE_CAP_BYTES}"
        )


def packed_mask(flags: np.ndarray) -> int:
    """A 1-D boolean array as a Python-int bitmask, bit k for entry k."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def packed_masks(flags: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array, packed as packed_mask packs it."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _phi_order(x: list, y: list) -> int:
    """Compare lists of pairs (a, b) lexicographically, each as a + b*phi."""
    for u, v in zip(x, y):
        if u != v:
            return phi_sign(u[0] - v[0], u[1] - v[1])
    return 0


class RootSystem:
    """The full root system of a finite Coxeter matrix, built on integers.

    The build sees a root as the flat tuple (a_1, b_1, ..., a_n, b_n) of
    its coordinates a_k + b_k*phi in the simple-root basis.  Positive roots
    come first (indices 0 .. n_pos-1), sorted by height and then
    lexicographically; index i + n_pos is the negative of index i.

    Production reads group_order (the product over the recognized
    components), simple_idx, reflection_table (row t permutes all root
    indices as the reflection along positive root t does), the
    orthogonal_masks, inversion_masks and bond_between read off that
    table, negatives (n_pos + t, the index of -a_t, per positive t) and
    int_rows, the input of the exact integer rank (packed on first use as
    packed_roots) and, by row 0, of the closures' cycle_rows: root i as
    int_degree rows.  With every coordinate in Z a root is its own row
    (degree 1); otherwise it gives the rows x and phi*x on the basis
    {1, phi}, a coordinate a + b*phi putting [a, b] in the first and
    [b, a + b] in the second (degree 2, twice the rank over Q(phi) as the
    rank over Q).  The reference view, which tests and
    verify compare against, is roots (tuples of FieldScalar), gram (the
    form on the simple roots) and bilinear; it is built on first use.
    """

    def __init__(self, matrix: CoxeterMatrix, label: TypeLabel | None = None):
        n = matrix.rank
        bonds = {
            (i, j): m
            for i, row in enumerate(matrix.rows)
            for j, m in enumerate(row[i + 1 :], i + 1)
            if m > 2
        }
        if any(m > 6 for m in bonds.values()):
            raise UnsupportedBondError(
                "bond labels above 6 leave the field Q(phi); "
                "use the symbolic dihedral model for I2(m), m > 6"
            )
        # the diagram's types fix the root count and the group order
        # before a root is built
        types = [t for t, _ in recognize(range(n), bonds)]
        n_roots = sum(root_count(t) for t in types)
        _check_table_bytes(n_roots)
        self.group_order = math.prod(group_order(t) for t in types)
        self.matrix = matrix
        self.label = label
        self.rank = n
        # Cartan entries 2 B(a_s, a_j) / B(a_s, a_s) = p + q*phi, the nonzero
        # ones per row s as (j, p, q): 2 on the diagonal, then -2k_m on the
        # shorter root's row and -2k_m / ratio on the longer (later) one's
        cartan = [[(s, 2, 0)] for s in range(n)]
        for (i, j), m in bonds.items():
            ratio, (p, q) = _BOND_FORM[m]
            cartan[i].append((j, -p, -q))
            cartan[j].append((i, -p // ratio, -q // ratio))
        self._cartan = cartan
        found, images, parents = self._orbit_closure(n_roots)
        self.int_degree = 2 if any(any(r[1::2]) for r in found) else 1
        # by height, then coordinates, each as a pair (a, b) = a + b*phi
        key = cmp_to_key(_phi_order)
        keys = [
            key([(sum(r[::2]), sum(r[1::2])), *zip(r[::2], r[1::2])]) for r in found
        ]
        order = sorted(range(len(found)), key=keys.__getitem__)
        positives = [found[k] for k in order]
        self.n_pos = len(positives)
        self.n_roots = 2 * self.n_pos
        flat = positives + [tuple(-x for x in r) for r in positives]
        index = np.empty(self.n_pos, dtype=np.intp)
        index[order] = np.arange(self.n_pos)
        # the simple roots are the first n found; an index array, so that
        # perm[simple_idx] reads off their images
        self.simple_idx = index[:n].copy()
        self.reflection_table = self._build_reflection_table(
            images[order], index, parents
        )
        self.int_rows = tuple(
            (r, tuple(x for a, b in zip(r[::2], r[1::2]) for x in (b, a + b)))
            if self.int_degree == 2
            else (r[::2],)
            for r in flat
        )
        self.negatives = np.arange(self.n_pos, self.n_roots, dtype=PERM_DTYPE)
        # caches that live as long as the system, filled by other modules:
        # the interned Parabolic per closed mask (at most one per parabolic
        # subgroup), l_T by Element.key() and the enumerated group; and the
        # cached properties packed_roots (l_T) and cycle_rows (closures)
        self._parabolics: dict = {}
        self._ell_t_cache: dict[bytes, int] = {}
        self._group = None

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

    def _orbit_closure(self, n_roots: int) -> tuple[list, np.ndarray, list]:
        """The positive flat roots, simple roots first, their images under
        the simple reflections, and where each later root came from: row k
        of the array holds, per s, the position of s(root k) in the list, or
        -1 where s sends a_s to -a_s, and parents[j - rank] is the (k, s)
        whose image first found root j.

        s permutes the positive roots other than a_s, so the walk stays
        among the positives, which must be exactly the n_roots / 2 of the
        recognized type.
        """
        n = self.rank
        found = [tuple(int(k == 2 * s) for k in range(2 * n)) for s in range(n)]
        position = {r: k for k, r in enumerate(found)}
        images, parents = [], []
        for k, root in enumerate(found):  # found grows during the walk
            row = []
            for s in range(n):
                if k == s:
                    row.append(-1)
                    continue
                img = self._reflect(s, root)
                j = position.get(img)
                if j is None:
                    j = position[img] = len(found)
                    found.append(img)
                    parents.append((k, s))
                    if 2 * len(found) > n_roots:
                        raise RecognitionError(
                            f"the orbit of the simple roots passes the {n_roots} "
                            "roots of the recognized type"
                        )
                row.append(j)
            images.append(row)
        # a root with a negative coordinate fails when the Cartan entries
        # are not those of the recognized finite type
        if 2 * len(found) != n_roots or any(
            phi_sign(a, b) < 0 for r in found for a, b in zip(r[::2], r[1::2])
        ):
            raise RecognitionError(
                f"the walk from the simple roots found {len(found)} roots for "
                f"the {n_roots // 2} positive roots of the recognized type, "
                "or one with a negative coordinate"
            )
        return found, np.array(images, dtype=np.intp), parents

    def _build_reflection_table(self, images: np.ndarray, index: np.ndarray, parents):
        """The reflection table from the closure's images of the positive
        roots (images, rows in index order), using s(-r) = -s(r), and the
        closure's parents (positions in discovery order)."""
        n_pos, n_roots = self.n_pos, self.n_roots
        table = np.full((n_pos, n_roots), -1, dtype=PERM_DTYPE)
        for s, t in enumerate(self.simple_idx):
            col = images[:, s]  # -1 only where s sends a_s to -a_s
            image = np.where(col < 0, t + n_pos, index[col])
            table[t] = np.concatenate([image, (image + n_pos) % n_roots])
        # the reflection along s(b) is s r_b s, and every later root was
        # found as s(b) for an earlier b, so in discovery order each row is
        # pure permutation composition of a row already filled
        for j, (k, s) in enumerate(parents, self.rank):
            sp = table[self.simple_idx[s]]
            table[index[j]] = sp[table[index[k]][sp]]
        return table

    # -- basic queries ---------------------------------------------------

    @cached_property
    def roots(self) -> tuple:
        """Reference view: each root as a tuple of FieldScalar coordinates,
        read off int_rows; equal coordinates share one FieldScalar."""
        pairs = [
            list(zip(row[::2], row[1::2]))
            if self.int_degree == 2
            else [(a, 0) for a in row]
            for row, *_ in self.int_rows
        ]
        scalar = {p: FieldScalar(tuple(map(Fraction, p))) for r in pairs for p in r}
        return tuple(tuple(scalar[p] for p in r) for r in pairs)

    @cached_property
    def packed_bits(self) -> int:
        """The field width of packed_roots and of the moved rows, whose
        entries are at most twice the largest |int_rows entry|."""
        ncols = self.rank * self.int_degree
        largest = max(abs(x) for rows in self.int_rows for row in rows for x in row)
        return linalg.hadamard_bits(ncols, ncols, 2 * largest)

    @cached_property
    def packed_roots(self) -> tuple:
        """packed_roots[k][t]: row k of int_rows[t] packed, t positive.  Built
        on first use, not in __init__: A107 packs 5 778 rows of 107 fields."""
        bits, rows = self.packed_bits, self.int_rows[: self.n_pos]
        return tuple(
            tuple(linalg.pack_row(r[k], bits) for r in rows)
            for k in range(self.int_degree)
        )

    @cached_property
    def cycle_rows(self) -> tuple:
        """cycle_rows[i]: row 0 of int_rows[i] packed, for every root i (a
        negative as the negated int), which parabolic_closure sums along
        cycles.  A cycle holds at most n_roots roots, so each entry of a sum
        is at most n_roots * largest |entry|; a width of its bit length plus
        a sign bit and one of headroom keeps the fields apart, so a packed
        sum is 0 exactly when every entry of the sum is."""
        rows = [r[0] for r in self.int_rows[: self.n_pos]]
        largest = max(map(abs, chain.from_iterable(rows)))
        bits = (self.n_roots * largest).bit_length() + 2
        positive = [linalg.pack_row(row, bits) for row in rows]
        return tuple(positive + [-x for x in positive])

    def packed_rows(self, indices) -> linalg.PackedRows:
        """The int_rows of the roots at indices, positive or negative, packed."""
        n_pos, table = self.n_pos, self.packed_roots
        rows = [
            col[t] if t < n_pos else -col[t - n_pos] for t in indices for col in table
        ]
        return linalg.PackedRows(rows, self.packed_bits, self.rank * self.int_degree)

    @cached_property
    def gram(self) -> tuple:
        """Reference view: the form on the simple roots."""
        return _reference_gram(self.matrix)

    def bilinear(self, i: int, j: int) -> FieldScalar:
        """Form value B(root_i, root_j), on the reference view."""
        return linalg.dot(self.gram, self.roots[i], self.roots[j])

    def _table_masks(self, flags) -> tuple[int, ...]:
        """flags of each reflection table row's positive columns, packed one
        Python-int bitmask per row, ROW_BLOCK rows at a time."""
        table, n_pos = self.reflection_table[:, : self.n_pos], self.n_pos
        blocks = (table[lo : lo + ROW_BLOCK] for lo in range(0, n_pos, ROW_BLOCK))
        return tuple(mask for block in blocks for mask in packed_masks(flags(block)))

    @cached_property
    def orthogonal_masks(self) -> tuple[int, ...]:
        """Row t: the positive roots s_t fixes, the b with B(a_t, b) = 0."""
        return self._table_masks(lambda rows: rows == np.arange(self.n_pos))

    @cached_property
    def inversion_masks(self) -> tuple[int, ...]:
        """Row t: the positive roots that s_t sends negative, a_t among them."""
        return self._table_masks(lambda rows: rows >= self.n_pos)

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
