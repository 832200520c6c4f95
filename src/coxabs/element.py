"""Group elements as permutations of root indices.

An element w is stored as the integer array perm with perm[i] the index
of w(root_i).  Composition is a numpy gather, inversion an argsort, and
equality a byte comparison, so group arithmetic is cheap even for groups
with tens of thousands of elements.

Two exact length functions live here.  The word length l_S(w) counts the
positive roots sent negative.  The reflection length l_T(w) is computed
from the geometric action: it equals rank(M_w - Id), the codimension of
the fixed space, and is memoized per system.  It is the Bareiss rank of
moved_rows(), the vectors w(a_j) - a_j on plain ints (RootSystem.int_rows),
whose echelon parabolic_closure also takes.  The FieldScalar matrix, fixed
space and moved space are the reference the tests and verify compare
against.
"""

from __future__ import annotations

import os

import numpy as np

from . import linalg
from .field import ONE
from .linalg import Subspace
from .rootsystem import CapExceededError, RootSystem

#: default and hard caps on group enumeration size
DEFAULT_GROUP_CAP = 100_000
HARD_GROUP_CAP = 5_000_000


class Element:
    """One group element acting on the roots of a fixed RootSystem."""

    __slots__ = ("system", "perm", "_ell_t")

    def __init__(self, system: RootSystem, perm: np.ndarray):
        self.system = system
        self.perm = perm
        self._ell_t = -1

    # -- identity and comparison -----------------------------------------

    def key(self) -> bytes:
        return self.perm.tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.system is other.system
            and np.array_equal(self.perm, other.perm)
        )

    def __hash__(self):
        return hash(self.perm.tobytes())

    def __repr__(self) -> str:
        word = self.reduced_word()
        name = "e" if not word else "*".join(f"s{s + 1}" for s in word)
        return f"Element({self.system.describe()}: {name})"

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        return Element(self.system, self.perm[other.perm])

    def inverse(self) -> "Element":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm), dtype=self.perm.dtype)
        return Element(self.system, inv)

    @property
    def is_identity(self) -> bool:
        return bool((self.perm == np.arange(len(self.perm))).all())

    @property
    def is_involution(self) -> bool:
        """True when w * w is the identity (the identity itself counts)."""
        return bool(
            (self.perm[self.perm] == np.arange(len(self.perm))).all()
        )

    # -- root actions ------------------------------------------------------

    def image_of_simple(self, s: int) -> int:
        return int(self.perm[self.system.simple_idx[s]])

    def inversion_set(self) -> list[int]:
        """Positive root indices t with w^-1(root_t) negative."""
        n_pos = self.system.n_pos
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm), dtype=self.perm.dtype)
        return [t for t in range(n_pos) if inv[t] >= n_pos]

    def length_S(self) -> int:
        """Word length over the simple generators."""
        return len(self.inversion_set())

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word (0-based generator indices), built by descents."""
        w = self
        letters = []
        n_pos = self.system.n_pos
        while True:
            desc = None
            for s in range(self.system.rank):
                if w.image_of_simple(s) >= n_pos:
                    desc = s
                    break
            if desc is None:
                break
            w = w * simple_reflection(self.system, desc)
            letters.append(desc)
        return tuple(reversed(letters))

    # -- geometric action ----------------------------------------------------

    def matrix(self) -> list[list]:
        """Matrix of w on the reflection representation, in the simple basis."""
        sys = self.system
        cols = [sys.roots[int(self.perm[sys.simple_idx[j]])] for j in range(sys.rank)]
        return [[cols[j][i] for j in range(sys.rank)] for i in range(sys.rank)]

    def _matrix_minus_id(self):
        m = self.matrix()
        for i in range(len(m)):
            m[i][i] = m[i][i] - ONE
        return m

    def fixed_space(self) -> Subspace:
        """The subspace of vectors fixed by w, i.e. ker(M_w - Id)."""
        basis = linalg.kernel(self._matrix_minus_id())
        return Subspace.from_vectors(basis, self.system.rank)

    def moved_space(self) -> Subspace:
        """The image of (M_w - Id), the orthogonal complement of the fixed space."""
        m = self._matrix_minus_id()
        cols = [[m[i][j] for i in range(len(m))] for j in range(len(m))]
        return Subspace.from_vectors(cols, self.system.rank)

    def moved_rows(self) -> list[list[int]]:
        """The int_rows of w(a_j) - a_j for every simple root a_j; over Q
        they span the moved space Im(M_w - Id), on {1, phi} if phi is used."""
        rows = self.system.int_rows
        perm = self.perm
        return [
            [a - b for a, b in zip(image, simple)]
            for s in self.system.simple_idx
            for image, simple in zip(rows[perm[s]], rows[s])
        ]

    def reflection_length(self) -> int:
        """l_T(w) = rank(M_w - Id), memoized per system.

        The rank over Q of the moved rows, divided by the degree of the
        coordinate ring.
        """
        if self._ell_t >= 0:
            return self._ell_t
        sys = self.system
        cache = sys._ell_t_cache
        key = self.perm.tobytes()
        val = cache.get(key)
        if val is None:
            val = linalg.rank_rational(self.moved_rows()) // sys.int_degree
            cache[key] = val
        self._ell_t = val
        return val


# ----------------------------------------------------------------------
# element constructors


def identity(system: RootSystem) -> Element:
    return Element(system, np.arange(system.n_roots, dtype=np.int32))


def simple_reflection(system: RootSystem, s: int) -> Element:
    if not 0 <= s < system.rank:
        raise ValueError(f"no simple generator with index {s}")
    return Element(system, system.reflection_table[system.simple_idx[s]])


def reflection(system: RootSystem, t: int) -> Element:
    """The reflection along root index t (positive or negative)."""
    return Element(system, system.reflection_perm(t))


def from_word(system: RootSystem, word) -> Element:
    """Product of simple reflections given by 0-based generator indices."""
    perm = np.arange(system.n_roots, dtype=np.int32)
    for s in word:
        if not 0 <= s < system.rank:
            raise ValueError(f"no simple generator with index {s}")
        perm = perm[system.reflection_table[system.simple_idx[s]]]
    return Element(system, perm)


def longest_element(system: RootSystem) -> Element:
    """The longest element, by greedy ascent through positive images."""
    if system._w0 is not None:
        return system._w0
    w = identity(system)
    n_pos = system.n_pos
    while True:
        up = None
        for s in range(system.rank):
            if w.image_of_simple(s) < n_pos:
                up = s
                break
        if up is None:
            break
        w = w * simple_reflection(system, up)
    system._w0 = w
    return w


def check_T_reduced(system: RootSystem, reflection_indices) -> bool:
    """Whether a tuple of reflections is a minimal factorization of its product.

    By the classical rank criterion this holds exactly when the roots of
    the reflections are linearly independent.
    """
    idx = list(reflection_indices)
    if len(idx) > system.rank:
        return False
    rows = [row for t in idx for row in system.int_rows[t]]
    return linalg.rank_rational(rows) == len(rows)


# ----------------------------------------------------------------------
# whole-group enumeration


class GroupEnumeration:
    """Every element of a finite system, as stacked permutation rows.

    Elements are discovered breadth first over right multiplication by
    the simple generators, so ids are sorted by word length and the
    identity has id 0.  words[i] is a reduced word for element i.
    """

    def __init__(self, system: RootSystem, perms: np.ndarray, words: list):
        self.system = system
        self.perms = perms
        self.words = words
        self.index = {perms[i].tobytes(): i for i in range(len(perms))}
        self._ell_t: np.ndarray | None = None
        self._inverse_ids: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.perms)

    def element(self, i: int) -> Element:
        return Element(self.system, self.perms[i])

    def id_of(self, elt: Element) -> int:
        return self.index[elt.perm.tobytes()]

    @property
    def inverse_ids(self) -> np.ndarray:
        if self._inverse_ids is None:
            inv_perms = np.argsort(self.perms, axis=1).astype(np.int32)
            self._inverse_ids = np.fromiter(
                (self.index[inv_perms[i].tobytes()] for i in range(self.size)),
                dtype=np.int64,
                count=self.size,
            )
        return self._inverse_ids

    @property
    def reflection_lengths(self) -> np.ndarray:
        """l_T for every element id, as one array."""
        if self._ell_t is None:
            out = np.empty(self.size, dtype=np.int8)
            for i in range(self.size):
                out[i] = self.element(i).reflection_length()
            self._ell_t = out
        return self._ell_t

    def involution_ids(self) -> np.ndarray:
        """Ids of all elements with w * w = identity, identity included."""
        squares = np.take_along_axis(self.perms, self.perms, axis=1)
        mask = (squares == np.arange(self.perms.shape[1])).all(axis=1)
        return np.nonzero(mask)[0]


def group_cap() -> int:
    """The enumeration cap: COXABS_MAX_GROUP when set, else the default.

    Raises ValueError, naming the variable, unless it is a positive integer.
    """
    raw = os.environ.get("COXABS_MAX_GROUP")
    if raw is None:
        return DEFAULT_GROUP_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"COXABS_MAX_GROUP must be a positive integer, got {raw!r}")
    return cap


def enumerate_group(system: RootSystem, limit: int | None = None) -> GroupEnumeration:
    """Enumerate the whole group, subject to a size cap.

    The default cap is 100000 elements; the environment variable
    COXABS_MAX_GROUP or the limit argument raises it, up to a hard cap of
    5000000.  Exceeding the cap raises CapExceededError.
    """
    if system._group is not None:
        return system._group
    if limit is None:
        limit = group_cap()
    limit = min(limit, HARD_GROUP_CAP)
    simple_perms = [system.reflection_table[t] for t in system.simple_idx]
    ident = np.arange(system.n_roots, dtype=np.int32)
    perms = [ident]
    words: list[tuple[int, ...]] = [()]
    index = {ident.tobytes(): 0}
    head = 0
    while head < len(perms):
        cur = perms[head]
        cur_word = words[head]
        for s, sp in enumerate(simple_perms):
            new = cur[sp]
            key = new.tobytes()
            if key not in index:
                index[key] = len(perms)
                perms.append(new)
                words.append(cur_word + (s,))
                if len(perms) > limit:
                    raise CapExceededError(
                        f"group enumeration exceeded the cap of {limit} "
                        "elements; raise COXABS_MAX_GROUP to allow more "
                        f"(hard cap {HARD_GROUP_CAP})"
                    )
        head += 1
    enum = GroupEnumeration(system, np.vstack(perms), words)
    system._group = enum
    return enum
