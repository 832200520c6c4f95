"""Group elements as permutations of root indices.

An element w is stored as the integer array perm with perm[i] the index
of w(root_i).  Composition is a numpy gather and inversion an argsort,
so group arithmetic is cheap even for groups with tens of thousands of
elements.  Every perm has the one dtype rootsystem.PERM_DTYPE (int16,
2 bytes per root), to which Element converts what it is given; but an
array that indexes in a per-call loop is intp, since numpy gathers about
four times slower through an int16 index (see PERM_DTYPE).  The
simple roots are a basis, so their images fix w: the key of an element,
by which every dict of elements is indexed, is the bytes of
perm[simple_idx], 2 * rank bytes, and w is the identity or an involution
exactly when its key (or that of w * w) is simple_idx itself.

Two exact length functions live here.  The word length l_S(w) counts the
positive roots sent negative.  The reflection length l_T(w) is computed
from the geometric action: it equals rank(M_w - Id), the codimension of
the fixed space, and is memoized per system.  It is the Bareiss rank of
moved_rows(), the int_rows of w(a_j) - a_j packed one Python int per row
(linalg.PackedRows): one subtraction of two rows of RootSystem.packed_roots,
a table built on the first l_T, not with the system, whose one field width
(packed_bits) holds every minor of such rows by Hadamard's bound.
parabolic_closure takes no rank: it sums roots along the cycles of perm.
The FieldScalar matrix, fixed space and moved space are the reference
the tests and verify compare against.

longest_element is the cached one of the full Parabolic.  It, the l_T
memo and the group table live as long as their RootSystem.
enumerate_group lists the whole group in one preallocated PERM_DTYPE
table of group_order rows, one word length at a time, in breadth-first
order, and its reduced words in one int8 array of letters beside it; a
group whose table, words and keys would pass TABLE_CAP_BYTES is refused
from its order, before anything is allocated.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property

import numpy as np

from . import linalg, rootsystem
from .field import ONE
from .linalg import Subspace
from .rootsystem import PERM_DTYPE, CapExceededError, RecognitionError, RootSystem


class Element:
    """One group element acting on the roots of a fixed RootSystem."""

    __slots__ = ("system", "perm")

    def __init__(self, system: RootSystem, perm: np.ndarray):
        self.system = system
        # one dtype, so that equal elements have equal keys and hashes
        self.perm = perm if perm.dtype is PERM_DTYPE else perm.astype(PERM_DTYPE)

    # -- identity and comparison -----------------------------------------

    def key(self) -> bytes:
        """The images of the simple roots, which determine the element."""
        return self.perm[self.system.simple_idx].tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.system is other.system
            and np.array_equal(self.perm, other.perm)
        )

    def __hash__(self):
        return hash(self.key())

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
    def is_involution(self) -> bool:
        """True when w * w is the identity (the identity itself counts):
        when w * w fixes every simple root."""
        simple = self.system.simple_idx
        return self.perm.take(self.perm[simple]).tolist() == simple.tolist()

    # -- root actions ------------------------------------------------------

    def inversion_set(self) -> list[int]:
        """Positive root indices t with w^-1(root_t) negative."""
        n_pos = self.system.n_pos
        return np.flatnonzero(self.inverse().perm[:n_pos] >= n_pos).tolist()

    def length_S(self) -> int:
        """Word length over the simple generators."""
        return len(self.inversion_set())

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word (0-based generator indices), built by descents."""
        sys, w, letters = self.system, self, []
        while True:
            descents = np.flatnonzero(w.perm[sys.simple_idx] >= sys.n_pos).tolist()
            if not descents:
                return tuple(reversed(letters))
            w = w * simple_reflection(sys, descents[0])
            letters.append(descents[0])

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

    def moved_rows(self) -> linalg.PackedRows:
        """The int_rows of w(a_j) - a_j for every simple root a_j, packed,
        rows 0 first; over Q they span the moved space Im(M_w - Id), on
        {1, phi} if phi is used."""
        sys = self.system
        n_pos, simple = sys.n_pos, sys.simple_idx
        images, simple = self.perm[simple].tolist(), simple.tolist()
        rows = [
            column[i] - column[s] if i < n_pos else -column[i - n_pos] - column[s]
            for column in sys.packed_roots
            for i, s in zip(images, simple)
        ]
        return linalg.PackedRows(rows, sys.packed_bits, sys.rank * sys.int_degree)

    def reflection_length(self) -> int:
        """l_T(w) = rank(M_w - Id), memoized per system.

        The rank over Q of the moved rows, divided by the degree of the
        coordinate ring.
        """
        cache, key = self.system._ell_t_cache, self.key()
        val = cache.get(key)
        if val is None:
            val = linalg.rank_rational(self.moved_rows()) // self.system.int_degree
            cache[key] = val
        return val


# ----------------------------------------------------------------------
# element constructors


def identity(system: RootSystem) -> Element:
    return Element(system, np.arange(system.n_roots, dtype=PERM_DTYPE))


def simple_reflection(system: RootSystem, s: int) -> Element:
    if not 0 <= s < system.rank:
        raise ValueError(f"no simple generator with index {s}")
    return Element(system, system.reflection_table[system.simple_idx[s]])


def reflection(system: RootSystem, t: int) -> Element:
    """The reflection along root index t (positive or negative)."""
    row = t if t < system.n_pos else t - system.n_pos
    return Element(system, system.reflection_table[row])


def from_word(system: RootSystem, word) -> Element:
    """Product of simple reflections given by 0-based generator indices."""
    perm = np.arange(system.n_roots, dtype=PERM_DTYPE)
    for s in word:
        if not 0 <= s < system.rank:
            raise ValueError(f"no simple generator with index {s}")
        perm = perm[system.reflection_table[system.simple_idx[s]]]
    return Element(system, perm)


def longest_element(system: RootSystem) -> Element:
    """The longest element: that of the full parabolic, by greedy descent."""
    from .parabolic import Parabolic  # deferred: parabolic imports this module

    return Parabolic(system, (1 << system.n_pos) - 1).longest_element


def check_T_reduced(system: RootSystem, reflection_indices) -> bool:
    """Whether a tuple of reflections is a minimal factorization of its product.

    By the classical rank criterion this holds exactly when the roots of
    the reflections are linearly independent.
    """
    idx = list(reflection_indices)
    if len(idx) > system.rank:
        return False
    packed = system.packed_rows(idx)
    return linalg.rank_rational(packed) == len(packed.rows)


# ----------------------------------------------------------------------
# whole-group enumeration


class Words(Sequence):
    """The reduced words of an enumeration, read off one int8 array: word i
    is the tuple letters[i, :lengths[i]] of 0-based generator indices.

    Both arrays view zeroed bytearrays, whose slices read a word in less
    than half the time numpy indexing takes; enumerate_group fills them.
    """

    def __init__(self, count: int, width: int):
        self._letters, self._lengths = bytearray(count * width), bytearray(count)
        self._width = width
        self.letters = np.frombuffer(self._letters, np.int8).reshape(count, width)
        self.lengths = np.frombuffer(self._lengths, np.int8)

    def __len__(self) -> int:
        return len(self._lengths)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        start = i % len(self._lengths) * self._width
        return tuple(self._letters[start : start + self._lengths[i]])


class GroupEnumeration:
    """Every element of a finite system, as stacked permutation rows.

    Elements are discovered breadth first over right multiplication by
    the simple generators, so ids are sorted by word length and the
    identity has id 0.  words[i] is a reduced word for element i, and
    ids_of_images looks elements up by their keys.
    """

    def __init__(self, system: RootSystem, perms: np.ndarray, words: Words):
        self.system = system
        self.perms = perms
        self.words = words

    @property
    def size(self) -> int:
        return len(self.perms)

    def element(self, i: int) -> Element:
        return Element(self.system, self.perms[i])

    @cached_property
    def sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys as void scalars in sorted order, and the id of each."""
        keys = void_rows(self.perms[:, self.system.simple_idx])
        order = np.argsort(keys)
        return keys[order], order

    def ids_of_images(self, images: np.ndarray) -> np.ndarray:
        """Ids of the elements whose simple-root images are the rows of
        images, by binary search in sorted_keys; KeyError for a row that
        is no element's key."""
        keys, ids = self.sorted_keys
        query = void_rows(images)
        at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        if not (keys[at] == query).all():
            raise KeyError("a row is not the simple-root images of a group element")
        return ids[at]

    @cached_property
    def inverse_ids(self) -> np.ndarray:
        inv_perms = np.argsort(self.perms, axis=1)
        return self.ids_of_images(inv_perms[:, self.system.simple_idx])

    @cached_property
    def reflection_lengths(self) -> np.ndarray:
        """l_T for every element id, as one array: one reflection_length
        per conjugacy class, taken at its least id and spread over the class
        by orbit_labels.  l_T is a class function, since T is closed under
        conjugation (Carter, Compositio Math. 25, 1972)."""
        conjugates = simple_conjugates(self.system, self.perms)
        labels = orbit_labels([self.ids_of_images(c) for c in conjugates])
        reps, class_of = np.unique(labels, return_inverse=True)
        lengths = [self.element(r).reflection_length() for r in reps.tolist()]
        return np.array(lengths, dtype=np.int8)[class_of]

    def involution_ids(self) -> np.ndarray:
        """Ids of all elements with w * w = identity, identity included."""
        simple = self.system.simple_idx
        squares = np.take_along_axis(self.perms, self.perms[:, simple], axis=1)
        return np.nonzero((squares == simple).all(axis=1))[0]


def simple_conjugates(system: RootSystem, perms: np.ndarray) -> Iterator[np.ndarray]:
    """Per simple reflection s, lazily, the keys of s x s for the rows x of perms."""
    simple = system.simple_idx
    return (sp[perms[:, sp[simple]]] for sp in system.reflection_table[simple])


def orbit_labels(generators: list) -> np.ndarray:
    """For each id, the least id of its orbit under k permutations of n ids,
    generators[g][x] the id of g(x).  A sweep lowers each label to its
    image's, one generator after another, then jumps along labels[labels];
    labels stay ids of their orbit, at most their own id, so a sweep
    changes nothing exactly when each orbit carries its least id."""
    labels = np.arange(len(generators[0]))
    while True:
        last = labels
        for g in generators:
            labels = np.minimum(labels, labels[g])
        labels = labels[labels]
        if np.array_equal(labels, last):
            return labels


def void_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array, as PERM_DTYPE, viewed as one void scalar."""
    rows = np.ascontiguousarray(rows, dtype=PERM_DTYPE)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def enumerate_group(system: RootSystem) -> GroupEnumeration:
    """Enumerate the whole group into one table of system.group_order rows.

    It is filled a word length at a time from the ascents w * s of the
    last level, those with w(a_s) > 0: exactly then is w * s one longer
    than w, so never an earlier element.  Kept at first occurrence in
    parent-major order, they get the ids and words of a breadth-first walk:
    each new row of letters is its parent's with the generator appended.

    Raises CapExceededError, before allocating, when the table and words
    would pass TABLE_CAP_BYTES, and RecognitionError unless the walk finds
    exactly group_order elements.
    """
    if system._group is not None:
        return system._group
    order, n_roots = system.group_order, system.n_roots
    simple, n_pos, rank = system.simple_idx, system.n_pos, system.rank
    # per element: the row and the key of sorted_keys, in PERM_DTYPE, the
    # key's int64 id, the letters of the word (l(w0) = n_pos bytes) and its
    # length, and 32 bytes for the level step's temporaries (at most 26
    # under tracemalloc on E6, D6, D7, A8 and B7)
    size = order * (PERM_DTYPE.itemsize * (n_roots + rank) + 8 + n_pos + 1 + 32)
    cap = rootsystem.TABLE_CAP_BYTES
    if size > cap:
        raise CapExceededError(
            f"the group of {system.describe()} has {order} elements, whose "
            f"table and words of {size} bytes would pass the cap of {cap} bytes"
        )
    simple_perms = system.reflection_table[simple]
    simple_images = simple_perms[:, simple]  # row s: s at the simple roots
    perms = np.empty((order, n_roots), dtype=PERM_DTYPE)
    perms[0] = np.arange(n_roots)
    words = Words(order, n_pos)  # l(w0) = n_pos letters at most
    letters, lengths = words.letters, words.lengths
    lo, hi = 0, 1  # perms[lo:hi] is the last filled level
    for depth in range(n_pos):
        level = perms[lo:hi]
        parents, gens = np.nonzero(level[:, simple] < n_pos)
        keys = void_rows(level[parents[:, None], simple_images[gens]])
        first = np.unique(keys, return_index=True)[1]
        first.sort()  # first occurrences in breadth-first order
        count = hi + len(first)
        if count > order:
            raise RecognitionError(
                f"the group of {system.describe()} has more than {order} elements"
            )
        parents, gens = parents[first], gens[first]
        for s, sp in enumerate(simple_perms):  # per generator: less peak RSS
            at = np.flatnonzero(gens == s)
            perms[hi + at] = level[np.ix_(parents[at], sp)]
        letters[hi:count] = letters[lo + parents]
        letters[hi:count, depth] = gens
        lengths[hi:count] = depth + 1
        lo, hi = hi, count
    if hi != order:
        raise RecognitionError(
            f"the group of {system.describe()} has {hi} elements, not {order}"
        )
    enum = GroupEnumeration(system, perms, words)
    system._group = enum
    return enum
