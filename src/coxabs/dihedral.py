"""Symbolic dihedral groups, exact for every bond label m.

The geometric route needs the root system inside the field Q(phi), which
limits it to m <= 6.  A dihedral group is small enough to handle purely
combinatorially instead: elements are rotation/reflection symbols over
Z_m with the usual composition rules, reflection length is 0, 1 or 2,
and a parabolic closure is a mask over the m reflection axes, as
Parabolic.mask is over the positive roots: no axis (the trivial
subgroup), one axis, or all of them (the whole group), intersecting by &.
The same three lattice tests as in the geometric case are mirrored here
on the symbolic elements, so intervals of I2(m) can be checked for any m.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import rootsystem
from .absorder import first_meet_failure
from .rootsystem import ROW_BLOCK, CapExceededError, format_type_multiset, make_label


@dataclasses.dataclass(frozen=True, order=True)
class DihedralElement:
    """A rotation by k steps (is_reflection False) or the reflection in
    axis k (is_reflection True), with k taken mod m."""

    is_reflection: bool
    k: int

    def describe(self) -> str:
        if self.is_reflection:
            return f"f{self.k}"
        return "e" if self.k == 0 else f"r{self.k}"


class Dihedral:
    """The dihedral group of order 2m with generators s = f0, t = f1.

    The product s * t is the rotation of order exactly m, so (s, t) has
    Coxeter matrix I2(m).  Rotations act as x -> x + k on axis labels and
    reflections as x -> k - x.
    """

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("dihedral bond must be at least 2")
        self.m = m

    # -- elements ---------------------------------------------------------

    @property
    def identity(self) -> DihedralElement:
        return DihedralElement(False, 0)

    def rotation(self, k: int) -> DihedralElement:
        return DihedralElement(False, k % self.m)

    def reflection(self, j: int) -> DihedralElement:
        return DihedralElement(True, j % self.m)

    @property
    def generators(self) -> tuple[DihedralElement, DihedralElement]:
        return (self.reflection(0), self.reflection(1))

    def all_elements(self) -> list[DihedralElement]:
        return [self.rotation(k) for k in range(self.m)] + [
            self.reflection(j) for j in range(self.m)
        ]

    # -- group law ----------------------------------------------------------

    def mul(self, a: DihedralElement, b: DihedralElement) -> DihedralElement:
        m = self.m
        if not a.is_reflection and not b.is_reflection:
            return DihedralElement(False, (a.k + b.k) % m)
        if not a.is_reflection:
            return DihedralElement(True, (b.k + a.k) % m)
        if not b.is_reflection:
            return DihedralElement(True, (a.k - b.k) % m)
        return DihedralElement(False, (a.k - b.k) % m)

    def inv(self, a: DihedralElement) -> DihedralElement:
        if a.is_reflection:
            return a
        return DihedralElement(False, (-a.k) % self.m)

    def from_word(self, word) -> DihedralElement:
        gens = self.generators
        out = self.identity
        for letter in word:
            if letter not in (0, 1):
                raise ValueError("dihedral words use generator indices 0 and 1")
            out = self.mul(out, gens[letter])
        return out

    def longest_element(self) -> DihedralElement:
        word = [i % 2 for i in range(self.m)]
        return self.from_word(word)

    # -- lengths and involutions -----------------------------------------------

    def reflection_length(self, a: DihedralElement) -> int:
        if a.is_reflection:
            return 1
        return 0 if a.k == 0 else 2

    def is_involution(self, a: DihedralElement) -> bool:
        return self.mul(a, a) == self.identity

    def involutions(self) -> list[DihedralElement]:
        return [x for x in self.all_elements() if self.is_involution(x)]

    def leq_T(self, a: DihedralElement, b: DihedralElement) -> bool:
        c = self.mul(self.inv(a), b)
        return (
            self.reflection_length(a) + self.reflection_length(c)
            == self.reflection_length(b)
        )

    # -- parabolic closures -------------------------------------------------

    def closure_mask(self, a: DihedralElement) -> int:
        """The parabolic closure as a mask over the reflection axes: 0 for
        the identity, bit k for the reflection f_k, and every axis for a
        nontrivial rotation (which fixes only the origin)."""
        if a.is_reflection:
            return 1 << a.k
        return 0 if a.k == 0 else (1 << self.m) - 1

    def closure_is_involutive(self, mask: int) -> bool:
        """Whether the longest element of the subgroup is -Id on its span."""
        return mask.bit_count() < 2 or self.m % 2 == 0

    def closure_type_string(self, mask: int) -> str:
        axes = mask.bit_count()
        if axes < 2:
            return ("trivial", "A1")[axes]
        if self.m == 2:
            return format_type_multiset(
                [make_label("A", 1), make_label("A", 1)]
            )
        return str(make_label("I", 2, self.m))

    # -- intervals and the three lattice tests ----------------------------------

    def _members(self, u: DihedralElement) -> list[DihedralElement]:
        """The elements of [1, u] for an involution u, in rank order.

        Raises CapExceededError, before listing any member, when the n x n
        order matrix and the n down-sets of n bits that lattice_bruteforce
        builds from it would pass TABLE_CAP_BYTES; below the half turn of
        even m, n = m + 2.
        """
        if not self.is_involution(u):
            raise ValueError("interval construction requires an involution top")
        axes = self.closure_mask(u).bit_count()
        n = axes + 1 if axes < 2 else self.m + 2
        cap = rootsystem.TABLE_CAP_BYTES
        if n * (n + (n + 7) // 8) > cap:
            raise CapExceededError(
                f"the interval below {u.describe()} in I2({self.m}) has {n} "
                f"elements, whose order matrix would pass the cap of {cap} bytes"
            )
        members = [self.identity, u][:n] if axes < 2 else self.involutions()
        members.sort(key=lambda x: (self.reflection_length(x), x))
        return members

    def interval(self, u: DihedralElement):
        """[1, u] for an involution u: elements, ranks, order matrix.

        leq[a, b] is leq_T's l_T(a) + l_T(a^-1 b) = l_T(b), ROW_BLOCK rows at
        a time: a^-1 b is a reflection when just one of a and b is, and else
        the rotation by +-(b.k - a.k), trivial exactly when a.k = b.k.
        """
        members = self._members(u)
        ranks = np.array([self.reflection_length(x) for x in members], dtype=np.int16)
        refl, k = np.array([(x.is_reflection, x.k) for x in members]).T
        leq = np.empty((len(members), len(members)), dtype=np.bool_)
        for lo in range(0, len(members), ROW_BLOCK):
            a = slice(lo, lo + ROW_BLOCK)
            step = (k[a, None] != k) * np.int8(2)  # l_T of a^-1 b
            step[refl[a, None] != refl] = 1
            np.equal(ranks[a, None] + step, ranks, out=leq[a])
        return members, ranks, leq

    def lattice_bruteforce(self, u: DihedralElement):
        members, _, leq = self.interval(u)
        # members run in rank order, a linear extension, as the scan needs
        failure = first_meet_failure(rootsystem.packed_masks(leq.T))
        if failure is None:
            return True, None
        return False, (members[failure[0]], members[failure[1]])

    def lattice_structural(self, u: DihedralElement):
        masks = [self.closure_mask(x) for x in self._members(u)]
        for j in range(len(masks)):
            for i in range(j):
                inter = masks[i] & masks[j]
                if not self.closure_is_involutive(inter):
                    return False, (masks[i], masks[j], inter)
        return True, None

    def lattice_by_classification(self, u: DihedralElement) -> bool:
        from .classify import is_good_type  # deferred: classify imports this module

        if self.closure_mask(u).bit_count() < 2 or self.m == 2:
            return True  # no axis, one axis, or two commuting A1 components
        return is_good_type(make_label("I", 2, self.m))

    def verdicts(self, u: DihedralElement) -> tuple[bool, bool, bool]:
        """The three lattice verdicts on [1, u], in the order (order
        matrix, closure intersections, type table)."""
        return (
            self.lattice_bruteforce(u)[0],
            self.lattice_structural(u)[0],
            self.lattice_by_classification(u),
        )
