"""Reflection subgroups as closed root subsets: closure, types, intersections."""

import gc
import hashlib
import random
from collections import Counter
from itertools import repeat

import numpy as np
import pytest

from coxabs import linalg, parabolic, rootsystem
from coxabs.absorder import is_lattice_structural
from coxabs.classify import lattice_by_classification
from coxabs.element import (
    Element,
    enumerate_group,
    from_word,
    longest_element,
    reflection,
    simple_reflection,
)
from coxabs.field import FieldScalar
from coxabs.linalg import Subspace
from coxabs.parabolic import (
    Parabolic,
    all_subparabolics,
    closure_of_roots,
    enumerate_involutions,
    indices_from_mask,
    involution_masks,
    involutions_with_words,
    mask_from_indices,
    parabolic_closure,
    standard_parabolic,
)
from coxabs.rootsystem import (
    CapExceededError,
    RootSystem,
    named_coxeter_matrix,
    parse_label,
)
from coxabs.verify import SMALL_GROUP_TYPES


def counted(calls, label, fn):
    def wrapper(*args, **kwargs):
        calls[label] += 1
        return fn(*args, **kwargs)

    return wrapper


def full_parabolic(system):
    return Parabolic(system, (1 << system.n_pos) - 1)


def test_mask_helpers_round_trip():
    assert indices_from_mask(mask_from_indices([0, 3, 5])) == (0, 3, 5)
    assert mask_from_indices(()) == 0


def test_standard_parabolic_types():
    system = RootSystem.named("B3")
    assert standard_parabolic(system, [0, 1]).type_labels == (
        RootSystem.named("A2").label,
    )
    assert standard_parabolic(system, [1, 2]).type_labels == (
        RootSystem.named("B2").label,
    )
    assert str(standard_parabolic(system, [0, 2]).type_labels[0]) == "A1"
    assert len(standard_parabolic(system, [0, 2]).type_labels) == 2


def test_closure_of_roots_is_closed():
    system = RootSystem.named("D4")
    for indices in ([0, 1], [0, 5], [2, 7, 9]):
        p = closure_of_roots(system, indices)
        assert p.is_closed()
        for i in indices:
            assert i in p.root_indices


def test_parabolic_closure_of_w0():
    # closure of a full-support element is everything
    system = RootSystem.named("B3")
    p = parabolic_closure(longest_element(system))
    assert p.size == system.n_pos
    assert p.rank == 3
    assert str(p.type_labels[0]) == "B3"


# whole groups, and seeded samples of the larger ones
SAMPLED = {"H4": 240, "E6": 240}
# groups too large to enumerate, as seeded random words; E8 has the
# largest root coordinate (6), A20 the highest rank
WORDS = {"E7": 40, "E8": 40, "A20": 40}


def random_elements(system, rng, count):
    return [
        from_word(system, [rng.randrange(system.rank) for _ in range(system.n_pos)])
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "name", ["H3", "I2(5)", "G2", "B4", "F4", "H4", "E6", "E7", "E8", "A20"]
)
def test_parabolic_closure_via_subspace_matches_perm_route(name):
    # the moved space of w cuts out the same root subset the closure holds
    system = RootSystem.named(name)
    rng = random.Random(name)
    if name in WORDS:
        elements = random_elements(system, rng, WORDS[name])
    else:
        enum = enumerate_group(system)
        ids = range(enum.size)
        if name in SAMPLED:
            ids = rng.sample(ids, SAMPLED[name])
        elements = [enum.element(i) for i in ids]
    for w in elements:
        p = parabolic_closure(w)
        moved = w.moved_space()
        expected = [
            t for t in range(system.n_pos)
            if moved.contains(system.roots[t])
        ]
        assert list(p.root_indices) == expected
        assert p.rank == w.reflection_length()


@pytest.mark.parametrize("name", ["H4", "E6", "A20"])
def test_closure_of_roots_ignores_order_repeats_and_signs(name):
    system = RootSystem.named(name)
    rng = random.Random(name)
    n_pos = system.n_pos
    subsets = [
        [rng.randrange(system.n_roots) for _ in range(rng.randint(0, system.rank))]
        for _ in range(120)
    ]
    masks = []
    for s in subsets:
        mask = closure_of_roots(system, s).mask
        shuffled = rng.sample(s, len(s))
        repeated = shuffled + rng.choices(s, k=len(s))
        negated = [(t + n_pos) % system.n_roots if rng.random() < 0.5 else t for t in s]
        for variant in (shuffled, repeated, negated, s[::-1] + s):
            assert closure_of_roots(system, variant).mask == mask, (s, variant)
        masks.append(mask)
    full = (1 << n_pos) - 1
    assert sum(m not in (0, full) for m in masks) > 60


def test_neither_closure_runs_the_bareiss(monkeypatch):
    system = RootSystem.named("H4")
    w = from_word(system, [0, 1, 0, 2])
    assert not w.is_involution
    assert w.reflection_length() < system.rank  # no full-rank shortcut
    calls = Counter()
    monkeypatch.setattr(
        linalg, "_pivot_rows", counted(calls, "_pivot_rows", linalg._pivot_rows)
    )
    assert parabolic_closure(w).size > 0
    # three roots spanning a plane: a rank-deficient set
    a, b = system.simple_idx[:2]
    p = closure_of_roots(system, [a, b, system.reflection_table[a][b]])
    assert calls == Counter()
    assert p.rank == 2 and len(p.simple_system) == 2


@pytest.mark.parametrize("name", ["H4", "E6", "E8", "A20"])
def test_closure_of_roots_has_the_bareiss_rank_of_its_roots(name):
    # the fold keeps a root only outside the span of those kept before, so
    # its closure's rank is the rank of the input rows over Q(phi)
    system = RootSystem.named(name)
    rng = random.Random(name)
    for _ in range(100):
        count = rng.randint(0, system.rank + 2)
        roots = [rng.randrange(system.n_roots) for _ in range(count)]
        rank = linalg.rank_rational(system.packed_rows(roots)) // system.int_degree
        assert len(closure_of_roots(system, roots).simple_system) == rank, roots


#: whole groups, then seeded samples of group elements and of random words
CYCLE_GROUPS = ["H3", "B4", "F4", "D4", "G2", "I2(5)", "H4"]
CYCLE_SAMPLED = {"E6": 2000}
CYCLE_WORDS = {"E8": 40, "A30": 40}
#: of the words, how many get the row-span reference (about 0.25 s per A30 word)
CYCLE_CHECKED = {"E8": 40, "A30": 8}


def below_by_length(system, perms, enum=None) -> list[int]:
    """Per row of perms, the mask of the positive roots t with
    1 + l_T(t * w) = l_T(w): t lies below w in the absolute order exactly
    when its root lies in the moved space of w, the row span of the moved
    rows, whose rank l_T counts.  On an enumerated group one table
    left[t, k] = id(t * w_k) and enum.reflection_lengths give every l_T;
    otherwise each is an Element.reflection_length."""
    table, simple = system.reflection_table, system.simple_idx
    if enum is None:
        below = [
            [
                1 + Element(system, t[perm]).reflection_length()
                == Element(system, perm).reflection_length()
                for t in table
            ]
            for perm in perms
        ]
    else:
        ell = enum.reflection_lengths.astype(np.int64)
        ids = enum.ids_of_images(perms[:, simple])
        left = np.array([enum.ids_of_images(t[perms[:, simple]]) for t in table])
        below = (1 + ell[left] == ell[ids]).T
    return [mask_from_indices(np.flatnonzero(row)) for row in below]


@pytest.mark.parametrize("name", CYCLE_GROUPS + [*CYCLE_SAMPLED, *CYCLE_WORDS])
def test_zero_sum_cycles_match_the_row_span_and_flip_routes(name):
    system = RootSystem.named(name)
    rng = random.Random(name)
    if name in CYCLE_WORDS:
        words = random_elements(system, rng, CYCLE_WORDS[name])
        perms = np.array([w.perm for w in words])
        checked = sorted(rng.sample(range(len(perms)), CYCLE_CHECKED[name]))
        below = dict(zip(checked, below_by_length(system, perms[checked])))
    else:
        enum = enumerate_group(system)
        perms = enum.perms
        if name in CYCLE_SAMPLED:
            perms = perms[sorted(rng.sample(range(len(perms)), CYCLE_SAMPLED[name]))]
        below = dict(enumerate(below_by_length(system, perms, enum)))
    involutions = 0
    for k, perm in enumerate(perms):
        w = Element(system, perm)
        mask = parabolic._zero_sum_cycles(system, perm)
        if k in below:
            assert mask == below[k]
        assert mask == parabolic_closure(w).mask
        if w.is_involution:
            involutions += 1
            flipped = perm[: system.n_pos] == system.negatives
            assert mask == rootsystem.packed_mask(flipped)
    assert involutions > 0 or name in CYCLE_WORDS
    assert len(below) == CYCLE_CHECKED.get(name, len(perms))


def decode(packed, bits, ncols):
    """The signed fields of a packed int, column 0 lowest."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for _ in range(ncols):
        x = ((packed + half) & mask) - half
        out.append(x)
        packed = (packed - x) >> bits
    assert packed == 0
    return out


@pytest.mark.parametrize("name", ["E8", "B8", "A30", "H4"])
def test_cycle_rows_sums_decode_to_the_column_sums(name):
    system = RootSystem.named(name)
    rows = system.cycle_rows
    pos = np.array([r[0] for r in system.int_rows[: system.n_pos]], dtype=np.int64)
    ncols = pos.shape[1]
    # the width, read off the simple roots: row 0 of a_0 is a 1 in column
    # 0, and that of a_1 a 1 in column int_degree (a 1 + 0*phi on {1, phi})
    assert rows[system.simple_idx[0]] == 1
    bits = (rows[system.simple_idx[1]].bit_length() - 1) // system.int_degree
    assert len(rows) == system.n_roots
    assert all(rows[t + system.n_pos] == -rows[t] for t in range(system.n_pos))
    assert decode(sum(rows[: system.n_pos]), bits, ncols) == pos.sum(axis=0).tolist()
    # the bound's own worst case: n_roots copies of the largest entry
    k = int(np.abs(pos).max(axis=1).argmax())
    total = decode(system.n_roots * rows[k], bits, ncols)
    assert total == (system.n_roots * pos[k]).tolist()


@pytest.mark.parametrize("name", ["B3", "D4", "F4", "G2", "H3", "H4", "I2(5)", "E6"])
def test_closure_of_roots_matches_subspace_reference(name):
    system = RootSystem.named(name)
    rng = random.Random(name)
    for _ in range(100):
        # indices at or above n_pos are negative roots
        indices = [
            rng.randrange(system.n_roots) for _ in range(rng.randint(0, system.rank + 1))
        ]
        span = Subspace.from_vectors([system.roots[i] for i in indices], system.rank)
        expected = [t for t in range(system.n_pos) if span.contains(system.roots[t])]
        assert list(closure_of_roots(system, indices).root_indices) == expected


@pytest.mark.parametrize("name", ["F4", "H4"])
def test_closures_run_no_field_linear_algebra(name, monkeypatch):
    calls = Counter()
    monkeypatch.setattr(linalg, "kernel", counted(calls, "kernel", linalg.kernel))
    monkeypatch.setattr(linalg, "rref", counted(calls, "rref", linalg.rref))
    monkeypatch.setattr(
        Subspace,
        "from_vectors",
        staticmethod(counted(calls, "from_vectors", Subspace.from_vectors)),
    )
    monkeypatch.setattr(Subspace, "contains", counted(calls, "contains", Subspace.contains))
    system = RootSystem.named(name)
    w = from_word(system, [0, 1, 2])
    assert not w.is_involution
    assert parabolic_closure(w).size > 0
    assert closure_of_roots(system, [0, 5, system.n_pos + 7]).size > 0
    assert calls == Counter()
    # the FieldScalar reference goes through every counted name
    w.fixed_space().contains(system.roots[0])
    assert set(calls) == {"kernel", "rref", "from_vectors", "contains"}


@pytest.mark.parametrize("name", ["F4", "H4"])
def test_verdicts_run_no_form_arithmetic(name, monkeypatch):
    # a fresh system, so that no closure type is cached yet
    system = RootSystem(named_coxeter_matrix(name), parse_label(name))
    involutions = enumerate_involutions(standard_parabolic(system, range(system.rank)))
    calls = Counter()
    inner = FieldScalar.__mul__

    def counting(self, other):
        calls["mul"] += 1
        return inner(self, other)

    monkeypatch.setattr(FieldScalar, "__mul__", counting)
    monkeypatch.setattr(FieldScalar, "__rmul__", counting)
    assert any(system.orthogonal_masks)
    for u in involutions:
        assert lattice_by_classification(u) == is_lattice_structural(u)[0]
    assert calls == Counter()
    # the form is the reference and goes through the counted product
    system.bilinear(0, 1)
    assert calls["mul"] > 0


@pytest.mark.parametrize("name", ["B4", "F4", "H4"])
def test_intersection_is_mask_and_and_matches_span_route(name):
    system = RootSystem.named(name)
    p = standard_parabolic(system, [0, 1, 2])
    q = standard_parabolic(system, [1, 2, 3])
    inter = p.intersect(q)
    assert inter.mask == p.mask & q.mask
    # spans U, U': the roots in both; dim(U & U') = dim U + dim U' - dim(U + U')
    roots_in_span = [
        t for t in range(system.n_pos)
        if p.span.contains(system.roots[t]) and q.span.contains(system.roots[t])
    ]
    assert list(inter.root_indices) == roots_in_span
    assert p.span.contains_subspace(inter.span) and q.span.contains_subspace(inter.span)
    assert inter.rank == p.rank + q.rank - linalg.rank([*p.span.basis, *q.span.basis])
    assert inter.is_closed()


def test_component_split():
    system = RootSystem.named("A3")
    p = standard_parabolic(system, [0, 2])
    comps = p.components
    assert len(comps) == 2
    assert all(c.size == 1 for c in comps)
    joined = comps[0].mask | comps[1].mask
    assert joined == p.mask


def test_parabolics_are_interned_and_compute_each_property_once(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(
        parabolic, "recognize", counted(calls, "recognize", parabolic.recognize)
    )
    system = RootSystem(named_coxeter_matrix(parse_label("B3")))  # uncached
    mask = standard_parabolic(system, [1, 2]).mask
    first, second = Parabolic(system, mask), Parabolic(system, mask)
    assert first is second
    assert first.type_labels == second.type_labels == (parse_label("B2"),)
    assert calls["recognize"] == 1
    assert first.longest_element is second.longest_element
    # a component names itself on first use, with one recognize of its own
    comps = standard_parabolic(system, [0, 2]).components
    assert [c.type_labels for c in comps] == [(parse_label("A1"),)] * 2
    assert calls["recognize"] == 4


def test_group_order_of_parabolic():
    system = RootSystem.named("H4")
    p = standard_parabolic(system, [0, 1, 2])
    assert str(p.type_labels[0]) == "H3"
    assert p.group_order == 120


def test_longest_element_of_parabolic_inverts_its_roots():
    system = RootSystem.named("B4")
    p = standard_parabolic(system, [0, 1])
    w0 = p.longest_element
    assert w0.is_involution
    inverted = [t for t in range(system.n_pos) if w0.perm[t] >= system.n_pos]
    assert inverted == list(p.root_indices)


def test_involutive_parabolic_has_central_minus_id():
    system = RootSystem.named("D4")
    # simples 0 and 1 are the orthogonal outer nodes, so this is A1 x A1
    p = closure_of_roots(system, [system.simple_idx[0], system.simple_idx[1]])
    assert p.is_involutive
    central = p.central_involution
    assert central is not None
    assert central.is_involution
    assert parabolic_closure(central) == p
    # an A2 closure has no length-2 central involution
    q = standard_parabolic(system, [2, 3])
    assert str(q.type_labels[0]) == "A2"
    assert not q.is_involutive


def test_involution_closures_are_involutive():
    # the defining examples: closures of involutions
    system = RootSystem.named("B3")
    enum = enumerate_group(system)
    for i in enum.involution_ids():
        w = enum.element(int(i))
        p = parabolic_closure(w)
        assert p.is_involutive
        if i:  # id 0 is the identity
            assert p.central_involution == w


def test_involution_counts_by_enumeration():
    for name, count in (("A2", 4), ("B2", 6), ("A3", 10), ("B3", 20), ("D4", 44)):
        system = RootSystem.named(name)
        enum = enumerate_group(system)
        assert len(enum.involution_ids()) == count
        full = full_parabolic(system)
        assert len(involutions_with_words(full)[1]) == count
        assert len(enumerate_involutions(full)) == count


def test_involution_words_are_orthogonal_reflections():
    system = RootSystem.named("B3")
    full = full_parabolic(system)
    perms, words = involutions_with_words(full)
    for w, word in zip(map(Element, repeat(system), perms), words):
        assert w.is_involution
        assert len(word) == w.reflection_length()
        rebuilt = None
        for t in word:
            r = reflection(system, t)
            rebuilt = r if rebuilt is None else rebuilt * r
        if rebuilt is not None:
            assert rebuilt == w
        # the word letters commute pairwise
        for a in word:
            for b in word:
                ra, rb = reflection(system, a), reflection(system, b)
                assert ra * rb == rb * ra


def test_central_involution_of_d4_has_full_length():
    system = RootSystem.named("D4")
    w0 = longest_element(system)
    assert w0.reflection_length() == 4
    assert parabolic_closure(w0).size == system.n_pos


def test_commuting_reflections_are_orthogonal():
    system = RootSystem.named("B3")
    from coxabs.field import ZERO

    for a in range(system.n_pos):
        for b in range(a + 1, system.n_pos):
            ra, rb = reflection(system, a), reflection(system, b)
            commute = ra * rb == rb * ra
            orthogonal = system.bilinear(a, b) == ZERO
            assert commute == orthogonal


def test_all_subparabolics_count_b2():
    system = RootSystem.named("B2")
    full = full_parabolic(system)
    subs = all_subparabolics(full)
    # trivial, four A1 lines, the full B2
    assert len(subs) == 6
    sizes = sorted(p.size for p in subs)
    assert sizes == [0, 1, 1, 1, 1, 4]


def test_all_subparabolics_are_closed_and_distinct():
    system = RootSystem.named("A3")
    subs = all_subparabolics(full_parabolic(system))
    assert len({p.mask for p in subs}) == len(subs)
    assert all(p.is_closed() for p in subs)
    # contains every reflection line and the full set
    assert sum(1 for p in subs if p.size == 1) == system.n_pos
    assert any(p.size == system.n_pos for p in subs)


def test_conjugate_parabolic():
    system = RootSystem.named("A3")
    p = standard_parabolic(system, [0])
    w = from_word(system, [1, 0])
    q = p.conjugate_by(w)
    assert q.size == 1
    expected = w * simple_reflection(system, 0) * w.inverse()
    assert q.contains_element(expected)


def test_span_dimension_matches_rank():
    system = RootSystem.named("H3")
    p = closure_of_roots(system, [0, 1])
    assert p.rank == p.span.dim == 2
    assert isinstance(p.span, Subspace)


@pytest.mark.parametrize("name", SMALL_GROUP_TYPES + ("D6", "E6", "H4"))
def test_involution_words_start_at_the_smallest_flipped_root(name):
    # the search keeps the lexicographically first clique of each
    # involution x: the smallest root t that x sends to -t, then the
    # word of x s_t
    system = RootSystem.named(name)
    n_pos = system.n_pos
    perms, words = involutions_with_words(full_parabolic(system))
    pairs = list(zip(map(Element, repeat(system), perms), words))
    word_of = {x.key(): word for x, word in pairs}
    for x, word in pairs:
        flipped = np.flatnonzero(x.perm[:n_pos] == np.arange(n_pos) + n_pos)
        if not len(flipped):
            assert word == ()
            continue
        t = int(flipped[0])
        assert word == (t,) + word_of[(x * reflection(system, t)).key()]


@pytest.mark.parametrize("name", SMALL_GROUP_TYPES + ("D6", "E6", "H4"))
def test_involution_masks_equal_the_closures(name):
    system = RootSystem.named(name)
    perms, words = involutions_with_words(full_parabolic(system))
    masks = involution_masks(system, perms)
    assert masks == [parabolic_closure(Element(system, x)).mask for x in perms]
    # and the closures of the word letters, by the span route
    assert masks == [closure_of_roots(system, word).mask for word in words]


def test_orthogonal_masks_are_the_orthogonality_rows():
    # s_t fixes b exactly when B(a_t, b) = 0
    system = RootSystem.named("E6")
    n_pos = system.n_pos
    for t, mask in enumerate(system.orthogonal_masks):
        fixed = system.reflection_table[t, :n_pos] == np.arange(n_pos)
        assert mask == mask_from_indices(np.flatnonzero(fixed))


@pytest.mark.parametrize("name", ["E6", "H4"])
def test_inversion_masks_are_the_rows_sent_negative(name):
    system = RootSystem.named(name)
    n_pos = system.n_pos
    assert len(system.inversion_masks) == n_pos
    for t, mask in enumerate(system.inversion_masks):
        negative = np.flatnonzero(system.reflection_table[t, :n_pos] >= n_pos)
        assert mask == mask_from_indices(negative)


@pytest.mark.parametrize("name", ["B3", "D4", "F4", "H3", "H4", "E6"])
def test_simple_system_keeps_its_roots_positive(name):
    # b is simple in the subsystem exactly when s_b keeps every other
    # subsystem positive root positive
    system = RootSystem.named(name)
    step = 7 if name in ("H4", "E6") else 1
    for p in all_subparabolics(full_parabolic(system))[::step]:
        expected = tuple(
            b
            for b in p.root_indices
            if all(system.reflection_table[b][c] < system.n_pos for c in p.root_indices if c != b)
        )
        assert p.simple_system == expected
        assert len(expected) == p.rank


def test_repr_counts_the_simple_system_as_the_span_rank():
    system = RootSystem.named("H3")
    for p in all_subparabolics(closure_of_roots(system, range(system.n_pos))):
        types = rootsystem.format_type_multiset(p.type_labels)
        assert repr(p) == f"Parabolic({types}, {p.rank} roots span)"


def reference_longest_element(p):
    """Greedy descent one simple root at a time: multiply by the
    reflection of the first simple root the product still sends positive."""
    system = p.system
    perm = np.arange(system.n_roots, dtype=rootsystem.PERM_DTYPE)
    while True:
        up = next((b for b in p.simple_system if perm[b] < system.n_pos), None)
        if up is None:
            return perm
        perm = perm[system.reflection_table[up]]


@pytest.mark.parametrize("name,step", [("F4", 1), ("H4", 7)])
def test_longest_element_matches_the_reference_descent(name, step):
    system = RootSystem.named(name)
    for p in all_subparabolics(full_parabolic(system))[::step]:
        w0 = reference_longest_element(p)
        assert np.array_equal(p.longest_element.perm, w0)
        assert p.is_involutive == all(
            int(w0[b]) == b + system.n_pos for b in p.simple_system
        )


#: sha256 of involutions_with_words on the full parabolics of the lattice
#: workload's groups: per group its label, then per involution, in order,
#: its row as little-endian int16 bytes and the repr of its word
INVOLUTION_SEARCH_DIGEST = (
    "974c8edf1867d9477fbd145a345d055bef315fbf65b7d0bc5135d87fb0d34357"
)


def test_involution_search_output_is_pinned():
    # interval ids, witnesses and the golden files all rest on this order
    digest = hashlib.sha256()
    for label in ("D6", "F4", "H4", "B5", "E6"):
        perms, words = involutions_with_words(full_parabolic(RootSystem.named(label)))
        assert perms.dtype == rootsystem.PERM_DTYPE
        digest.update(label.encode())
        for row, word in zip(perms, words):
            digest.update(row.astype("<i2").tobytes())
            digest.update(repr(word).encode())
    assert digest.hexdigest() == INVOLUTION_SEARCH_DIGEST


def test_a_search_leaves_no_cyclic_garbage(monkeypatch):
    # the recursive search refers to itself; once it returns or refuses,
    # its found dict and rows must go with their last reference, not wait
    # for the cyclic collector.  A fresh system, so that each call searches
    system = RootSystem(named_coxeter_matrix("E6"), parse_label("E6"))
    whole = parabolic_closure(longest_element(system))
    pair = closure_of_roots(system, system.simple_idx[:2])
    assert pair.type_labels == (parse_label("A1"),) * 2
    gc.collect()
    gc.disable()
    try:
        assert len(involutions_with_words(whole)[1]) == 44  # P(w0) is D4
        assert len(involutions_with_words(pair)[1]) == 4
        assert gc.collect() == 0
        monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 2048)
        refused = False
        try:
            involutions_with_words(whole)
        except CapExceededError:
            refused = True
        assert refused
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_search_returns_read_only_arrays():
    perms, words = involutions_with_words(full_parabolic(RootSystem.named("F4")))
    assert not perms.flags.writeable
    with pytest.raises(ValueError):
        perms[0, 0] = 1
    assert isinstance(words, tuple)


def test_the_search_is_refused_under_a_lowered_cap(monkeypatch):
    # H3 w0 is -Id: its 32 involutions are all candidates; 32 rows of 30
    # entries held twice at 2 bytes each, plus 32 down-sets of 32 bits,
    # take 32 * 120 + 128 = 3 968 bytes
    p = parabolic_closure(longest_element(RootSystem.named("H3")))
    assert len(involutions_with_words(p)[1]) == 32
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 3967)
    message = (
        "the involution search passed 31 elements, whose down-set table "
        "would pass the cap of 3967 bytes"
    )
    with pytest.raises(CapExceededError) as excinfo:
        involutions_with_words(p)
    assert str(excinfo.value) == message
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 3968)
    assert len(involutions_with_words(p)[1]) == 32
