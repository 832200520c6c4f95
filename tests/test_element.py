"""Group elements as root permutations: words, lengths, enumeration."""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coxabs import linalg, rootsystem
from coxabs.element import (
    CapExceededError,
    check_T_reduced,
    enumerate_group,
    from_word,
    identity,
    longest_element,
    orbit_labels,
    reflection,
    simple_conjugates,
    simple_reflection,
)
from coxabs.field import ONE, PHI, ZERO
from coxabs.rootsystem import (
    CoxeterMatrix,
    RecognitionError,
    RootSystem,
    named_coxeter_matrix,
    parse_label,
)
from coxabs.verify import SMALL_GROUP_TYPES

GROUP_ORDERS = [
    ("A2", 6),
    ("B2", 8),
    ("A3", 24),
    ("B3", 48),
    ("D4", 192),
    ("H3", 120),
    ("I2(5)", 10),
    ("I2(6)", 12),
]


@pytest.mark.parametrize("name,order", GROUP_ORDERS)
def test_group_orders(name, order):
    system = RootSystem.named(name)
    assert rootsystem.group_order(system.label) == order
    assert system.group_order == order
    enum = enumerate_group(system)
    assert enum.size == order


def b2xa1_system():
    text = (Path(__file__).parent / "data" / "matrices" / "b2xa1.txt").read_text()
    return RootSystem(CoxeterMatrix.from_text(text))


def test_reducible_group_order_is_the_product():
    system = b2xa1_system()
    assert system.group_order == 8 * 2
    assert enumerate_group(system).size == 16


def reference_enumeration(system):
    """Breadth-first enumeration into a list and a dict keyed by the whole
    permutation: the group table's reference."""
    simple_perms = [system.reflection_table[t] for t in system.simple_idx]
    ident = np.arange(system.n_roots, dtype=np.int32)
    perms = [ident]
    words = [()]
    index = {ident.tobytes(): 0}
    head = 0
    while head < len(perms):
        for s, sp in enumerate(simple_perms):
            new = perms[head][sp]
            if new.tobytes() not in index:
                index[new.tobytes()] = len(perms)
                perms.append(new)
                words.append(words[head] + (s,))
        head += 1
    return np.vstack(perms), words, index


@pytest.mark.parametrize(
    "name",
    [name for name, _ in GROUP_ORDERS] + ["A1", "B5", "D6", "F4", "H4", "E6", "b2xa1"],
)
def test_group_table_matches_the_reference(name):
    system = b2xa1_system() if name == "b2xa1" else RootSystem.named(name)
    enum = enumerate_group(system)
    perms, words, index = reference_enumeration(system)
    assert enum.perms.dtype == np.int16
    assert np.array_equal(enum.perms, perms)
    assert list(enum.words) == words
    assert len(index) == enum.size
    ids = enum.ids_of_images(enum.perms[:, system.simple_idx])
    expected = [index[row.tobytes()] for row in perms]
    assert ids.tolist() == expected == list(range(enum.size))


def test_identity_and_generator_relations():
    system = RootSystem.named("B2")
    e = identity(system)
    s = simple_reflection(system, 0)
    t = simple_reflection(system, 1)
    assert e == identity(system)
    assert s * s == e
    assert t * t == e
    # the bond-4 braid relation
    assert s * t * s * t == t * s * t * s
    assert (s * t) * (s * t) != e


def test_from_word_and_reduced_word():
    system = RootSystem.named("A3")
    w = from_word(system, [0, 1, 0])
    assert w.length_S() == 3
    again = from_word(system, w.reduced_word())
    assert again == w
    # non-reduced input still multiplies out correctly
    assert from_word(system, [0, 0, 1]) == from_word(system, [1])


def test_inversion_set_counts_length():
    system = RootSystem.named("B3")
    w0 = longest_element(system)
    assert sorted(w0.inversion_set()) == list(range(system.n_pos))
    assert w0.length_S() == system.n_pos
    s = simple_reflection(system, 1)
    assert s.inversion_set() == [system.simple_idx[1]]


def test_longest_element_is_an_involution():
    names = ("A3", "B3", "D4", "H3", "I2(5)", "G2", "F4", "E6")
    for system in [RootSystem.named(name) for name in names] + [b2xa1_system()]:
        w0 = longest_element(system)
        assert w0.is_involution
        assert w0 * w0 == identity(system)
        assert w0.length_S() == system.n_pos


def test_w0_central_exactly_when_minus_id():
    # B3 has w0 = -Id, A3 does not
    b3 = RootSystem.named("B3")
    w0 = longest_element(b3)
    assert all(int(w0.perm[i]) == (i + b3.n_pos) % b3.n_roots for i in range(b3.n_roots))
    a3 = RootSystem.named("A3")
    w0 = longest_element(a3)
    assert any(int(w0.perm[i]) != (i + a3.n_pos) % a3.n_roots for i in range(a3.n_roots))


@pytest.mark.parametrize("name", ["B3", "H3", "I2(5)", "G2", "F4"])
def test_reflection_length_equals_moved_space_dimension(name):
    system = RootSystem.named(name)
    enum = enumerate_group(system)
    for i in range(enum.size):
        w = enum.element(i)
        assert w.reflection_length() == w.moved_space().dim
        assert w.fixed_space().dim + w.moved_space().dim == system.rank


def test_reflection_length_values():
    system = RootSystem.named("B2")
    e = identity(system)
    s = simple_reflection(system, 0)
    t = simple_reflection(system, 1)
    assert e.reflection_length() == 0
    assert s.reflection_length() == 1
    assert (s * t * s).reflection_length() == 1
    assert (s * t).reflection_length() == 2
    assert (s * t * s * t).reflection_length() == 2


def test_reflection_constructor_matches_table():
    system = RootSystem.named("A3")
    for t in range(system.n_pos):
        r = reflection(system, t)
        assert r.is_involution
        assert r.reflection_length() == 1
        assert int(r.perm[t]) == (t + system.n_pos) % system.n_roots


def test_check_T_reduced():
    system = RootSystem.named("B2")
    s0 = system.simple_idx[0]
    s1 = system.simple_idx[1]
    assert check_T_reduced(system, [])
    assert check_T_reduced(system, [s0])
    assert not check_T_reduced(system, [s0, s0])
    assert check_T_reduced(system, [s0, s1])
    # rank 2 admits no independent triple of roots
    sts = from_word(system, [0, 1, 0])
    t_idx = int(np.argmax(sts.perm[: system.n_pos] >= system.n_pos))
    assert check_T_reduced(system, [s0, s1, t_idx]) is False

    # H3 takes the Z[phi] rows
    system = RootSystem.named("H3")
    n_pos = system.n_pos
    simples = list(system.simple_idx)
    assert check_T_reduced(system, simples)
    # (1, phi, 0), (phi, 1, 0) and a3 are independent over Q(phi)
    mixed = [
        system.roots.index(root)
        for root in [(ONE, PHI, ZERO), (PHI, ONE, ZERO), (ZERO, ZERO, ONE)]
    ]
    assert check_T_reduced(system, mixed)
    # (phi, phi, 0) = phi (a1 + a2) depends on a1 and a2 only over Q(phi)
    tilted = system.roots.index((PHI, PHI, ZERO))
    assert not check_T_reduced(system, simples[:2] + [tilted])
    # a fourth root, a repeated root, or a root and its negative
    assert not check_T_reduced(system, simples + [tilted])
    assert not check_T_reduced(system, [mixed[0], mixed[0]])
    assert not check_T_reduced(system, [mixed[0], mixed[0] + n_pos])
    # every pair and triple agrees with the Q(phi) rank of the roots
    for size in (2, 3):
        for idx in itertools.combinations(range(n_pos), size):
            roots = [system.roots[t] for t in idx]
            assert check_T_reduced(system, idx) == (linalg.rank(roots) == size)


@pytest.mark.parametrize("name", ["B3", "H3"])
def test_reflection_length_miss_calls_rank_rational_once(name, monkeypatch):
    # a fresh system, so that its l_T cache starts empty
    system = RootSystem(named_coxeter_matrix(name))
    calls = []
    inner = linalg.rank_rational

    def counting(matrix):
        calls.append(1)
        return inner(matrix)

    monkeypatch.setattr(linalg, "rank_rational", counting)
    w0 = longest_element(system)
    assert w0.reflection_length() == system.rank
    assert len(calls) == 1
    # memoized in the per-system cache, which another Element of w0 reads
    assert w0.reflection_length() == system.rank
    assert from_word(system, w0.reduced_word()).reflection_length() == system.rank
    assert len(calls) == 1
    s = simple_reflection(system, 0)
    assert s.reflection_length() == 1
    assert len(calls) == 2


def test_enumeration_index_and_inverses():
    system = RootSystem.named("A3")
    enum = enumerate_group(system)
    inv = enum.inverse_ids
    for i in range(enum.size):
        w = enum.element(i)
        assert enum.ids_of_images(w.perm[None, system.simple_idx])[0] == i
        assert enum.element(int(inv[i])) == w.inverse()
    # words are S-reduced
    for i in range(enum.size):
        assert len(enum.words[i]) == enum.element(i).length_S()


def test_enumeration_reflection_lengths_and_involutions():
    system = RootSystem.named("B3")
    enum = enumerate_group(system)
    lengths = enum.reflection_lengths
    for i in range(0, enum.size, 7):
        assert int(lengths[i]) == enum.element(i).reflection_length()
    involutions = enum.involution_ids()
    assert all((enum.perms[i][enum.perms[i]] == np.arange(system.n_roots)).all() for i in involutions)
    # identity plus proper involutions of the hyperoctahedral group on 3 letters
    assert len(involutions) == 20


def test_oversized_group_table_is_refused(monkeypatch):
    # A3: 24 elements, 12 roots, 6 positive, rank 3: per element a row of
    # 24 bytes, a key of 6 and its id of 8, 6 + 1 bytes of word, 32 of margin
    system = RootSystem.named("A3")
    monkeypatch.setattr(system, "_group", None)
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 1847)
    with pytest.raises(CapExceededError) as err:
        enumerate_group(system)
    assert "1847" in str(err.value)
    assert system._group is None
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 1848)
    assert enumerate_group(system).perms.nbytes == 576


@pytest.mark.parametrize(
    "shift, message", [(-1, "has more than 47 elements"), (1, "has 48 elements, not 49")]
)
def test_wrong_group_order_is_refused(shift, message, monkeypatch):
    # B3 has 48 elements: the walk finds one too many, or one too few
    system = RootSystem.named("B3")
    monkeypatch.setattr(system, "_group", None)
    monkeypatch.setattr(system, "group_order", 48 + shift)
    with pytest.raises(RecognitionError, match=message):
        enumerate_group(system)
    assert system._group is None


@pytest.mark.parametrize(
    "name, admitted",
    [("D7", True), ("A8", True), ("B7", True), ("E7", False), ("D8", False), ("A9", False)],
)
def test_group_cap_counts_words_and_index(name, admitted, monkeypatch):
    # the cap is decided from the order alone: stop at the table allocation
    class Allocated(Exception):
        pass

    def allocate(*args, **kwargs):
        raise Allocated

    system = RootSystem.named(name)
    monkeypatch.setattr(system, "_group", None)
    monkeypatch.setattr(np, "empty", allocate)
    with pytest.raises(Allocated if admitted else CapExceededError):
        enumerate_group(system)


def test_e7_group_is_refused_before_it_allocates():
    system = RootSystem.named("E7")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="2903040 elements"):
            enumerate_group(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enumeration_peak_fits_the_lean_layout():
    # a system of its own, enumerated under tracemalloc: per element a row of
    # 2 bytes per root, one byte per letter of the longest word and one for
    # the length, and at most the 32 bytes the cap keeps for the level step
    system = RootSystem(named_coxeter_matrix("E6"), parse_label("E6"))
    tracemalloc.start()
    try:
        enum = enumerate_group(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    layout = enum.size * (2 * system.n_roots + system.n_pos + 1)
    assert peak <= layout + 32 * enum.size
    held = enum.perms.nbytes + enum.words.letters.nbytes + enum.words.lengths.nbytes
    assert held == layout


def test_reflection_lengths_hold_one_conjugate_key_array_at_a_time():
    # a system of its own with its keys sorted, then whole-group l_T under
    # tracemalloc: per element an int64 id under each simple reflection,
    # one generator's int16 conjugate keys, and 32 bytes for orbit_labels;
    # all rank conjugate key arrays at once would pass this
    system = RootSystem(named_coxeter_matrix("E6"), parse_label("E6"))
    enum = enumerate_group(system)
    enum.sorted_keys
    tracemalloc.start()
    try:
        enum.reflection_lengths
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= enum.size * (8 * system.rank + 2 * system.rank + 32)


def test_words_read_as_a_sequence_of_tuples():
    system = RootSystem.named("B3")
    enum = enumerate_group(system)
    words = enum.words
    assert len(words) == enum.size == 48
    assert words[0] == () and words[1] == (0,)
    assert words[-1] == words[47] and words[-48] == words[0]
    assert from_word(system, words[-1]) == longest_element(system)
    assert len(words[-1]) == system.n_pos
    for i in (48, -49):
        with pytest.raises(IndexError):
            words[i]
    it = iter(words)
    listed = [next(it) for _ in range(48)]
    with pytest.raises(StopIteration):
        next(it)
    assert listed == list(words) == [words[i] for i in range(48)]
    assert all(type(w) is tuple and all(type(s) is int for s in w) for w in listed)


def test_multiplication_convention():
    # (u v)(root) = u(v(root)) so perms compose right to left
    system = RootSystem.named("A2")
    s = simple_reflection(system, 0)
    t = simple_reflection(system, 1)
    st = s * t
    for i in range(system.n_roots):
        assert int(st.perm[i]) == int(s.perm[int(t.perm[i])])


@pytest.mark.parametrize("name", ["H4", "E6"])
def test_ids_of_images_equals_the_dict_lookup(name):
    system = RootSystem.named(name)
    enum = enumerate_group(system)
    simple = system.simple_idx
    assert np.array_equal(enum.ids_of_images(enum.perms[:, simple]), np.arange(enum.size))
    # the reference: a dict from each element's key to its id
    index = {row.tobytes(): i for i, row in enumerate(enum.perms[:, simple])}
    # every element times every simple reflection, and every inverse
    images = [enum.perms[:, system.reflection_table[t][simple]] for t in simple]
    images.append(np.argsort(enum.perms, axis=1)[:, simple])
    for rows in images:
        expected = [index[row.astype(np.int16).tobytes()] for row in rows]
        assert enum.ids_of_images(rows).tolist() == expected
    missing = enum.perms[:2, simple].copy()
    missing[1] = missing[1][::-1]  # reversed images are no element's
    assert missing[1].tobytes() not in index
    with pytest.raises(KeyError):
        enum.ids_of_images(missing)


@pytest.mark.parametrize(
    "name, count",
    [("H3", 0), ("F4", 0), ("B4", 0), ("H4", 300), ("E6", 300), ("E8", 150)],
)
def test_packed_reflection_length_equals_the_fieldscalar_rank(name, count):
    # every element of the small groups, seeded random words in the large
    system = RootSystem.named(name)
    if count:
        rng = np.random.default_rng(17)
        lengths = rng.integers(0, 2 * system.n_pos, count)
        elements = [from_word(system, rng.integers(0, system.rank, k)) for k in lengths]
    else:
        enum = enumerate_group(system)
        elements = [enum.element(i) for i in range(enum.size)]
    packed = [
        linalg.rank_rational(w.moved_rows()) // system.int_degree for w in elements
    ]
    reference = [linalg.rank(w._matrix_minus_id()) for w in elements]
    assert packed == reference == [w.reflection_length() for w in elements]
    assert set(reference) == set(range(system.rank + 1))  # every length occurs


def test_packed_root_table_is_built_once_on_the_first_reflection_length(monkeypatch):
    system = RootSystem(named_coxeter_matrix("B4"))  # w0 = -Id, the last id
    enum = enumerate_group(system)
    assert "packed_roots" not in system.__dict__
    packs = []
    inner = linalg.pack_row

    def counting(row, bits):
        packs.append(1)
        return inner(row, bits)

    monkeypatch.setattr(linalg, "pack_row", counting)
    assert enum.element(enum.size - 1).reflection_length() == system.rank
    table = system.__dict__["packed_roots"]
    assert len(packs) == system.n_pos * system.int_degree
    lengths = enum.reflection_lengths
    assert lengths.max() == system.rank
    assert system.packed_roots is table
    assert len(packs) == system.n_pos * system.int_degree


@pytest.mark.parametrize("name", SMALL_GROUP_TYPES)
def test_orbit_labels_are_the_conjugacy_classes(name):
    system = RootSystem.named(name)
    enum = enumerate_group(system)
    conjugates = simple_conjugates(system, enum.perms)
    labels = orbit_labels([enum.ids_of_images(c) for c in conjugates])
    # the reference: close each class under x -> s x s over Python sets;
    # its first id is the least of its class
    gens = [simple_reflection(system, s) for s in range(system.rank)]
    id_of = {enum.element(i).key(): i for i in range(enum.size)}
    seen: set[int] = set()
    for first in range(enum.size):
        if first in seen:
            continue
        members, frontier = {first}, [enum.element(first)]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = s * x * s
                if id_of[y.key()] not in members:
                    members.add(id_of[y.key()])
                    frontier.append(y)
        seen |= members
        assert set(np.flatnonzero(labels == first).tolist()) == members


def test_orbit_labels_join_cycles_of_any_length():
    # one 5-cycle and one 2-cycle under the first generator, with the
    # second joining id 6 to the 5-cycle
    generators = np.array([[1, 2, 3, 4, 0, 6, 5], [0, 1, 2, 3, 6, 5, 4]])
    assert orbit_labels(generators).tolist() == [0] * 7
    assert orbit_labels(generators[:1]).tolist() == [0] * 5 + [5, 5]


@pytest.mark.parametrize("name", SMALL_GROUP_TYPES + ("H4", "E6", "D6", "B6"))
def test_class_reflection_lengths_equal_the_per_element_route(name):
    enum = enumerate_group(RootSystem.named(name))
    lengths = enum.reflection_lengths
    # a separate system, so that no l_T is read from the cache the classes filled
    fresh = enumerate_group(RootSystem(named_coxeter_matrix(name), parse_label(name)))
    assert np.array_equal(fresh.perms, enum.perms)
    per_element = [fresh.element(i).reflection_length() for i in range(fresh.size)]
    assert lengths.tolist() == per_element
