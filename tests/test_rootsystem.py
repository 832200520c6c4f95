"""Root system construction: labels, matrices, root counts, angles."""

from fractions import Fraction
from pathlib import Path

import pytest

from coxabs import rootsystem
from coxabs.field import ONE, PHI, ZERO, FieldScalar
from coxabs.linalg import rank, rank_rational
from coxabs.rootsystem import (
    CapExceededError,
    CoxeterMatrix,
    InfiniteTypeError,
    RootSystem,
    UnsupportedBondError,
    format_type_multiset,
    make_label,
    named_coxeter_matrix,
    RecognitionError,
    parse_label,
)

MATRICES = Path(__file__).parent / "data" / "matrices"


def matrix_file(name):
    return CoxeterMatrix.from_text((MATRICES / f"{name}.txt").read_text())

# (name, rank, positive root count, group order)
KNOWN_SYSTEMS = [
    ("A1", 1, 1, 2),
    ("A2", 2, 3, 6),
    ("A3", 3, 6, 24),
    ("B2", 2, 4, 8),
    ("B3", 3, 9, 48),
    ("B4", 4, 16, 384),
    ("D4", 4, 12, 192),
    ("F4", 4, 24, 1152),
    ("H3", 3, 15, 120),
    ("H4", 4, 60, 14400),
    ("E6", 6, 36, 51840),
    ("I2(5)", 2, 5, 10),
    ("I2(6)", 2, 6, 12),
]


# every named type the test suite builds
BUILT_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "B6", "D4", "D5",
    "D6", "D8", "E6", "E7", "E8", "F4", "H3", "H4", "I2(5)", "I2(6)",
]


@pytest.mark.parametrize("name,rank,n_pos,order", KNOWN_SYSTEMS)
def test_positive_root_counts(name, rank, n_pos, order):
    system = RootSystem.named(name)
    assert system.rank == rank
    assert system.n_pos == n_pos
    assert system.n_roots == 2 * n_pos
    assert 2 * n_pos * rank >= rank  # sanity on storage shape
    del order  # group order is checked in the element tests


def test_parse_label_normalizes_small_dihedrals():
    assert parse_label("I2(3)") == parse_label("A2")
    assert parse_label("I2(4)") == parse_label("B2")
    assert str(parse_label("I2(4)")) == "B2"
    assert parse_label("I2(5)").family == "I"
    assert parse_label("B2") == make_label("B", 2)


def test_parse_label_rejects_garbage():
    for bad in ("Q3", "A0", "E9", "I2(1)", "", "B"):
        with pytest.raises(Exception):
            parse_label(bad)


def test_format_type_multiset():
    labels = (parse_label("A1"), parse_label("A1"), parse_label("B2"))
    assert format_type_multiset(labels) == "A1 x A1 x B2"
    assert format_type_multiset(()) == "trivial"


def test_matrix_from_text_round_trip():
    matrix = CoxeterMatrix.from_text("3  1 3 2  3 1 3  2 3 1")
    assert matrix == named_coxeter_matrix(parse_label("A3"))


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 3], [2, 1]])  # not symmetric
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[2, 3], [3, 1]])  # diagonal must be 1
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 1], [1, 1]])  # off-diagonal >= 2


def test_affine_matrix_is_rejected():
    # the triangle with all bonds 3 has a semidefinite form
    rows = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
    with pytest.raises(InfiniteTypeError):
        RootSystem(CoxeterMatrix.from_rows(rows))


def test_cycle_with_a_four_bond_is_rejected():
    # root lengths cannot be consistent around this triangle, and its
    # form is indefinite anyway
    for rows in (
        [[1, 3, 4], [3, 1, 3], [4, 3, 1]],
        [[1, 4, 3], [4, 1, 3], [3, 3, 1]],
        [[1, 3, 3], [3, 1, 4], [3, 4, 1]],
    ):
        with pytest.raises(InfiniteTypeError):
            RootSystem(CoxeterMatrix.from_rows(rows))


def test_bond_seven_is_rejected_geometrically():
    rows = [[1, 7], [7, 1]]
    with pytest.raises(UnsupportedBondError):
        RootSystem(CoxeterMatrix.from_rows(rows))


#: cos^2(pi/m), which lies in Q(phi) for every bond m up to 6
COS_SQUARED = {
    2: ZERO,
    3: FieldScalar.from_rational(1, 4),
    4: FieldScalar.from_rational(1, 2),
    5: (PHI + ONE) / 4,
    6: FieldScalar.from_rational(3, 4),
}


@pytest.mark.parametrize(
    "name", [k[0] for k in KNOWN_SYSTEMS] + ["B5", "D6", "E7", "E8"]
)
def test_simple_pairs_reproduce_the_coxeter_matrix(name):
    # B(a, b)^2 = cos^2(pi/m) B(a, a) B(b, b), with B(a, b) < 0 for m > 2,
    # holds for every normalization of the simple roots
    system = RootSystem.named(name)
    for s, a in enumerate(system.simple_idx):
        assert system.bilinear(a, a) > ZERO
        for t, b in enumerate(system.simple_idx):
            if s == t:
                continue
            m = system.matrix.entry(s, t)
            value = system.bilinear(a, b)
            assert value * value == (
                COS_SQUARED[m] * system.bilinear(a, a) * system.bilinear(b, b)
            )
            assert value.sign() == (-1 if m > 2 else 0)
            assert system.bond_between(a, b) == m


@pytest.mark.parametrize(
    "name", ["H3", "H4", "F4", "B4", "D5", "E6", "I2(5)", "I2(6)"]
)
def test_table_geometry_matches_the_form(name):
    # s_a(b) = b - (2 B(a, b) / B(a, a)) a, so the reflection table must
    # give the orthogonality and the bonds that the form gives
    system = RootSystem.named(name)
    bond_of_cos2 = {value: m for m, value in COS_SQUARED.items()}
    norms = [system.bilinear(a, a) for a in range(system.n_pos)]
    for a in range(system.n_pos):
        for b in range(system.n_pos):
            value = system.bilinear(a, b)
            assert (system.orthogonal_masks[a] >> b & 1) == (value == ZERO)
            m = None
            if value.sign() <= 0:
                m = bond_of_cos2.get(value * value / (norms[a] * norms[b]))
            if m is None:
                with pytest.raises(RecognitionError):
                    system.bond_between(a, b)
            else:
                assert system.bond_between(a, b) == m
    # bond_between takes positive roots only
    for a, b in [(0, system.n_pos + 1), (system.n_pos + 1, 0), (-1, 0)]:
        with pytest.raises(RecognitionError):
            system.bond_between(a, b)


@pytest.mark.parametrize("name", ["H3", "B3", "F4", "I2(6)", "D4"])
def test_roots_keep_the_squared_length_of_their_orbit(name):
    # every root is W-conjugate to a simple root of the same squared
    # length; B_n, F4 and G2 have two lengths, the others one
    system = RootSystem.named(name)
    perms = [system.reflection_table[a] for a in system.simple_idx]
    reached = set()
    for a in system.simple_idx:
        orbit = {a}
        frontier = [a]
        while frontier:
            i = frontier.pop()
            for perm in perms:
                j = int(perm[i])
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        for i in orbit:
            assert system.bilinear(i, i) == system.bilinear(a, a)
        reached |= orbit
    assert reached == set(range(system.n_roots))
    lengths = {system.bilinear(i, i) for i in range(system.n_roots)}
    assert len(lengths) == (2 if name[0] in "BFI" else 1)


def test_negation_pairs_roots():
    system = RootSystem.named("A3")
    for i in range(system.n_pos):
        j = (i + system.n_pos) % system.n_roots
        assert j >= system.n_pos
        assert (j + system.n_pos) % system.n_roots == i
        for k, x in enumerate(system.roots[i]):
            assert system.roots[j][k] == ZERO - x


def test_reflection_table_is_an_involution_on_roots():
    system = RootSystem.named("D4")
    for t in range(system.n_pos):
        perm = system.reflection_table[t]
        for i in range(system.n_roots):
            assert perm[perm[i]] == i
        assert perm[t] == (t + system.n_pos) % system.n_roots
        # a reflection makes an odd number of positives negative,
        # exactly one when its root is simple
        moved_out = sum(
            1 for i in range(system.n_pos) if perm[i] >= system.n_pos
        )
        assert moved_out % 2 == 1
        if t in system.simple_idx:
            assert moved_out == 1


@pytest.mark.parametrize(
    "source", ["H3", "H4", "F4", "B5", "D6", "E6", "I2(5)", "I2(6)", "b2xa1.txt"]
)
def test_reflection_table_rows_are_the_reflections_of_the_form(source):
    # row t sends root r to r - (2 B(r, t) / B(t, t)) t, on the reference roots
    if source.endswith(".txt"):
        system = RootSystem(matrix_file(source[:-4]))
    else:
        system = RootSystem.named(source)
    roots = system.roots
    index = {r: i for i, r in enumerate(roots)}
    assert len(index) == system.n_roots
    for t, root_t in enumerate(roots[: system.n_pos]):
        form_t = [
            sum((g * c for g, c in zip(row, root_t)), ZERO) for row in system.gram
        ]
        scale = 2 / sum((c * f for c, f in zip(root_t, form_t)), ZERO)
        images = []
        for r in roots:
            k = scale * sum((c * f for c, f in zip(r, form_t)), ZERO)
            images.append(index[tuple(c - k * ct for c, ct in zip(r, root_t))])
        assert system.reflection_table[t].tolist() == images


@pytest.mark.parametrize("name", ["B3", "F4", "H3", "H4", "I2(5)", "G2"])
def test_positive_roots_sorted_by_height(name):
    # exact FieldScalar order on (height, coordinates) of the reference roots
    system = RootSystem.named(name)
    keys = [(sum(root, start=ZERO), root) for root in system.roots[: system.n_pos]]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # simple roots are coordinate units, hence the lowest layer
    for s in system.simple_idx:
        assert keys[s][0] == ONE


@pytest.mark.parametrize("name,degree", [("B3", 1), ("G2", 1), ("H3", 2), ("I2(5)", 2)])
def test_integer_rows_embed_the_roots(name, degree):
    system = RootSystem.named(name)
    assert system.int_degree == degree
    for root, rows in zip(system.roots, system.int_rows):
        assert len(rows) == degree
        for k, c in enumerate(root):
            a, b = c.coords
            block = [row[degree * k : degree * (k + 1)] for row in rows]
            # multiplication by a + b*phi on the basis {1, phi}
            assert block == ([(a,)] if degree == 1 else [(a, b), (b, a + b)])
    # stacked rows have degree times the rank over Q(phi)
    for t in range(0, system.n_pos, 2):
        idx = [t, system.simple_idx[0], system.simple_idx[-1]]
        rows = [row for i in idx for row in system.int_rows[i]]
        assert rank_rational(rows) == degree * rank([system.roots[i] for i in idx])


@pytest.mark.parametrize("source", BUILT_TYPES + ["h3.txt", "f4.txt", "g2.txt"])
def test_cartan_entries_match_the_reference_form(source):
    # the build's integer entries are 2 B(a_s, a_j) / B(a_s, a_s)
    if source.endswith(".txt"):
        system = RootSystem(matrix_file(source[:-4]))
    else:
        system = RootSystem.named(source)
    gram = system.gram
    for s, row in enumerate(system._cartan):
        entries = {j: FieldScalar((Fraction(p), Fraction(q))) for j, p, q in row}
        assert len(entries) == len(row)
        for j in range(system.rank):
            assert entries.get(j, ZERO) == 2 * gram[s][j] / gram[s][s]


#: every FieldScalar ring operation, comparison and constructor
FIELD_OPS = [
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "invert", "__truediv__", "__rtruediv__", "sign",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
]


def test_the_build_makes_no_field_scalar_operation(monkeypatch):
    calls = []
    for op in FIELD_OPS:

        def counted(*args, _original=getattr(FieldScalar, op), _op=op):
            calls.append(_op)
            return _original(*args)

        monkeypatch.setattr(FieldScalar, op, counted)
    for name in BUILT_TYPES:
        RootSystem(named_coxeter_matrix(name), parse_label(name))
    system = RootSystem(matrix_file("h3"))
    assert calls == []
    # the wrapper does count: the reference view is FieldScalar
    assert system.gram[0][1] < ZERO and system.roots
    assert "__init__" in calls and "sign" in calls


def test_oversized_reflection_table_is_refused(monkeypatch):
    # A4: 10 positive roots, 20 roots, a table of 10 * 20 int16 = 400 bytes
    matrix = named_coxeter_matrix("A4")
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 399)
    with pytest.raises(CapExceededError) as err:
        RootSystem(matrix)
    assert "399" in str(err.value)
    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 400)
    assert RootSystem(matrix).reflection_table.nbytes == 400


@pytest.mark.parametrize("name", BUILT_TYPES)
def test_root_count_formula_matches_the_build(name):
    system = RootSystem.named(name)
    assert rootsystem.root_count(system.label) == system.n_roots


def test_oversized_named_type_is_refused_before_the_orbit_closure(monkeypatch):
    def entered(self, n_roots):
        raise AssertionError("the orbit closure ran")

    monkeypatch.setattr(RootSystem, "_orbit_closure", entered)
    with pytest.raises(CapExceededError, match="16512 or more roots"):
        RootSystem.named("A128")
    # a matrix file is named by the recognizer first, and refused alike
    with pytest.raises(CapExceededError, match="16512 or more roots"):
        RootSystem(matrix_file("a128"))
    # A127 is the last A_n under the cap
    rootsystem._check_table_bytes(rootsystem.root_count(parse_label("A127")))


def test_root_indices_beyond_the_perm_dtype_are_refused(monkeypatch):
    # with the byte cap lifted the dtype alone bounds a build: A180 has
    # 32 580 roots, A181 has 32 942, past the int16 index 32 767
    def entered(self, n_roots):
        raise AssertionError("the orbit closure ran")

    monkeypatch.setattr(rootsystem, "TABLE_CAP_BYTES", 2**40)
    monkeypatch.setattr(RootSystem, "_orbit_closure", entered)
    with pytest.raises(CapExceededError, match="32942 roots has root indices beyond int16"):
        RootSystem(named_coxeter_matrix("A181"))
    rootsystem._check_table_bytes(rootsystem.root_count(parse_label("A180")))


def test_named_systems_are_cached():
    assert RootSystem.named("B3") is RootSystem.named("B3")


def test_describe_mentions_the_label():
    assert RootSystem.named("F4").describe() == "F4"
