"""Diagram recognition: the finite types named before the build, against the
reference form, and reducible matrix files end to end."""

import contextlib
import io
import itertools
import math
import os
import random
import tempfile

import pytest

from coxabs.cli import main
from coxabs.linalg import is_positive_definite
from coxabs.rootsystem import (
    CoxeterMatrix,
    InfiniteTypeError,
    RootSystem,
    _reference_gram,
    named_coxeter_matrix,
    parse_label,
    recognize,
    root_count,
)

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def reference_rejects(matrix: CoxeterMatrix) -> bool:
    """The old rejection: conflicting root lengths or an indefinite form."""
    try:
        gram = _reference_gram(matrix)
    except InfiniteTypeError:
        return True
    return not is_positive_definite(gram)


def builds(matrix: CoxeterMatrix) -> bool:
    try:
        RootSystem(matrix)
    except InfiniteTypeError:
        return False
    return True


def symmetric(n: int, entries: dict) -> CoxeterMatrix:
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for (i, j), m in entries.items():
        rows[i][j] = rows[j][i] = m
    return CoxeterMatrix.from_rows(rows)


def test_recognizer_equals_the_reference_up_to_rank_4():
    total = finite = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for bonds in itertools.product(range(2, 7), repeat=len(pairs)):
            matrix = symmetric(n, dict(zip(pairs, bonds)))
            built = builds(matrix)
            assert built == (not reference_rejects(matrix)), matrix.rows
            total += 1
            finite += built
    assert (total, finite) == (15756, 243)


@st.composite
def forest_matrices(draw):
    # a random forest (uniform matrices are about 1% finite), sometimes
    # with an extra bond that closes a cycle, on shuffled generators
    n = draw(st.integers(5, 6))
    entries = {}
    for k in range(1, n):
        if draw(st.integers(0, 4)):
            parent = draw(st.integers(0, k - 1))
            entries[(parent, k)] = draw(st.sampled_from([3, 3, 3, 4, 5, 6]))
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        entries[(min(i, j), max(i, j))] = draw(st.integers(3, 6))
    perm = draw(st.permutations(range(n)))
    return symmetric(n, {(perm[i], perm[j]): m for (i, j), m in entries.items()})


@settings(max_examples=150, deadline=None)
@given(forest_matrices())
def test_recognizer_equals_the_reference_at_rank_5_and_6(matrix):
    assert builds(matrix) == (not reference_rejects(matrix))


def arms(*lengths):
    """3-bonds of a star: arms of the given lengths out of node 0."""
    bonds, k = {}, 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            bonds[(prev, k)] = 3
            prev, k = k, k + 1
    return k, bonds


@pytest.mark.parametrize(
    "name,diagram,finite",
    [
        ("D6", arms(1, 1, 3), True),
        ("E7", arms(1, 2, 3), True),
        ("E8", arms(1, 2, 4), True),
        ("affine E6", arms(2, 2, 2), False),
        ("affine E7", arms(1, 3, 3), False),
        ("affine E8", arms(1, 2, 5), False),
        ("affine D4", arms(1, 1, 1, 1), False),
        ("affine B4", (5, {**arms(1, 1, 2)[1], (3, 4): 4}), False),
        ("H5", (5, {(0, 1): 5, (1, 2): 3, (2, 3): 3, (3, 4): 3}), False),
        ("F5", (5, {(0, 1): 3, (1, 2): 4, (2, 3): 3, (3, 4): 3}), False),
    ],
)
def test_branched_and_long_diagrams_beyond_rank_4(name, diagram, finite):
    matrix = symmetric(*diagram)
    assert builds(matrix) == finite == (not reference_rejects(matrix)), name


#: named components of rank <= 4 with their group orders
COMPONENT_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "B4": 384,
    "D4": 192, "F4": 1152, "H3": 120, "H4": 14400, "I2(5)": 10, "G2": 12,
}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(COMPONENT_ORDERS)), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_reducible_matrix_files_build_as_direct_sums(names, rng: random.Random):
    blocks = [named_coxeter_matrix(name) for name in names]
    n = sum(block.rank for block in blocks)
    entries, offset = {}, 0
    for block in blocks:
        for i, j in itertools.combinations(range(block.rank), 2):
            entries[(offset + i, offset + j)] = block.entry(i, j)
        offset += block.rank
    perm = list(range(n))
    rng.shuffle(perm)
    matrix = symmetric(n, {(perm[i], perm[j]): m for (i, j), m in entries.items()})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matrix.txt")
        with open(path, "w") as handle:
            handle.write(f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in matrix.rows))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["build", path]) == 0
    labels = sorted(parse_label(name) for name in names)
    lines = out.getvalue().splitlines()
    assert lines[0] == "type: " + " x ".join(str(t) for t in labels)
    assert lines[2] == f"positive roots: {sum(root_count(t) for t in labels) // 2}"
    assert lines[3] == f"group order: {math.prod(COMPONENT_ORDERS[m] for m in names)}"
    bonds = {
        (i, j): matrix.entry(i, j)
        for i, j in itertools.combinations(range(n), 2)
        if matrix.entry(i, j) > 2
    }
    predicted = sum(root_count(t) for t, _ in recognize(range(n), bonds))
    assert RootSystem(matrix).n_roots == predicted


def test_recognize_splits_and_names_components():
    # D4 on {0, 2, 5, 7} with 5 as the branch node, H3 on {1, 3, 4}, A1 on {6}
    bonds = {(0, 5): 3, (2, 5): 3, (5, 7): 3, (3, 4): 5, (1, 3): 3}
    parts = recognize(range(8), bonds)
    assert [(str(t), nodes) for t, nodes in parts] == [
        ("D4", (0, 2, 5, 7)),
        ("H3", (1, 3, 4)),
        ("A1", (6,)),
    ]
    for bad in ({(0, 1): 3, (1, 2): 3, (0, 2): 3}, {(0, 1): 6, (1, 2): 3}):
        with pytest.raises(InfiniteTypeError):
            recognize(range(3), bad)
