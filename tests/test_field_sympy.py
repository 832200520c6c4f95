"""The Q(phi) ring operations, sign test and rational rank against sympy."""

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coxabs.field import PHI, ZERO, FieldScalar  # noqa: E402
from coxabs.linalg import rank_rational  # noqa: E402

_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=30)
_SCALARS = st.builds(lambda a, b: a + b * PHI, _RATIONALS, _RATIONALS)


def to_sympy(x: FieldScalar):
    a, b = (sympy.Rational(c.numerator, c.denominator) for c in x.coords)
    return a + b * (1 + sympy.sqrt(5)) / 2


@settings(max_examples=300, deadline=None)
@given(_SCALARS, _SCALARS)
# 987 - 610 phi and 987 phi - 1597 are (1 - phi)^15 and (1 - phi)^16
@example(987 - 610 * PHI, -1597 + 987 * PHI)
@example(ZERO, PHI)
def test_ring_operations_match_sympy(x, y):
    sx, sy = to_sympy(x), to_sympy(y)
    assert sympy.expand(to_sympy(x + y) - (sx + sy)) == 0
    assert sympy.expand(to_sympy(x - y) - (sx - sy)) == 0
    assert sympy.expand(to_sympy(x * y) - sx * sy) == 0
    if y:
        assert sympy.expand(to_sympy(y.invert()) * sy) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            y.invert()
    assert x.sign() == sympy.sign(sx)
    assert (x < y) == bool(sx < sy)
    assert (x == y) == (sympy.expand(sx - sy) == 0)


def _sympy_rank(matrix):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix]
    ).rank()


# zeros leave rows without an entry in the pivot column, which Bareiss
# must still rescale
_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**12), 10**12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def _blocks(rows, cols, entries=_ENTRIES):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def _matrices(draw):
    """Dense random matrices, or products of two thin random factors."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        return draw(_blocks(m, n))
    k = draw(st.integers(0, min(m, n)))
    small = st.one_of(st.just(0), st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6))
    left, right = draw(_blocks(m, k, small)), draw(_blocks(k, n, small))
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


@settings(max_examples=400, deadline=None)
@given(_matrices())
@example([[0, 0], [0, 0]])
@example([[2, 4, 6], [3, 6, 9], [0, 0, 1]])
def test_rank_rational_matches_sympy(matrix):
    assert rank_rational(matrix) == _sympy_rank(matrix)
