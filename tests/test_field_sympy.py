"""The Q(phi) ring operations and sign test against sympy's exact arithmetic."""

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coxabs.field import PHI, ZERO, FieldScalar  # noqa: E402

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
