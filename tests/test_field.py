"""Exact arithmetic in the quadratic field Q(phi), phi = (1 + sqrt 5)/2."""

import math
import random

import pytest

from coxabs.field import ONE, PHI, ZERO, FieldScalar

SQRT5 = PHI + PHI - ONE
HALF = FieldScalar.from_rational(1, 2)


def rational(num, den=1):
    return FieldScalar.from_rational(num, den)


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_rational_round_trip():
    x = rational(3, 7)
    assert not x.coords[1]
    assert x.coords[0] == rational(3, 7).coords[0]
    assert float(x) == pytest.approx(3 / 7)


def test_constants():
    assert not ZERO
    assert ONE - HALF == HALF
    assert PHI.coords[1]
    assert float(PHI) == pytest.approx((1 + math.sqrt(5)) / 2)
    assert float(SQRT5) == pytest.approx(math.sqrt(5))


def test_golden_ratio_sums():
    # (1+sqrt5)/4 + (sqrt5-1)/4 = sqrt5/2
    a = (ONE + SQRT5) / 4
    b = (SQRT5 - ONE) / 4
    assert a + b == SQRT5 / 2
    # ((1+sqrt5)/4)^2 = (3+sqrt5)/8
    assert a * a == (rational(3) + SQRT5) / 8
    assert a == PHI / 2


def test_phi_powers_fold():
    # phi^n = F(n) phi + F(n-1), and the conjugate 1 - phi is -1/phi
    power = ONE
    for n in range(1, 40):
        power = power * PHI
        assert power == fibonacci(n) * PHI + fibonacci(n - 1)
    assert PHI * (PHI - ONE) == ONE
    assert SQRT5 * SQRT5 == rational(5)
    assert (ONE - PHI) * PHI == -ONE


def test_inversion():
    x = ONE + SQRT5
    assert x.invert() == (SQRT5 - ONE) / 4
    assert x * x.invert() == ONE
    y = rational(3) - rational(7, 2) * PHI
    assert y * y.invert() == ONE
    assert rational(2, 3).invert() == rational(3, 2)
    with pytest.raises(ZeroDivisionError):
        ZERO.invert()


def test_sign_of_tight_combination():
    # 987 - 610 phi = (1 - phi)^15 is about -0.0007, small enough to
    # punish any rounding in the sign test
    x = rational(987) - rational(610) * PHI
    assert x.sign() == -1
    assert (-x).sign() == 1
    assert (x - x).sign() == 0
    assert x < ZERO
    # F(n+1) - F(n) phi = (1 - phi)^n alternates in sign
    for n in range(1, 60):
        y = rational(fibonacci(n + 1)) - rational(fibonacci(n)) * PHI
        assert y.sign() == (-1) ** n


def test_comparison_matches_floats():
    rng = random.Random(11)
    values = [ZERO, ONE, HALF, PHI, SQRT5, PHI - ONE]
    for _ in range(200):
        x = values[rng.randrange(len(values))] - values[rng.randrange(len(values))]
        y = values[rng.randrange(len(values))] / rng.randint(1, 3)
        if abs(float(x) - float(y)) > 1e-9:
            assert (x < y) == (float(x) < float(y))


def test_coerce_accepts_ints_and_scalars():
    assert FieldScalar.coerce(2) == rational(2)
    assert FieldScalar.coerce(PHI) is PHI
    assert rational(1, 2) + 1 == rational(3, 2)
    assert 2 * PHI == PHI + PHI


def test_hash_consistent_with_eq():
    assert hash(ONE + ONE) == hash(rational(2))
    assert len({PHI / 2, (ONE + SQRT5) / 4}) == 1
