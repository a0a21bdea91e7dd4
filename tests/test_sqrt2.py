import pytest
from hypothesis import given, strategies as st

from spinblocks.sqrt2 import ONE, SQRT2, Sqrt2Scalar

ints = st.integers(min_value=-10**6, max_value=10**6)
scalars = st.builds(Sqrt2Scalar, ints, ints)


def test_basic_arithmetic():
    x = Sqrt2Scalar(1, 2)
    y = Sqrt2Scalar(3, -1)
    assert x + y == Sqrt2Scalar(4, 1)
    assert x - y == Sqrt2Scalar(-2, 3)
    assert x * y == Sqrt2Scalar(3 - 4, 6 - 1)
    assert SQRT2 * SQRT2 == 2
    assert 3 * x == Sqrt2Scalar(3, 6)


def test_sqrt2_powers():
    assert Sqrt2Scalar.sqrt2_power(0) == ONE
    assert Sqrt2Scalar.sqrt2_power(1) == SQRT2
    assert Sqrt2Scalar.sqrt2_power(2) == 2
    assert Sqrt2Scalar.sqrt2_power(5) == Sqrt2Scalar(0, 4)
    with pytest.raises(ValueError):
        Sqrt2Scalar.sqrt2_power(-1)


def test_halve():
    assert Sqrt2Scalar(4, 6).halve() == Sqrt2Scalar(2, 3)
    with pytest.raises(ValueError):
        Sqrt2Scalar(1, 2).halve()


@given(scalars)
def test_conjugate_norm(x):
    assert x * x.conjugate() == Sqrt2Scalar(x.norm(), 0)
    assert x.norm() == x.a**2 - 2 * x.b**2


@given(scalars, scalars)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(scalars, scalars, scalars)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z
