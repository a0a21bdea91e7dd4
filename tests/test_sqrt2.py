import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from spinblocks.chars import CharSpace, CharVector
from spinblocks.sqrt2 import Sqrt2Scalar, times_sqrt2_power

ONE = Sqrt2Scalar(1, 0)
SQRT2 = Sqrt2Scalar(0, 1)

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
    with pytest.raises(AssertionError):
        Sqrt2Scalar.sqrt2_power(-1)


@given(scalars, st.integers(min_value=0, max_value=64))
def test_times_sqrt2_power_is_the_product(x, e):
    """The pair route (a swap when e is odd, then a shift) equals the ring
    product with sqrt(2)**e written out by hand, negative parts included."""
    power = Sqrt2Scalar(2 ** (e // 2) * (1 - e % 2), 2 ** (e // 2) * (e % 2))
    product = x * power
    assert times_sqrt2_power(x.a, x.b, e) == (product.a, product.b)


@pytest.mark.parametrize("e", [-1, -2, -7])
def test_a_negative_sqrt2_exponent_is_an_internal_fault(e):
    message = rf"^sqrt\(2\)\*\*{e} is not in Z\[sqrt\(2\)\]$"
    with pytest.raises(AssertionError, match=message):
        times_sqrt2_power(3, -1, e)
    with pytest.raises(AssertionError, match=message):
        Sqrt2Scalar.sqrt2_power(e)


@given(scalars, scalars)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(scalars, scalars, scalars)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize(
    "build",
    [
        lambda: Sqrt2Scalar(1.5, 0),
        lambda: Sqrt2Scalar(0, 2.0),
        lambda: Sqrt2Scalar.of(0.5),
        lambda: CharVector.make(CharSpace.full(3), {(3,): 0.5}),
    ],
    ids=["a", "b", "of", "CharVector.make"],
)
def test_non_integer_components_are_rejected(build):
    with pytest.raises(TypeError):
        build()


@given(scalars, scalars, ints, st.integers(min_value=0, max_value=64))
def test_arithmetic_results_equal_checked_construction(x, y, k, e):
    """Each ring operation, of and sqrt2_power builds the same value as
    the checked constructor given the expected components."""
    cases = [
        (x + y, x.a + y.a, x.b + y.b),
        (x + k, x.a + k, x.b),
        (k + x, x.a + k, x.b),
        (x - y, x.a - y.a, x.b - y.b),
        (k - x, k - x.a, -x.b),
        (-x, -x.a, -x.b),
        (x * y, x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a),
        (x * k, x.a * k, x.b * k),
        (Sqrt2Scalar.of(k), k, 0),
        (Sqrt2Scalar.sqrt2_power(e), 2 ** (e // 2) * (1 - e % 2), 2 ** (e // 2) * (e % 2)),
    ]
    for got, a, b in cases:
        want = Sqrt2Scalar(a, b)
        assert (got.a, got.b) == (want.a, want.b) and type(got) is Sqrt2Scalar
        assert type(got.a) is int and type(got.b) is int
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


@pytest.mark.parametrize("name", ["a", "b"])
def test_components_can_be_neither_assigned_nor_deleted(name):
    x = Sqrt2Scalar(1, 2)
    with pytest.raises(AttributeError):
        setattr(x, name, 5)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert (x.a, x.b) == (1, 2)


def test_copies_and_pickles_rebuild_an_equal_value():
    x = Sqrt2Scalar(3, -2)
    for got in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(got) is Sqrt2Scalar and (got.a, got.b) == (3, -2)
