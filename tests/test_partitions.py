import pytest
from hypothesis import given, settings, strategies as st

from spinblocks.partitions import (
    ORDINARY,
    STRICT,
    _hook_formula,
    as_partition,
    as_strict,
    box_moves,
    enumerate_partitions,
    epsilon_exponent,
    is_odd_partition,
    parity,
    path_count,
    skew_boxes,
)
from spinblocks.sqrt2 import Sqrt2Scalar

SQRT2 = Sqrt2Scalar(0, 1)


def test_validators():
    assert as_partition([3, 3, 1]) == (3, 3, 1)
    assert as_strict([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_strict([2, 2])
    with pytest.raises(ValueError):
        as_partition([0])


def test_enumerate_goldens():
    assert enumerate_partitions(0, STRICT) == [()]
    assert enumerate_partitions(4, ORDINARY) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    assert enumerate_partitions(4, STRICT) == [(4,), (3, 1)]


def test_enumerate_counts():
    # partition and strict-partition counting sequences
    p = [len(enumerate_partitions(n, ORDINARY)) for n in range(11)]
    q = [len(enumerate_partitions(n, STRICT)) for n in range(11)]
    assert p == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert q == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]


def test_enumerate_descending_lex():
    for kind in (ORDINARY, STRICT):
        parts = enumerate_partitions(7, kind)
        assert parts == sorted(parts, reverse=True)
        assert len(parts) == len(set(parts))


def test_box_moves_examples():
    assert set(box_moves((3, 1), STRICT, "add")) == {(4, 1), (3, 2)}
    assert box_moves((), ORDINARY, "add") == [(1,)]
    assert box_moves((2, 1), STRICT, "remove") == [(2,)]
    assert set(box_moves((2, 2), ORDINARY, "remove")) == {(2, 1)}


def box_moves_by_filter(lam, strict, direction):
    """Every one-box candidate kept when its parts are still valid: the
    oracle for the rule box_moves reads off adjacent parts."""
    out = []
    if direction == "add":
        for i in range(len(lam) + 1):
            if i == len(lam):
                new = lam + (1,)
            else:
                new = lam[:i] + (lam[i] + 1,) + lam[i + 1 :]
            if valid_parts(new, strict):
                out.append(new)
    else:
        for i in range(len(lam)):
            if lam[i] == 1:
                new = lam[:i] + lam[i + 1 :]
            else:
                new = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
            if valid_parts(new, strict):
                out.append(new)
    return sorted(set(out), reverse=True)


def valid_parts(t, strict):
    for i in range(len(t) - 1):
        if t[i] < t[i + 1] or (strict and t[i] == t[i + 1]):
            return False
    return all(x > 0 for x in t)


def test_box_moves_match_the_filtered_candidates():
    cases = 0
    for kind in (ORDINARY, STRICT):
        for n in range(16):
            for lam in enumerate_partitions(n, kind):
                for direction in ("add", "remove"):
                    want = box_moves_by_filter(lam, kind == STRICT, direction)
                    assert box_moves(lam, kind, direction) == want, (lam, kind, direction)
                    cases += 1
    assert cases == 1642


def test_shifted_diagram():
    assert skew_boxes((3, 1), ()) == ((1, 1), (1, 2), (1, 3), (2, 2))


def test_path_count_examples():
    assert path_count((2, 2), ORDINARY) == 2
    assert path_count((3, 1), STRICT) == 2
    for n in range(1, 7):
        assert path_count((n,), ORDINARY) == 1
        assert path_count((n,), STRICT) == 1


def count_chains_bruteforce(lam, kind: str) -> int:
    """Independent oracle: explicitly walk every chain () -> lam."""
    if not lam:
        return 1
    return sum(count_chains_bruteforce(nu, kind) for nu in box_moves(lam, kind, "remove"))


@pytest.mark.parametrize("kind", [ORDINARY, STRICT])
def test_path_count_matches_bruteforce(kind):
    for n in range(8):
        for lam in enumerate_partitions(n, kind):
            assert path_count(lam, kind) == count_chains_bruteforce(lam, kind)


@pytest.mark.parametrize("kind", [ORDINARY, STRICT])
def test_path_count_matches_hook_formula(kind):
    for n in range(13):
        for lam in enumerate_partitions(n, kind):
            assert path_count(lam, kind) == _hook_formula(lam, kind == STRICT), lam


def test_hook_formula_examples():
    assert _hook_formula((7, 5), True) == 132
    assert _hook_formula((3, 2), False) == 5
    assert _hook_formula((3, 2, 1), True) == 2
    assert _hook_formula((), False) == _hook_formula((), True) == 1


@pytest.mark.parametrize("kind", [ORDINARY, STRICT])
def test_removal_recursion(kind):
    for n in range(1, 11):
        for lam in enumerate_partitions(n, kind):
            total = sum(path_count(mu, kind) for mu in box_moves(lam, kind, "remove"))
            assert total == path_count(lam, kind)


def epsilon(*partitions):
    return Sqrt2Scalar.sqrt2_power(epsilon_exponent(partitions))


def test_epsilon_values():
    assert epsilon((3, 1)) == 1
    assert epsilon((2, 1)) == SQRT2
    assert epsilon((2, 1), (4, 1)) == 1
    assert is_odd_partition((2, 1)) and not is_odd_partition((3, 1))


def test_parity_is_the_epsilon_exponent_of_one_partition():
    for kind in (ORDINARY, STRICT):
        for n in range(17):
            for lam in enumerate_partitions(n, kind):
                assert parity(lam) == epsilon_exponent((lam,)) == int(is_odd_partition(lam)), lam


@given(st.permutations(((2, 1), (4, 1), (5,), (3, 2))))
def test_epsilon_symmetric(parts):
    assert epsilon_exponent(parts) == epsilon_exponent(sorted(parts))


@given(st.lists(st.sampled_from([(2, 1), (3, 1), (5,), (3, 2), (4, 3, 1)]), max_size=5))
def test_epsilon_square(parts):
    square = epsilon(*parts) * epsilon(*parts)
    assert square in (1, 2)


@st.composite
def random_partition(draw, kind=ORDINARY, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(st.sampled_from(enumerate_partitions(n, kind)))


@settings(max_examples=60)
@given(random_partition())
def test_add_remove_inverse_ordinary(lam):
    for mu in box_moves(lam, ORDINARY, "add"):
        assert lam in box_moves(mu, ORDINARY, "remove")
    for mu in box_moves(lam, ORDINARY, "remove"):
        assert lam in box_moves(mu, ORDINARY, "add")


@settings(max_examples=60)
@given(random_partition(kind=STRICT))
def test_add_remove_inverse_strict(lam):
    for mu in box_moves(lam, STRICT, "add"):
        assert lam in box_moves(mu, STRICT, "remove")
    for mu in box_moves(lam, STRICT, "remove"):
        assert lam in box_moves(mu, STRICT, "add")
