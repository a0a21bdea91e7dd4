from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from spinblocks.abacus import ell, runner_label, runner_parity
from spinblocks.chars import (
    SUPER,
    CharSpace,
    CharVector,
    _m_action_pairs,
    m_action,
    orbit_sum,
)
from spinblocks.exceptions import SpaceMismatch
from spinblocks.partitions import epsilon_exponent
from spinblocks.rouquier import generate
from spinblocks.sqrt2 import Sqrt2Scalar

SQRT2 = Sqrt2Scalar(0, 1)


@pytest.fixture
def h_space():
    return CharSpace.h_space((2, 1), 5, 1)


def test_space_labels(h_space):
    assert h_space.labels() == [((2, 1), 0), ((2, 1), 1), ((2, 1), 2)]
    L = CharSpace.l_space((2, 1), 5, 2)
    assert len(L.labels()) == 9
    B = CharSpace.block((2, 1), 5, 1)
    assert B.labels() == [(7, 1), (6, 2), (5, 2, 1)]


@pytest.mark.parametrize(
    "space",
    [
        CharSpace.block((2, 1), 5, 1),
        CharSpace.h_space((2, 1), 5, 1),
        CharSpace.l_space((2, 1), 5, 2),
    ],
    ids=lambda s: s.kind,
)
def test_space_labels_are_a_new_list_each_call(space):
    first = space.labels()
    expected = list(first)
    first.append("changed")
    assert space.labels() == expected


def test_label_parity(h_space):
    # (2,1) odd with an even bar label gives an odd pair, and conversely
    assert h_space.is_odd(((2, 1), 0))
    assert not h_space.is_odd(((2, 1), 1))
    assert Sqrt2Scalar.sqrt2_power(h_space.eps_exponent(((2, 1), 0))) == SQRT2


def test_runner_parity_is_the_parity_of_the_runner_label():
    """runner_parity(j), which reads no p, is the epsilon exponent of the
    partition runner_label(p, j) for every odd prime p below 200."""
    primes = [p for p in range(3, 200, 2) if all(p % k for k in range(3, isqrt(p) + 1, 2))]
    assert len(primes) == 45
    for p in primes:
        for j in range(ell(p) + 1):
            assert runner_parity(j) == epsilon_exponent((runner_label(p, j),)), (p, j)


def eps_tuple(space, label) -> tuple:
    """The tuple of partitions whose parity count gives epsilon: rho and the
    runner label of each slot in an L space, mu and runner j's label for an
    H label (mu, j).  An oracle for `CharSpace.eps_exponent`, which reads the
    runner parities off abacus.runner_parity instead."""
    if space.kind == "L":
        return (space.rho,) + tuple(runner_label(space.p, j) for j in label)
    mu, j = label
    return (mu, runner_label(space.p, j))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_parity_rule_matches_the_epsilon_tuple(p):
    """An L or H space reads its runners' parities off abacus.runner_parity;
    each label's must be the parity count of its whole epsilon tuple."""
    for d in (1, 2, 3):
        for parity in ("even", "odd"):
            rho = generate(p, d, parity, 1)[0]
            for space in (CharSpace.l_space(rho, p, d), CharSpace.h_space(rho, p, d)):
                exponents = {
                    label: epsilon_exponent(eps_tuple(space, label)) for label in space.labels()
                }
                assert {label: space.eps_exponent(label) for label in exponents} == exponents
                assert set(exponents.values()) == {0, 1}


def test_vector_arithmetic(h_space):
    a = CharVector.unit(h_space, ((2, 1), 0))
    b = CharVector.unit(h_space, ((2, 1), 1))
    s = a + b
    assert s.coefficient(((2, 1), 0)) == 1
    assert (s - b).as_dict() == a.as_dict()
    doubled = a.scale(SQRT2).scale(SQRT2)
    assert doubled.coefficient(((2, 1), 0)) == 2
    assert not (a - a)
    assert sorted(s.support()) == [((2, 1), 0), ((2, 1), 1)]


def test_vector_space_mismatch(h_space):
    other = CharSpace.l_space((2, 1), 5, 1)
    with pytest.raises(SpaceMismatch):
        CharVector.unit(h_space, ((2, 1), 0)) + CharVector.unit(other, (0,))


def refined_labels(space) -> list:
    """The sign-refined labels of an L or H space in label order, an odd
    label's + half before its - half.  `NmvLattice.weights` lists the same
    keys in one pass per base; only the tests list them label by label."""
    out = []
    for label in space.labels():
        if space.is_odd(label):
            out.extend([(label, 1), (label, -1)])
        else:
            out.append((label, 0))
    return out


def unrefine(v):
    """Sign-refined basis -> supercharacter basis; the two halves of every
    associate pair must carry equal coefficients.  The inverse of `refine`,
    which only the tests use."""
    if v.basis == SUPER:
        return v
    d = v.as_dict()
    out = {}
    seen = set()
    for (label, sign), c in v.coeffs:
        if sign == 0:
            out[label] = c
        elif label not in seen:
            seen.add(label)
            other = d.get((label, -sign), Sqrt2Scalar(0, 0))
            if other != c:
                raise ValueError(
                    f"associate pair of {label} has unequal coefficients {c} vs {other}"
                )
            out[label] = c
    return CharVector.make(v.space, out, SUPER)


def test_refine_unrefine_round_trip(h_space):
    v = CharVector.make(
        h_space, {((2, 1), 0): Sqrt2Scalar(3, 1), ((2, 1), 1): Sqrt2Scalar(0, 2)}
    )
    r = v.refine()
    assert r.coefficient((((2, 1), 0), 1)) == Sqrt2Scalar(3, 1)
    assert r.coefficient((((2, 1), 0), -1)) == Sqrt2Scalar(3, 1)
    assert r.coefficient((((2, 1), 1), 0)) == Sqrt2Scalar(0, 2)
    assert unrefine(r).as_dict() == v.as_dict()


def test_unrefine_rejects_unbalanced(h_space):
    bad = CharVector.make(h_space, {(((2, 1), 0), 1): 1}, basis="refined")
    with pytest.raises(ValueError):
        unrefine(bad)


def test_m_action_examples(h_space):
    mu = (2, 1)
    v = m_action(CharVector.unit(h_space, (mu, 2)))
    assert v.as_dict() == {(mu, 0): Sqrt2Scalar(1, 0)}
    v = m_action(CharVector.unit(h_space, (mu, 0)))
    assert v.as_dict() == {
        (mu, 0): Sqrt2Scalar(1, 0),
        (mu, 1): Sqrt2Scalar(2, 0),
        (mu, 2): Sqrt2Scalar(2, 0),
    }


def test_m_action_weight_one_base_case():
    space = CharSpace.l_space((), 5, 1)
    v = m_action(CharVector.unit(space, (1,)))
    assert v.as_dict() == {(0,): Sqrt2Scalar(2, 0), (1,): Sqrt2Scalar(2, 0)}


def test_m_action_space_guard():
    B = CharSpace.block((2, 1), 5, 1)
    with pytest.raises(SpaceMismatch):
        m_action(CharVector.unit(B, (7, 1)))


@pytest.mark.parametrize(
    "space",
    [
        CharSpace.h_space((2, 1), 5, 1),
        CharSpace.h_space((2, 1), 5, 2),
        CharSpace.h_space((12, 7, 6, 2, 1), 5, 2),
        CharSpace.h_space((3, 2, 1), 7, 1),
    ],
)
def test_m_action_integral_and_self_adjoint(space):
    matrix = {
        (label, out_label): c
        for label in space.labels()
        for out_label, c in m_action(CharVector.unit(space, label)).coeffs
    }
    for (src, dst), c in matrix.items():
        assert c.is_nonneg_integer()
        back = matrix.get((dst, src), Sqrt2Scalar(0, 0))
        lhs = Sqrt2Scalar.sqrt2_power(2 * space.eps_exponent(dst)) * c
        rhs = Sqrt2Scalar.sqrt2_power(2 * space.eps_exponent(src)) * back
        assert lhs == rhs


def m_action_by_terms(v):
    """The M action term by term in Z[sqrt(2)], each label's exponent read off
    the space: the slow route that `m_action`'s integer pairs must match."""
    space, out = v.space, {}
    for label, c in v.coeffs:
        *mu, i = label
        e_mu_i, e_i = space.eps_exponent(label), runner_parity(i)
        e_mu = e_mu_i - e_i  # mod 2, the parity of mu (H) or of rho (L)
        for j in range(ell(space.p) - i + 1):
            e_j = runner_parity(j)
            term = c * Sqrt2Scalar.sqrt2_power(e_mu_i + e_i + e_j - (e_mu + e_j) % 2)
            out[(*mu, j)] = out.get((*mu, j), 0) + term
    return CharVector.make(space, out, SUPER)


M_SPACES = {}  # (kind, p, d, parity) -> space


def m_space(kind, p, d, parity):
    if (kind, p, d, parity) not in M_SPACES:
        rho = generate(p, d, parity, 1)[0]
        make = CharSpace.h_space if kind == "H" else CharSpace.l_space
        M_SPACES[kind, p, d, parity] = make(rho, p, d)
    return M_SPACES[kind, p, d, parity]


M_GRID = [
    (kind, p, d, parity)
    for p in (3, 5, 7, 11)
    for kind, d in [("L", 1)] + [("H", d) for d in range(1, 3 if p == 11 else 4)]
    for parity in ("even", "odd")
]


@pytest.mark.parametrize("kind,p,d,parity", M_GRID)
def test_m_action_pairs_match_the_terms_on_every_label(kind, p, d, parity):
    """On 1 + sqrt(2) times each label, odd and even, of H spaces and
    weight-one L spaces of both parities."""
    space = m_space(kind, p, d, parity)
    labels = space.labels()
    assert {space.is_odd(label) for label in labels} == {False, True}
    for label in labels:
        v = CharVector.make(space, {label: Sqrt2Scalar(1, 1)})
        assert m_action(v) == m_action_by_terms(v), label


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_m_action_pairs_match_the_terms(data):
    """m_action, a wrapper over the pair core, equals the term-by-term route
    on vectors with sqrt(2) parts, and the core keeps a zero sum as (0, 0)."""
    space = m_space(*data.draw(st.sampled_from(M_GRID)))
    coeff = st.builds(Sqrt2Scalar, st.integers(-9, 9), st.integers(-9, 9))
    v = CharVector.make(space, data.draw(st.dictionaries(st.sampled_from(space.labels()), coeff)))
    expected = m_action_by_terms(v)
    assert m_action(v) == expected
    pairs = _m_action_pairs(space, ((label, (c.a, c.b)) for label, c in v.coeffs))
    assert {l: ab for l, ab in pairs.items() if ab != (0, 0)} == {
        l: (c.a, c.b) for l, c in expected.coeffs
    }


def test_a_negative_sqrt2_exponent_in_the_m_action_is_an_internal_error(monkeypatch, capsys):
    """The pair core raises AssertionError, as sqrt2_power does, so `maction`
    and `verify htoj` exit 3 with no report."""
    from spinblocks import chars, cli

    monkeypatch.setattr(chars, "runner_parity", lambda j: -j)
    with pytest.raises(AssertionError, match=r"sqrt\(2\)\*\*-"):
        m_action(CharVector.unit(CharSpace.l_space((), 5, 1), (1,)))
    for argv in (["maction", "--p", "5", "--rho", "2,1", "--j", "1"],
                 ["verify", "htoj", "--p", "7", "--lambda", "9,3,1"]):
        assert cli.main(argv) == 3, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("internal error: sqrt(2)**-"), argv


def test_orbit_sum_examples():
    vec, cert = orbit_sum((2, 1), 5, (1, 1, 0))
    assert cert == 2
    assert vec.as_dict() == {(0, 1): Sqrt2Scalar(1, 0), (1, 0): Sqrt2Scalar(1, 0)}
    _, cert = orbit_sum((2, 1), 5, (1, 0, 0))
    assert cert == 2
    for dcomp in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
        vec, cert = orbit_sum((2, 1), 5, dcomp)
        space = vec.space
        base = vec.support()[0]
        assert cert == 2 ** space.eps_exponent(base)


def test_orbit_sum_counts_tuples():
    vec, cert = orbit_sum((2, 1), 5, (1, 1, 1))
    assert len(vec.support()) == 6  # 3! orderings
    assert cert == 6 * 2  # tuple (rho,0,1,2) is odd
