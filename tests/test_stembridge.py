from dataclasses import dataclass
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

import spinblocks.stembridge as stembridge
from spinblocks.abacus import _neighbors, block_enum, core_weight, ell, runner_label, runner_parity
from spinblocks.chars import CharSpace, CharVector
from spinblocks.exceptions import DomainError, ShapeError
from spinblocks.partitions import (
    STRICT,
    Partition,
    _box_moves,
    contains,
    enumerate_partitions,
    epsilon_exponent,
    skew_boxes,
)
from spinblocks.rouquier import generate, rho_extension
from spinblocks.sqrt2 import Sqrt2Scalar
from spinblocks.stembridge import (
    _count_lattice_fillings,
    _fill_steps,
    _grown_partitions,
    _induce,
    _induce_pairs,
    _rock_branch,
    f_coeff,
    induce,
    rock_branch,
)
from spinblocks.verify import check_stembridge_cross


@dataclass(frozen=True)
class MarkedTableau:
    """Filling of a shifted skew shape by marked letters.

    entries maps each box (row, col) to a letter (k, marked); rows and
    columns weakly increase, no column repeats an unmarked letter and no
    row repeats a marked one.
    """

    boxes: tuple  # sorted (row, col) pairs
    entries: tuple  # letters (k, marked) aligned with boxes

    def word(self) -> tuple:
        order = sorted(
            range(len(self.boxes)), key=lambda t: (-self.boxes[t][0], self.boxes[t][1])
        )
        return tuple(self.entries[t] for t in order)


def _letter_key(letter) -> int:
    k, marked = letter
    return 2 * k - (1 if marked else 0)


def enumerate_tableaux(boxes: tuple, content: Partition) -> Iterator[MarkedTableau]:
    """All marked fillings of the skew boxes with the exact given content."""
    boxes = tuple(sorted(boxes))
    n = len(boxes)
    if n != sum(content):
        return
    h = len(content)
    index = {b: t for t, b in enumerate(boxes)}
    entries = [None] * n
    remaining = list(content)

    def fits(t: int, letter) -> bool:
        k, marked = letter
        row, col = boxes[t]
        left = index.get((row, col - 1))
        if left is not None and entries[left] is not None:
            if _letter_key(entries[left]) > _letter_key(letter):
                return False
        up = index.get((row - 1, col))
        if up is not None and entries[up] is not None:
            if _letter_key(entries[up]) > _letter_key(letter):
                return False
        if marked:
            # at most one k' per row
            for c2 in range(col - 1, 0, -1):
                t2 = index.get((row, c2))
                if t2 is None:
                    break
                if entries[t2] == letter:
                    return False
        else:
            # at most one k per column
            for r2 in range(row - 1, 0, -1):
                t2 = index.get((r2, col))
                if t2 is None:
                    break
                if entries[t2] == letter:
                    return False
        return True

    def fill(t: int) -> Iterator[MarkedTableau]:
        if t == n:
            yield MarkedTableau(boxes, tuple(entries))
            return
        for k in range(1, h + 1):
            if remaining[k - 1] == 0:
                continue
            for marked in (True, False):
                letter = (k, marked)
                if fits(t, letter):
                    entries[t] = letter
                    remaining[k - 1] -= 1
                    yield from fill(t + 1)
                    remaining[k - 1] += 1
                    entries[t] = None

    yield from fill(0)


def satisfies_lattice(word: tuple) -> bool:
    """The two-phase lattice condition on a word over the marked alphabet.

    Phase one scans suffix multiplicities of unmarked letters from the right;
    phase two continues with marked letters from the left.  Whenever the
    running counts of i and i-1 tie, the next letter scanned must not push i
    ahead.
    """
    n = len(word)
    if n == 0:
        return True
    top = max(k for k, _ in word)
    for i in range(2, top + 2):
        mi = mi1 = 0
        for j in range(n):
            nxt = word[n - j - 1]
            if mi == mi1 and nxt[0] == i:
                return False
            if nxt == (i, False):
                mi += 1
            elif nxt == (i - 1, False):
                mi1 += 1
        for j in range(n):
            nxt = word[j]
            if mi == mi1 and nxt in ((i - 1, False), (i, True)):
                return False
            if nxt == (i, True):
                mi += 1
            elif nxt == (i - 1, True):
                mi1 += 1
    return True


def leftmost_letters_unmarked(word: tuple, height: int) -> bool:
    for i in range(1, height + 1):
        for k, marked in word:
            if k == i:
                if marked:
                    return False
                break
    return True


def brute_force_count(boxes, content, leftmost_rule=True):
    """Independent oracle: enumerate every filling, test each word whole."""
    return sum(
        1
        for tab in enumerate_tableaux(boxes, content)
        if satisfies_lattice(tab.word())
        and (not leftmost_rule or leftmost_letters_unmarked(tab.word(), len(content)))
    )


def project_to_block(v, rho, p, d):
    space = CharSpace.block(rho, p, d)
    out = {}
    for lam, c in v.coeffs:
        if core_weight(lam, p) == (rho, d):
            out[lam] = c
    return CharVector.make(space, out)


def test_f_coeff_examples():
    assert f_coeff((6, 2), (2, 1), (5,)) == 1
    assert f_coeff((6, 2), (2, 1), (3, 2)) == 0
    assert f_coeff((6, 2), (2, 1), (4, 1)) == 1


def test_f_coeff_needs_lattice_phase_two():
    # the smallest case the prefix phase alone decides: without it the count is 1
    assert f_coeff((3, 2, 1), (2, 1), (2, 1)) == 0
    boxes = skew_boxes((3, 2, 1), (2, 1))
    assert brute_force_count(boxes, (2, 1)) == 0
    assert len(list(enumerate_tableaux(boxes, (2, 1)))) > 0


@st.composite
def strict_skew_problem(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    lam = draw(st.sampled_from(enumerate_partitions(n, STRICT)))
    m = draw(st.integers(min_value=0, max_value=n))
    inner = [mu for mu in enumerate_partitions(m, STRICT) if contains(lam, mu)]
    mu = draw(st.sampled_from(inner)) if inner else ()
    nu = draw(st.sampled_from(enumerate_partitions(n - sum(mu), STRICT)))
    return lam, mu, nu


@settings(max_examples=300, deadline=None)
@given(strict_skew_problem())
def test_f_coeff_against_brute_force(problem):
    lam, mu, nu = problem
    assert f_coeff(lam, mu, nu) == brute_force_count(skew_boxes(lam, mu), nu)


@pytest.mark.parametrize("leftmost_rule", [True, False])
def test_stembridge_cross_sees_the_leftmost_unmarked_rule(monkeypatch, leftmost_rule):
    """The brute-force counter passes the cross-check, and fails it once the
    leftmost-unmarked rule is dropped."""

    def counter(lam, mu, content):
        return brute_force_count(skew_boxes(lam, mu), content, leftmost_rule)

    monkeypatch.setattr(stembridge, "_count_lattice_fillings", counter)
    for parity in ("even", "odd"):
        rho = generate(5, 2, parity, 1)[0]
        assert check_stembridge_cross(rho, 5, 2).passed is leftmost_rule, parity


def box_layout(lam, mu):
    """The fill order laid out from the boxes: sort by (row, -col) and look
    each neighbour up in a step dict."""
    boxes = skew_boxes(lam, mu)
    n = len(boxes)
    order = sorted(boxes, key=lambda b: (b[0], -b[1]))
    step = {b: s for s, b in enumerate(order)}
    up = [step.get((row - 1, col), n) for row, col in order]
    right = [step.get((row, col + 1), n + 1) for row, col in order]
    return up, right


def strict_pairs(max_n):
    """Every (lam, mu) with mu a strict partition inside lam, |lam| <= max_n."""
    for n in range(max_n + 1):
        for lam in enumerate_partitions(n, STRICT):
            for m in range(n + 1):
                for mu in enumerate_partitions(m, STRICT):
                    if contains(lam, mu):
                        yield lam, mu


def test_fill_steps_match_the_box_layout():
    pairs = list(strict_pairs(12))
    assert len(pairs) == 1311
    for lam, mu in pairs:
        assert _fill_steps(lam, mu, sum(lam) - sum(mu)) == box_layout(lam, mu), (lam, mu)


def rock_pairs(p, dmax):
    """The contained (lam, mu) pairs of stembridge-cross: lam of weight d and
    mu of weight d - 1 over the first generated d-Rouquier core of each
    parity, 1 <= d <= dmax."""
    for parity in ("even", "odd"):
        for d in range(1, dmax + 1):
            rho = generate(p, d, parity, 1)[0]
            block = block_enum(rho, p, d)
            for mu in block_enum(rho, p, d - 1):
                yield from ((lam, mu) for lam in block if contains(lam, mu))


@pytest.mark.parametrize("p, dmax, count", [(5, 4, 262), (7, 3, 182), (11, 2, 94)])
def test_fill_steps_match_the_box_layout_on_rock_pairs(p, dmax, count):
    """Over a RoCK block lam has many rows and lam/mu spans a few of them, so
    most pairs have equal leading rows and equal trailing rows, which the
    fill skips."""
    pairs = list(rock_pairs(p, dmax))
    assert len(pairs) == count
    assert sum(lam[0] == mu[0] for lam, mu in pairs) > count // 2
    assert sum(lam[-1] == mu[-1] for lam, mu in pairs if len(lam) == len(mu)) > count // 2
    for lam, mu in pairs:
        assert _fill_steps(lam, mu, sum(lam) - sum(mu)) == box_layout(lam, mu), (lam, mu)


@pytest.mark.parametrize(
    "lam, mu",
    [
        ((), ()),  # no box
        ((5, 3, 1), (5, 3, 1)),  # lam = mu, n = 0
        ((5, 3, 1), ()),  # mu empty: every row differs
        ((5, 3, 1), (4, 3)),  # rows 0 and 2 differ, row 1 does not
        ((6, 4, 2, 1), (5, 4, 1)),  # rows 0, 2 and 3
        ((7, 5, 3, 2), (6, 5, 3)),  # rows 0 and 3, two equal rows between
        ((7, 5, 3, 2), (7, 4, 3, 2)),  # one row in the middle
        ((7, 5, 3, 2), (7, 5, 3)),  # the last row only, mu shorter
    ],
)
def test_fill_steps_edge_cases_match_the_box_layout(lam, mu):
    assert _fill_steps(lam, mu, sum(lam) - sum(mu)) == box_layout(lam, mu)


def grown_by_boxes(mu, extra):
    """Strict partitions containing mu with `extra` more boxes, grown one box
    at a time breadth first."""
    level = {mu}
    for _ in range(extra):
        nxt = set()
        for lam in level:
            nxt.update(_box_moves(lam, True, "add"))
        level = nxt
    return sorted(level, reverse=True)


def test_grown_partitions_are_the_grown_shapes_containing_nu():
    cases = 0
    for m in range(9):
        for mu in enumerate_partitions(m, STRICT):
            for k in range(8):
                for nu in enumerate_partitions(k, STRICT):
                    expected = [lam for lam in grown_by_boxes(mu, k) if contains(lam, nu)]
                    assert _grown_partitions(mu, nu) == expected, (mu, nu)
                    cases += 1
    assert cases == 475


def test_induce_candidate_budget_keeps_the_largest_asked_induction():
    """`induce --mu 40 --nu 30,20,10`, about 4 s, lists its candidates inside
    the budget, in either order."""
    assert len(_grown_partitions((40,), (30, 20, 10))) == 47938 <= stembridge.INDUCE_MAX_CANDIDATES
    assert len(_grown_partitions((30, 20, 10), (40,))) == 47938


def test_induce_stops_one_candidate_past_the_budget_before_any_fill(monkeypatch):
    mu, nu = (3, 1), (4, 2)
    listed = _grown_partitions(mu, nu)
    monkeypatch.setattr(stembridge, "INDUCE_MAX_CANDIDATES", len(listed))
    assert _grown_partitions(mu, nu) == listed
    monkeypatch.setattr(stembridge, "INDUCE_MAX_CANDIDATES", len(listed) - 1)

    def never(*args):
        raise AssertionError("filled a candidate")

    monkeypatch.setattr(stembridge, "_count_lattice_fillings", never)
    with pytest.raises(DomainError, match=f"at most {len(listed) - 1} candidate shapes"):
        induce(mu, nu)


def test_f_coeff_vanishes_unless_lam_contains_nu():
    """The premise of dropping candidates that do not contain nu:
    f^lam_(mu,nu) = f^lam_(nu,mu) = 0 when nu does not fit inside lam."""
    cases = 0
    for lam, mu in strict_pairs(14):
        for nu in enumerate_partitions(sum(lam) - sum(mu), STRICT):
            if contains(lam, nu):
                continue
            assert _count_lattice_fillings(lam, mu, nu) == 0, (lam, mu, nu)
            if sum(lam) <= 8:
                assert brute_force_count(skew_boxes(lam, mu), nu) == 0, (lam, mu, nu)
            cases += 1
    assert cases == 4879


def test_f_coeff_straight_shapes_are_delta():
    # with an empty inner shape only the content shape itself survives
    for n in range(1, 8):
        for lam in enumerate_partitions(n, STRICT):
            for nu in enumerate_partitions(n, STRICT):
                assert f_coeff(lam, (), nu) == (1 if lam == nu else 0)


def test_f_coeff_shape_errors():
    with pytest.raises(ShapeError):
        f_coeff((3, 1), (2, 1), (5,))  # size mismatch
    with pytest.raises(ShapeError):
        f_coeff((5, 2), (3, 2, 1), (1,))  # mu not inside lam


def test_word_reads_bottom_up():
    boxes = skew_boxes((3, 1), (1,))
    tabs = list(enumerate_tableaux(boxes, (2, 1)))
    for tab in tabs:
        w = tab.word()
        assert len(w) == 3
        # first letter of the word comes from the bottom row (row 2)
        by_box = dict(zip(tab.boxes, tab.entries))
        assert w[0] == by_box[(2, 2)]


def test_lattice_property_small_words():
    # trailing letter of the word must be a 1 (or 1'); a bare "2" start fails
    assert satisfies_lattice(((1, False),))
    assert not satisfies_lattice(((2, False),))
    assert satisfies_lattice(((1, False), (1, False)))
    assert not satisfies_lattice(((1, False), (2, False)))
    # two-letter words have content (1,1), and the return scan kills them
    assert not satisfies_lattice(((2, False), (1, False)))
    # the unique hook-strip filling for content (4,1): 2 / 1' 1 1 1
    assert satisfies_lattice(
        ((2, False), (1, True), (1, False), (1, False), (1, False))
    )


def test_induce_examples():
    v = induce((2, 1), (5,))
    assert v.as_dict() == {
        (5, 2, 1): Sqrt2Scalar(1, 0),
        (6, 2): Sqrt2Scalar(2, 0),
        (7, 1): Sqrt2Scalar(2, 0),
    }
    v = induce((), (4, 1))
    assert v.as_dict() == {(4, 1): Sqrt2Scalar(1, 0)}
    v = induce((2, 1), (3, 2))
    assert v.coefficient((5, 2, 1)) == 1
    assert all(len(set(lam)) == len(lam) for lam in v.support())


def test_induce_matches_f_coeff_in_both_orders():
    """The full induce may fill lam/nu instead of lam/mu; it must equal the
    expansion built from the public f_coeff on lam/mu, and commute."""
    pairs = 0
    for n in range(13):
        for m in range(n + 1):
            for mu in enumerate_partitions(m, STRICT):
                for nu in enumerate_partitions(n - m, STRICT):
                    expected = {}
                    for lam in _grown_partitions(mu, nu):
                        f = f_coeff(lam, mu, nu)
                        if f:
                            exponent = (
                                len(mu) + len(nu) - len(lam)
                                + epsilon_exponent((mu, nu)) - epsilon_exponent((lam,))
                            )
                            expected[lam] = Sqrt2Scalar.sqrt2_power(exponent) * f
                    assert induce(mu, nu).as_dict() == expected, (mu, nu)
                    assert induce(mu, nu) == induce(nu, mu), (mu, nu)
                    pairs += 1
    assert pairs == 598


def spy_on_fill(monkeypatch):
    """Record each (lam, inner, content) the fill is called with."""
    calls = []
    count = stembridge._count_lattice_fillings

    def spy(lam, inner, content):
        calls.append((lam, inner, content))
        return count(lam, inner, content)

    monkeypatch.setattr(stembridge, "_count_lattice_fillings", spy)
    return calls


def test_full_induce_fills_the_smaller_skew_shape(monkeypatch):
    calls = spy_on_fill(monkeypatch)
    induce((1,), (9, 3))
    assert calls
    assert all(sum(lam) - sum(inner) == 1 for lam, inner, _ in calls)


def test_support_induce_keeps_mu_inside(monkeypatch):
    """A support need not contain nu: at p = 7 the odd core (3, 2, 1) is
    smaller than the runner label (4, 3), and its block label (10, 2, 1)
    does not contain it, so the support route must fill lam/mu."""
    mu = generate(7, 1, "odd", 1)[0]
    assert mu == (3, 2, 1)
    support = [lam for lam in block_enum(mu, 7, 1) if contains(lam, mu)]
    assert (10, 2, 1) in support and not contains((10, 2, 1), runner_label(7, 3))
    calls = spy_on_fill(monkeypatch)
    for j in range(ell(7) + 1):
        _induce_pairs(mu, runner_label(7, j), support)
    assert len(calls) == len(support) * (ell(7) + 1)
    assert all(inner == mu for _, inner, _ in calls)


def test_rock_branch_induce_examples():
    v = rock_branch((2, 1), 5, 0, "induce")
    assert v.as_dict() == {
        (5, 2, 1): Sqrt2Scalar(1, 0),
        (6, 2): Sqrt2Scalar(2, 0),
        (7, 1): Sqrt2Scalar(2, 0),
    }
    v = rock_branch((2, 1), 5, 2, "induce")
    assert v.as_dict() == {(5, 2, 1): Sqrt2Scalar(1, 0)}


def test_rock_branch_restrict_example():
    v = rock_branch((5, 2, 1), 5, direction="restrict")
    mu = (2, 1)
    assert v.as_dict() == {
        (mu, 0): Sqrt2Scalar(1, 0),
        (mu, 1): Sqrt2Scalar(2, 0),
        (mu, 2): Sqrt2Scalar(2, 0),
    }


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_one_bar_moves_of_a_block_label_never_meet(p):
    """_rock_branch and htoj_sides store each one-bar coefficient without
    summing: over runners 0..ell, the moves of a block label in one direction
    have no repeats and no two runners share a result, since moves on
    different runner pairs move different beads.  (m_action keeps its sum:
    there two source labels do reach one target.)"""
    for parity in ("even", "odd"):
        for d in range(1, 4):
            rho = generate(p, d, parity, 1)[0]
            for lam in (lam for w in range(d + 1) for lam in block_enum(rho, p, w)):
                for direction in ("add", "remove"):
                    moves = [mu for j in range(ell(p) + 1) for mu in _neighbors(lam, p, j, direction)]
                    assert len(set(moves)) == len(moves), (lam, p, direction)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stembridge_cross_supports_have_the_induced_size(p):
    """_count_lattice_fillings trusts |lam| - |mu| = |content|.  The
    supports stembridge-cross hands _induce_pairs are block labels containing mu,
    and each has size |mu| + p, the size of mu with any runner label."""
    for parity in ("even", "odd"):
        for d in range(1, 4):
            rho = generate(p, d, parity, 1)[0]
            block = block_enum(rho, p, d)
            for mu in block_enum(rho, p, d - 1):
                support = [lam for lam in block if contains(lam, mu)]
                for j in range(ell(p) + 1):
                    size = sum(mu) + sum(runner_label(p, j))
                    assert all(sum(lam) == size for lam in support), (rho, mu, j)


def test_rock_branch_outside_block():
    with pytest.raises(DomainError):
        rock_branch((), 5, 0, "induce")  # empty core is not Rouquier
    with pytest.raises(DomainError):
        rock_branch((2, 1), 5, direction="restrict")  # weight 0


@pytest.mark.parametrize("p", [3, 5])
def test_cross_oracle_full_support(p):
    """Project-then-compare on the whole expansion for the smaller primes."""
    L = ell(p)
    for parity in ("even", "odd"):
        rho = generate(p, 1, parity, 1)[0]
        for j in range(L + 1):
            nu = (p - j, j) if j else (p,)
            lhs = project_to_block(induce(rho, nu), rho, p, 1)
            rhs = rock_branch(rho, p, j, "induce")
            assert lhs.as_dict() == rhs.as_dict(), (p, parity, j)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cross_oracle_tableaux_vs_abacus(p):
    """Tableau enumeration and the abacus closed form agree on blocks."""
    L = ell(p)
    for parity in ("even", "odd"):
        for d in (1, 2):
            rho = generate(p, d, parity, 1)[0]
            block = block_enum(rho, p, d)
            space = CharSpace.block(rho, p, d)
            for mu in block_enum(rho, p, d - 1):
                for j in range(L + 1):
                    nu = (p - j, j) if j else (p,)
                    support = [lam for lam in block if contains(lam, mu)]
                    lhs = CharVector.from_pairs(space, _induce_pairs(mu, nu, support))
                    rhs = rock_branch(mu, p, j, "induce")
                    assert lhs.as_dict() == rhs.as_dict(), (p, parity, d, mu, j)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hook_strip_law(p):
    L = ell(p)
    for parity in ("even", "odd"):
        rho = generate(p, 1, parity, 1)[0]
        for i in range(L + 1):
            lam = rho_extension(rho, p, i)
            for j in range(L + 1):
                nu = (p - j, j) if j else (p,)
                assert f_coeff(lam, rho, nu) == (1 if i + j <= L else 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cores_match_the_validating_entry_points(p):
    """The checks call _rock_branch and _count_lattice_fillings with the
    block they hold; on every label of every block with d <= 3 they give what
    rock_branch and f_coeff give after their own checks, in both directions
    (_rock_branch's int items against rock_branch's vector)."""
    for d in (1, 2, 3):
        for parity in ("even", "odd"):
            rho = generate(p, d, parity, 1)[0]
            block = block_enum(rho, p, d)
            for lam in block:
                assert dict(core_branch(lam, p, None, "restrict")) == rock_branch(
                    lam, p, direction="restrict"
                ).as_dict(), (lam, p)
            for mu in block_enum(rho, p, d - 1):
                for j in range(ell(p) + 1):
                    assert dict(core_branch(mu, p, j, "induce")) == rock_branch(
                        mu, p, j, "induce"
                    ).as_dict(), (mu, p, j)
                    nu = runner_label(p, j)
                    for lam in block:
                        if contains(lam, mu):
                            assert _count_lattice_fillings(lam, mu, nu) == f_coeff(
                                lam, mu, nu
                            ), (lam, mu, nu)


CROSS_GRID = [(3, 3), (5, 3), (7, 3), (11, 2)]


def cross_calls(p, dmax):
    """(rho, d) of every stembridge-cross call up to dmax, both parities."""
    return [
        (generate(p, d, parity, 1)[0], d) for parity in ("even", "odd") for d in range(1, dmax + 1)
    ]


@pytest.mark.parametrize("p, dmax", CROSS_GRID)
def test_stembridge_cross_compares_the_untabled_induction(monkeypatch, p, dmax):
    """For every (mu, j), in block_enum order and runner ascending, the
    tableau pairs stembridge-cross compares are those _induce_pairs gives on
    the support with no fill table."""
    import spinblocks.verify as V

    seen = []

    def spy(mu, nu, support, fill):
        pairs = _induce_pairs(mu, nu, support, fill)
        seen.append((mu, nu, list(support), pairs))
        return pairs

    monkeypatch.setattr(V, "_induce_pairs", spy)
    for rho, d in cross_calls(p, dmax):
        seen.clear()
        assert check_stembridge_cross(rho, p, d).passed
        block = block_enum(rho, p, d)
        expected = [
            (mu, runner_label(p, j), [lam for lam in block if contains(lam, mu)])
            for mu in block_enum(rho, p, d - 1) for j in range(ell(p) + 1)
        ]
        assert [call[:3] for call in seen] == expected, (rho, d)
        for mu, nu, support, pairs in seen:
            assert pairs == _induce_pairs(mu, nu, support), (mu, nu)


@pytest.mark.parametrize("p, dmax", CROSS_GRID)
def test_stembridge_cross_fills_each_layout_once_per_runner(monkeypatch, p, dmax):
    """Inside a RoCK block lam/mu takes ell + 1 layouts, one per runner, so a
    stembridge-cross call fills (ell + 1) layouts x (ell + 1) runner labels,
    each (layout, content) once: a drift back to one fill per pair shows."""
    calls = spy_on_fill(monkeypatch)
    for rho, d in cross_calls(p, dmax):
        calls.clear()
        assert check_stembridge_cross(rho, p, d).passed
        keys = {(tuple(map(tuple, _fill_steps(lam, mu, p))), nu) for lam, mu, nu in calls}
        assert len(keys) == len(calls) == (ell(p) + 1) ** 2, (rho, d)
        assert {nu for _, nu in keys} == {runner_label(p, j) for j in range(ell(p) + 1)}


def core_branch(part, p, j, direction):
    """_rock_branch on part's own move table."""
    moves = stembridge._moves(part, p, "add" if direction == "induce" else "remove")
    return _rock_branch(part, p, j, direction, moves)


def rock_branch_by_scalars(part, p, j, direction, rho, d) -> CharVector:
    """The one-bar branching by Z[sqrt(2)] arithmetic, as the library once
    computed it: each coefficient a Sqrt2Scalar power of sqrt(2), checked to
    be a nonnegative integer, in a CharVector.  A test oracle for the int
    items of _rock_branch."""
    L, e_part, out = ell(p), epsilon_exponent((part,)), {}
    if direction == "induce":
        e_j = runner_parity(j)
        for i in range(L - j + 1):
            for lam in _neighbors(part, p, i, "add"):
                e_lam = epsilon_exponent((lam,))
                e = (e_part + e_j) % 2 + (e_part + e_lam) % 2 + e_j - e_lam
                out[lam] = Sqrt2Scalar.sqrt2_power(e)
        space = CharSpace.block(rho, p, d)
    else:
        for i in range(L + 1):
            for mu in _neighbors(part, p, i, "remove"):
                e_mu = epsilon_exponent((mu,))
                for jj in range(L - i + 1):
                    e_jj = runner_parity(jj)
                    e = e_part + (e_mu + e_part) % 2 + e_jj - (e_mu + e_jj) % 2
                    out[mu, jj] = Sqrt2Scalar.sqrt2_power(e)
        space = CharSpace.h_space(rho, p, d)
    for label, c in out.items():
        if not c.is_nonneg_integer():
            raise AssertionError(f"non-integral branching coefficient {c} at {label}")
    return CharVector.make(space, out)


def branch_calls(p, d, parity):
    """The argument tuples of every branching in the block of weight d over
    the first generated core of the parity: each label restricted, and each
    label of weight d - 1 induced on each runner."""
    rho = generate(p, d, parity, 1)[0]
    calls = [(lam, p, None, "restrict", rho, d) for lam in block_enum(rho, p, d)]
    for mu in block_enum(rho, p, d - 1):
        calls.extend((mu, p, j, "induce", rho, d) for j in range(ell(p) + 1))
    return calls


@pytest.mark.parametrize("p, dmax", [(3, 3), (5, 3), (7, 3), (11, 2)])
def test_int_branching_core_matches_the_scalar_route(p, dmax):
    """_rock_branch's items are plain ints, one per label, equal to the
    Z[sqrt(2)] route coefficient for coefficient, on every label of every
    block up to dmax, both parities, both directions and every runner."""
    for d in range(1, dmax + 1):
        for parity in ("even", "odd"):
            for args in branch_calls(p, d, parity):
                items = core_branch(*args[:4])
                assert all(type(c) is int for _, c in items), args
                assert len(dict(items)) == len(items), args
                assert dict(items) == rock_branch_by_scalars(*args).as_dict(), args


def test_an_odd_branching_exponent_keeps_the_scalar_route_message(monkeypatch):
    """With every branching exponent one too high the int core raises the
    AssertionError the scalar route raises, word for word, at the same
    label: the first move listed."""
    import spinblocks.sqrt2 as sqrt2

    real = sqrt2.times_sqrt2_power
    args = ((5, 2, 1), 5, None, "restrict", (2, 1), 1)
    with monkeypatch.context() as m:
        m.setattr(stembridge, "times_sqrt2_power", lambda a, b, e: real(a, b, e + 1))
        with pytest.raises(AssertionError) as by_ints:
            core_branch(*args[:4])
    with monkeypatch.context() as m:
        m.setattr(sqrt2, "times_sqrt2_power", lambda a, b, e: real(a, b, e + 1))
        with pytest.raises(AssertionError) as by_scalars:
            rock_branch_by_scalars(*args)
    assert str(by_ints.value) == str(by_scalars.value)
    assert str(by_ints.value) == "non-integral branching coefficient 1√2 at ((2, 1), 0)"


def induce_by_scalars(mu, nu, lams) -> dict:
    """The induction coefficients on lams by Z[sqrt(2)] arithmetic, filling
    lam/mu, as integer pairs with the zeros left out.  A test oracle for
    _induce_pairs."""
    out = {}
    for lam in lams:
        f = _count_lattice_fillings(lam, mu, nu)
        if f:
            e = len(mu) + len(nu) - len(lam) + epsilon_exponent((mu, nu)) - epsilon_exponent((lam,))
            c = Sqrt2Scalar.sqrt2_power(e) * f
            out[lam] = (c.a, c.b)
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_induce_pairs_match_induce_on_the_cross_supports(p):
    """stembridge-cross reads _induce_pairs; on its supports the pairs are
    the scalar route's coefficients, label for label."""
    for parity in ("even", "odd"):
        for d in (1, 2, 3):
            rho = generate(p, d, parity, 1)[0]
            block = block_enum(rho, p, d)
            for mu in block_enum(rho, p, d - 1):
                support = [lam for lam in block if contains(lam, mu)]
                for j in range(ell(p) + 1):
                    nu = runner_label(p, j)
                    assert _induce_pairs(mu, nu, support) == induce_by_scalars(mu, nu, support), (mu, j)


def test_induce_pairs_match_induce_on_full_inductions():
    """Every full induction with |mu| + |nu| <= 12, whichever shape it fills."""
    pairs = 0
    for n in range(13):
        for m in range(n + 1):
            for mu in enumerate_partitions(m, STRICT):
                for nu in enumerate_partitions(n - m, STRICT):
                    got = _induce_pairs(mu, nu, None)
                    assert got == {l: (c.a, c.b) for l, c in _induce(mu, nu).coeffs}
                    assert got == induce_by_scalars(mu, nu, _grown_partitions(mu, nu)), (mu, nu)
                    pairs += 1
    assert pairs == 598
