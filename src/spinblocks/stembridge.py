"""Shifted skew tableaux over the marked alphabet and branching rules.

The alphabet is 1' < 1 < 2' < 2 < ...; the letter k is coded as 2k and
k' as 2k - 1.  Words are read row by row from the bottom row upwards, each
row left to right.  The coefficient f computed here counts the tableaux
of a given content whose word satisfies the lattice property and whose
leftmost occurrence of every letter value is unmarked.
"""

from __future__ import annotations

from itertools import zip_longest

from .abacus import _check_prime, _moves, ell, runner_parity
from .chars import CharSpace, CharVector
from .exceptions import DomainError, ShapeError
from .partitions import Partition, as_strict, contains, epsilon_exponent, parity
from .rouquier import _rock_weight
from .sqrt2 import Sqrt2Scalar, times_sqrt2_power

# The fill recurses once per box of lam/mu, which has |nu| boxes (induce's
# full expansion fills at most that many); a nu of this many boxes or more
# is rejected before the fill starts.
FILL_MAX_BOXES = 950
# A full induce fills one skew shape per candidate lam; listing stops past this
# many.  `induce --mu 40 --nu 30,20,10` lists 47,938 candidates (about 0.1 s)
# and fills them in about 4 s.
INDUCE_MAX_CANDIDATES = 50000


def _fill_steps(lam: Partition, mu: Partition, n: int) -> tuple[list, list]:
    """Upper and right neighbours of the n boxes of lam/mu in fill order.

    Row i (from 0) of the shifted skew shape runs over columns
    mu_i + i .. lam_i + i - 1 and is filled right to left, top row first,
    so a right neighbour is the step just before, and the upper neighbour
    in column c is step base - c, for base the first step of row i - 1 plus
    that row's last column.  A missing neighbour reads as step n (upper) or
    n + 1 (right).  Only the rows from the first to the last where lam and
    mu differ are laid out: the rest hold no box, and a row with no box
    gives the row under it no upper neighbour, as the first row has none.
    """
    up, right = [], []
    if not n:
        return up, right
    m = len(mu)
    first = next((i for i in range(m) if lam[i] != mu[i]), m)
    last = len(lam)
    if last == m:
        last = next(i for i in range(m - 1, first - 1, -1) if lam[i] != mu[i]) + 1
    start, base = lam[first] + first, 0
    for i in range(first, last):
        lo = (mu[i] if i < m else 0) + i
        hi = lam[i] + i
        off = len(up)
        up.extend(base - c if c >= start else n for c in range(hi - 1, lo - 1, -1))
        if hi > lo:
            right.append(n + 1)
            right.extend(range(off, off + hi - lo - 1))
        start, base = lo, off + hi - 1
    return up, right


def _count_lattice_fillings(lam: Partition, mu: Partition, content: Partition) -> int:
    """Count content fillings of the shifted skew shape lam/mu whose word
    passes both lattice phases and the leftmost-unmarked rule.

    Boxes are filled in reverse word order (top row first, right to left),
    so each step extends the word's suffix by one letter, and all three
    rules are checked on that suffix as it grows; no word is built at a
    leaf.  A letter (k, marked) is coded as 2k - marked.  Since rows and
    columns weakly increase, the tableau rules reduce to the right and upper
    neighbours, both already filled: with right key R and upper key U the
    value k may be placed, marked or not, exactly when U < 2k <= R.  The
    suffix phase forbids value k while the suffix holds as many unmarked k
    as unmarked k-1.  Before word position j the prefix phase's count of i
    is content_i minus the marked i in word[j:], so it is a suffix count
    too: a marked k is forbidden when its tie with k-1 holds after placing
    it, an unmarked k when k+1 ties with k.  The last copy of a value placed
    is its leftmost letter, so it must be unmarked.
    """
    # n == |content|: f_coeff checks it, and _induce_pairs' candidates and supports
    # have size |mu| + |nu|, whichever of mu and nu it passes as the inner shape
    n = sum(lam) - sum(mu)
    h = len(content)
    up, right = _fill_steps(lam, mu, n)
    keys = [0] * n + [0, 2 * h]  # missing neighbours read as keys 0 and 2h
    remaining = [0, *content, 0]
    unmarked = [-1] + [0] * (h + 1)  # unmarked k in the suffix
    ties = [-n - 2, *content, 0]  # content_k minus the marked k in the suffix

    def fill(s: int) -> int:
        if s == n:
            return 1
        total = 0
        for k in range(keys[up[s]] // 2 + 1, keys[right[s]] // 2 + 1):
            if remaining[k] == 0 or unmarked[k] == unmarked[k - 1]:
                continue
            remaining[k] -= 1
            if remaining[k] and ties[k] - 1 != ties[k - 1]:
                ties[k] -= 1
                keys[s] = 2 * k - 1
                total += fill(s + 1)
                ties[k] += 1
            if ties[k + 1] != ties[k]:
                unmarked[k] += 1
                keys[s] = 2 * k
                total += fill(s + 1)
                unmarked[k] -= 1
            remaining[k] += 1
        return total

    return fill(0)


def f_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Number of lattice fillings of the shifted skew shape lam minus mu
    with content nu (the shifted branching multiplicity)."""
    lam, mu, nu = as_strict(lam), as_strict(mu), as_strict(nu)
    _check_fill_budget(nu)
    if sum(lam) != sum(mu) + sum(nu):
        raise ShapeError(f"|{lam}| != |{mu}| + |{nu}|")
    if not contains(lam, mu):
        raise ShapeError(f"{mu} does not fit inside {lam}")
    return _count_lattice_fillings(lam, mu, nu)


def _check_fill_budget(nu: Partition) -> None:
    if sum(nu) >= FILL_MAX_BOXES:
        raise DomainError(f"nu has {sum(nu)} boxes; the fill takes at most {FILL_MAX_BOXES - 1}")


def _grown_partitions(mu: Partition, nu: Partition) -> list[Partition]:
    """Strict partitions of |mu| + |nu| containing both mu and nu, descending.

    Containing mu is needed for lam/mu to be a shape.  Containing nu loses
    no nonzero f: the product of Schur P-functions commutes, so
    f^lam_(mu,nu) = f^lam_(nu,mu), which counts fillings of lam/nu.  Row i
    runs from max(mu_i, nu_i) up, below the row above, and leaves enough
    boxes for the lower bounds of the rows under it and no more than the
    staircase under it can hold.  Past INDUCE_MAX_CANDIDATES candidates it
    raises DomainError, before any is filled.
    """
    low = [max(a, b) for a, b in zip_longest(mu, nu, fillvalue=0)]
    out = []

    def grow(lam: Partition, rest: int) -> None:
        i = len(lam)
        if rest == 0:
            if len(out) == INDUCE_MAX_CANDIDATES:
                raise DomainError(f"induce fills at most {INDUCE_MAX_CANDIDATES} candidate shapes")
            out.append(lam)
            return
        first = low[i] if i < len(low) else 1
        top = min(lam[-1] - 1 if lam else rest, rest - sum(low[i + 1 :]))
        for part in range(top, first - 1, -1):
            if rest - part > part * (part - 1) // 2:
                break
            grow(lam + (part,), rest - part)

    grow((), sum(mu) + sum(nu))
    return out


def induce(mu: Partition, nu: Partition) -> CharVector:
    """Supercharacter induction product of mu with nu over the full space.

    The coefficient of lambda is
        eps_(mu,nu) / eps_lambda * 2^((h(mu)+h(nu)-h(lambda))/2) * f,
    with f the tableau count; every coefficient is checked to land in
    Z[sqrt(2)] with nonnegative integer part.
    """
    mu, nu = as_strict(mu), as_strict(nu)
    _check_fill_budget(nu)
    return _induce(mu, nu)


def _induce(mu: Partition, nu: Partition) -> CharVector:
    """induce without its checks, over _induce_pairs."""
    return CharVector.from_pairs(CharSpace.full(sum(mu) + sum(nu)), _induce_pairs(mu, nu, None))


def _induce_pairs(mu: Partition, nu: Partition, support, fill=None) -> dict:
    """_induce as {lam: (a, b)}, each coefficient a + b*sqrt(2) an integer
    pair, and no f = 0 label.  The formula is diagonal in lambda, so a
    support (labels of size |mu| + |nu| containing mu) gives the projection
    onto those labels without touching the rest of the expansion.

    The full expansion fills the smaller of lam/mu (|nu| boxes) and lam/nu
    (|mu| boxes): f^lam_(mu,nu) = f^lam_(nu,mu), every candidate contains
    both, and the exponent is symmetric in mu and nu.  A support fills
    lam/mu as given, since its labels need not contain nu, by
    fill(lam, mu, nu) if given (stembridge-cross's table), else by
    _count_lattice_fillings."""
    e_pair = epsilon_exponent((mu, nu))
    inner, content = (nu, mu) if support is None and sum(mu) < sum(nu) else (mu, nu)
    fill = fill or _count_lattice_fillings
    out = {}
    for lam in _grown_partitions(mu, nu) if support is None else support:
        f = fill(lam, inner, content)
        if f == 0:
            continue
        exponent = len(mu) + len(nu) - len(lam) + e_pair - parity(lam)
        a, b = out[lam] = times_sqrt2_power(f, 0, exponent)
        if a < 0:
            raise AssertionError(f"negative coefficient {Sqrt2Scalar(a, b)} at {lam}")
    return out


def rock_branch(part: Partition, p: int, j: int | None = None, direction: str = "induce") -> CharVector:
    """One-bar branching inside a RoCK block, in closed abacus form.

    "induce": part is mu of weight d-1, j a runner index; the result lives
    on the block space of weight d and the coefficient of lambda over the
    additions on runners 0..ell-j is  eps_(mu,j) eps_(mu,lam) eps_j / eps_lam.

    "restrict": part is lambda of weight d; the result lives on the H space
    and the coefficient of (mu, j) for mu a removal on runners 0..ell-j is
    eps_lam eps_(mu,lam) eps_j / eps_(mu,j).
    """
    part = as_strict(part)
    _check_prime(p)
    if direction not in ("induce", "restrict"):
        raise ValueError(f"direction must be induce or restrict: {direction!r}")
    induce = direction == "induce"
    if induce and (j is None or not 0 <= j <= ell(p)):
        raise DomainError(f"runner index must lie in 0..{ell(p)}: {j}")
    rho, d = _rock_weight(part, p, int(induce))
    space = CharSpace("block" if induce else "H", p, rho, d)  # rho is canonical
    moves = _moves(part, p, "add" if induce else "remove")
    return CharVector.make(space, dict(_rock_branch(part, p, j, direction, moves)))


def _rock_branch(part: Partition, p: int, j, direction: str, moves: tuple) -> tuple:
    """rock_branch without its checks, as its items ((label, coefficient), ...)
    in the order the moves are listed; each coefficient is a power of 2, an
    int.  part is canonical, of weight d-1 to induce or d to restrict over a
    d-Rouquier core, j in 0..ell, and moves is part's _moves table: its
    additions to induce, its removals to restrict."""
    L = ell(p)
    e_part = parity(part)
    exponents = []
    if direction == "induce":
        e_j = runner_parity(j)
        e_mu_j = (e_part + e_j) % 2
        for i in range(L - j + 1):
            for lam in moves[i]:  # runners move distinct beads: no lam twice
                e_lam = parity(lam)
                exponents.append((lam, e_mu_j + (e_part + e_lam) % 2 + e_j - e_lam))
        return _integral_items(exponents)
    # each runner's removals once; a removal on runner i lands on runners 0..ell-i
    for i, removals in enumerate(moves):
        for mu in removals:
            e_mu = parity(mu)
            e_num = e_part + (e_mu + e_part) % 2  # eps_lam eps_(mu,lam)
            for jj in range(L - i + 1):  # likewise no (mu, jj) twice
                e_jj = runner_parity(jj)
                exponents.append(((mu, jj), e_num + e_jj - (e_mu + e_jj) % 2))
    return _integral_items(exponents)


def _integral_items(exponents: list) -> tuple:
    """The items (label, sqrt(2)**e) of (label, e) pairs: branching
    coefficients must simplify to plain nonnegative integers.  A negative e
    raises in times_sqrt2_power, before any odd one is looked at."""
    items = [(label, times_sqrt2_power(1, 0, e)) for label, e in exponents]
    for label, c in items:
        if c[1]:
            raise AssertionError(f"non-integral branching coefficient {Sqrt2Scalar(*c)} at {label}")
    return tuple((label, a) for label, (a, _) in items)
