"""Shifted skew tableaux over the marked alphabet and branching rules.

The alphabet is 1' < 1 < 2' < 2 < ...; a letter is encoded as a pair
(k, marked).  Words are read row by row from the bottom row upwards, each
row left to right.  The coefficient f computed here counts the tableaux
of a given content whose word satisfies the lattice property and whose
leftmost occurrence of every letter value is unmarked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .abacus import core_weight, ell, neighbors, runner_label
from .chars import CharSpace, CharVector, eps_ratio
from .exceptions import DomainError, ShapeError
from .partitions import (
    STRICT,
    Partition,
    as_strict,
    box_moves,
    contains,
    epsilon_exponent,
)
from .rouquier import is_rouquier
from .sqrt2 import Sqrt2Scalar


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

    def content(self) -> tuple:
        counts = {}
        for k, _ in self.entries:
            counts[k] = counts.get(k, 0) + 1
        if not counts:
            return ()
        return tuple(counts.get(k, 0) for k in range(1, max(counts) + 1))


def _letter_key(letter) -> int:
    k, marked = letter
    return 2 * k - (1 if marked else 0)


def skew_boxes(lam: Partition, mu: Partition) -> tuple:
    if not contains(lam, mu):
        raise ShapeError(f"{mu} does not fit inside {lam}")
    boxes = []
    for i, part in enumerate(lam, 1):
        start = mu[i - 1] + i if i <= len(mu) else i
        boxes.extend((i, j) for j in range(start, part + i))
    return tuple(boxes)


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


def _count_lattice_fillings(boxes: tuple, content: Partition) -> int:
    """Count content fillings whose word passes both lattice phases and the
    leftmost-unmarked rule.

    Boxes are filled in reverse word order (top row first, right to left),
    which extends the word's suffix one letter at a time, so the tie
    condition of the suffix phase prunes inside the backtracking.
    """
    n = len(boxes)
    if n != sum(content):
        return 0
    h = len(content)
    order = sorted(range(n), key=lambda t: (boxes[t][0], -boxes[t][1]))
    index = {boxes[t]: t for t in range(n)}
    entries = [None] * n
    remaining = list(content)
    suffix_counts = [0] * (h + 2)  # unmarked count per value, values 1..h

    def fits(t: int, letter) -> bool:
        k, marked = letter
        row, col = boxes[t]
        right = index.get((row, col + 1))
        if right is not None and entries[right] is not None:
            if _letter_key(letter) > _letter_key(entries[right]):
                return False
        up = index.get((row - 1, col))
        if up is not None and entries[up] is not None:
            if _letter_key(entries[up]) > _letter_key(letter):
                return False
        if marked:
            for c2 in range(col + 1, col + n + 1):
                t2 = index.get((row, c2))
                if t2 is None or entries[t2] is None:
                    break
                if entries[t2] == letter:
                    return False
        else:
            for r2 in range(row - 1, 0, -1):
                t2 = index.get((r2, col))
                if t2 is None or entries[t2] is None:
                    break
                if entries[t2] == letter:
                    return False
        return True

    def finish() -> bool:
        word = tuple(entries[order[t]] for t in range(n - 1, -1, -1))
        return _phase_two_ok(word, h) and leftmost_letters_unmarked(word, h)

    def fill(step: int) -> int:
        if step == n:
            return 1 if finish() else 0
        t = order[step]
        total = 0
        for k in range(1, h + 1):
            if remaining[k - 1] == 0:
                continue
            if k >= 2 and suffix_counts[k] == suffix_counts[k - 1]:
                continue  # suffix-phase tie forbids both k and k'
            for marked in (True, False):
                letter = (k, marked)
                if fits(t, letter):
                    entries[t] = letter
                    remaining[k - 1] -= 1
                    if not marked:
                        suffix_counts[k] += 1
                    total += fill(step + 1)
                    if not marked:
                        suffix_counts[k] -= 1
                    remaining[k - 1] += 1
                    entries[t] = None
        return total

    return fill(0)


def _phase_two_ok(word: tuple, height: int) -> bool:
    """Second lattice phase: rescan from the left counting marked letters."""
    n = len(word)
    for i in range(2, height + 2):
        mi = sum(1 for c in word if c == (i, False))
        mi1 = sum(1 for c in word if c == (i - 1, False))
        for j in range(n):
            nxt = word[j]
            if mi == mi1 and nxt in ((i - 1, False), (i, True)):
                return False
            if nxt == (i, True):
                mi += 1
            elif nxt == (i - 1, True):
                mi1 += 1
    return True


@lru_cache(maxsize=None)
def _f_coeff_cached(lam: Partition, mu: Partition, nu: Partition) -> int:
    return _count_lattice_fillings(skew_boxes(lam, mu), nu)


def f_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Number of lattice fillings of the shifted skew shape lam minus mu
    with content nu (the shifted branching multiplicity)."""
    lam, mu, nu = as_strict(lam), as_strict(mu), as_strict(nu)
    if sum(lam) != sum(mu) + sum(nu):
        raise ShapeError(f"|{lam}| != |{mu}| + |{nu}|")
    return _f_coeff_cached(lam, mu, nu)


def _grown_partitions(mu: Partition, extra: int) -> list[Partition]:
    """Strict partitions containing mu with `extra` more boxes."""
    level = {mu}
    for _ in range(extra):
        nxt = set()
        for lam in level:
            nxt.update(box_moves(lam, STRICT, "add"))
        level = nxt
    return sorted(level, reverse=True)


def induce(mu: Partition, nu: Partition, support=None) -> CharVector:
    """Supercharacter induction product of mu with nu over the full space.

    The coefficient of lambda is
        eps_(mu,nu) / eps_lambda * 2^((h(mu)+h(nu)-h(lambda))/2) * f,
    with f the tableau count; every coefficient is checked to land in
    Z[sqrt(2)] with nonnegative integer part.  The formula is diagonal in
    lambda, so passing `support` computes the projection onto those labels
    without touching the rest of the expansion.
    """
    mu, nu = as_strict(mu), as_strict(nu)
    n = sum(mu) + sum(nu)
    space = CharSpace.full(n)
    e_pair = epsilon_exponent((mu, nu))
    if support is None:
        candidates = _grown_partitions(mu, sum(nu))
    else:
        candidates = [as_strict(lam) for lam in support]
        if any(sum(lam) != n for lam in candidates):
            raise ValueError("support labels must be partitions of |mu| + |nu|")
        candidates = [lam for lam in candidates if contains(lam, mu)]
    out = {}
    for lam in candidates:
        f = f_coeff(lam, mu, nu)
        if f == 0:
            continue
        exponent = (
            len(mu) + len(nu) - len(lam) + e_pair - epsilon_exponent((lam,))
        )
        coeff = Sqrt2Scalar.sqrt2_power(exponent) * f
        if coeff.a < 0:
            raise AssertionError(f"negative coefficient {coeff} at {lam}")
        out[lam] = coeff
    return CharVector.make(space, out)


def _block_context(part: Partition, p: int, weight_shift: int):
    """Core, weight-after-shift and Rouquier check for branching inputs."""
    core, wt = core_weight(part, p)
    d = wt + weight_shift
    if d < 1 or not is_rouquier(core, p, d):
        raise DomainError(
            f"{part} does not sit under a {d}-Rouquier core for p={p}"
        )
    return core, d


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
    L = ell(p)
    if direction == "induce":
        if j is None or not 0 <= j <= L:
            raise DomainError(f"runner index must lie in 0..{L}: {j}")
        rho, d = _block_context(part, p, 1)
        space = CharSpace.block(rho, p, d)
        e_mu_j = epsilon_exponent((part, runner_label(p, j)))
        ej = epsilon_exponent((runner_label(p, j),))
        out = {}
        for i in range(L - j + 1):
            for lam in neighbors(part, p, i, "add"):
                coeff = eps_ratio(
                    (e_mu_j, epsilon_exponent((part, lam)), ej),
                    (epsilon_exponent((lam,)),),
                )
                out[lam] = out.get(lam, Sqrt2Scalar(0, 0)) + coeff
        return _integral_vector(space, out)
    if direction == "restrict":
        rho, d = _block_context(part, p, 0)
        space = CharSpace.h_space(rho, p, d)
        e_lam = epsilon_exponent((part,))
        out = {}
        for jj in range(L + 1):
            ej = epsilon_exponent((runner_label(p, jj),))
            for i in range(L - jj + 1):
                for mu in neighbors(part, p, i, "remove"):
                    coeff = eps_ratio(
                        (e_lam, epsilon_exponent((mu, part)), ej),
                        (epsilon_exponent((mu, runner_label(p, jj))),),
                    )
                    key = (mu, jj)
                    out[key] = out.get(key, Sqrt2Scalar(0, 0)) + coeff
        return _integral_vector(space, out)
    raise ValueError(f"direction must be induce or restrict: {direction!r}")


def _integral_vector(space, mapping) -> CharVector:
    """Branching coefficients must simplify to plain nonnegative integers."""
    for label, c in mapping.items():
        if not c.is_nonneg_integer():
            raise AssertionError(f"non-integral branching coefficient {c} at {label}")
    return CharVector.make(space, mapping)


def rock_branch_refined(part: Partition, p: int, j: int, sign: int = 0) -> CharVector:
    """Sign-refined induction of a single irreducible (mu, j, sign).

    For an even label pass sign 0; both halves of every odd target get the
    supercharacter coefficient.  For an odd label pass +1 or -1; every
    non-exceptional coefficient splits into equal halves (checked to stay
    in the ring), while the exceptional target mu joined with a bar of (p)
    keeps the whole coefficient on the matching sign.
    """
    part = as_strict(part)
    super_vec = rock_branch(part, p, j, "induce")
    space = super_vec.space
    odd_input = epsilon_exponent((part, runner_label(p, j))) == 1
    if odd_input and sign not in (1, -1):
        raise ValueError("an odd label needs sign +1 or -1")
    if not odd_input and sign != 0:
        raise ValueError("an even label has no sign")
    if not odd_input:
        return super_vec.refine()
    exceptional = tuple(sorted(part + (p,), reverse=True)) if j == 0 else None
    out = {}
    for lam, c in super_vec.coeffs:
        if lam == exceptional:
            out[(lam, sign)] = c
        elif space.is_odd(lam):
            out[(lam, 1)] = c.halve()
            out[(lam, -1)] = c.halve()
        else:
            out[(lam, 0)] = c.halve()
    return CharVector.make(space, out, basis="refined")
