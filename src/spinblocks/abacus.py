"""Bar-abacus displays for strict partitions: slides, cores, quotients, blocks.

A strict partition lam is displayed on a p-runner abacus with one bead at
position lam_k for each part; position 0 is always unoccupied, so the display
uses h(lam) beads.  Runner i holds the positions congruent to i mod p.

A single bar move (weight step) is one of:
  * slide: move a bead from r to r-p (up) or r to r+p (down),
    target position free; sliding up from position p removes the bead,
    and inserting a bead into the free position p counts as a slide down;
  * pair: remove or insert the two beads at positions j and p-j.

The bar-core is reached by removals in any order, and it is read off the
runner counts in one pass: runner 0 empties, and on each runner pair
{i, p-i} the beads slide up and min(a_i, a_(p-i)) bead pairs leave.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod
from operator import index, neg

from .exceptions import DomainError
from .partitions import (
    STRICT,
    ORDINARY,
    Partition,
    _path_count,
    as_strict,
)


@dataclass(frozen=True)
class BarQuotient:
    """Quotient tuple (q0; q1, ..., q_ell): q0 strict, the rest ordinary."""

    q0: Partition
    qs: tuple  # tuple of (ell) ordinary partitions, components 1..ell

    def sizes(self) -> tuple:
        return (sum(self.q0),) + tuple(sum(q) for q in self.qs)


P_MAX = 10**7  # `quotient --p 9999991 --lambda 2,1` prints ell components: about 0.5 s
D_MAX = 24  # `block --p 3 --rho - --d 24` (23,528 labels) takes about 1 s
# checked by `_block` before it lists anything, since d alone does not bound a block at
# large p: `block --p 5 --rho - --d 16` (27,741 labels) takes about 1 s
BLOCK_MAX_LABELS = 30000
SIZE_MAX = 10**5  # `core --p 3` on the staircase (446, ..., 1), size 99681, takes about 1.3 s


def _check_prime(p: int):
    if p >= P_MAX or p < 3 or p % 2 == 0 or any(p % k == 0 for k in range(3, isqrt(p) + 1, 2)):
        raise DomainError(f"p must be an odd prime below {P_MAX}: {p}")


def _check_core(rho: Partition, p: int) -> Partition:
    """The one bar-core gate: p an odd prime, then the canonical rho, which it
    returns, a bar-core at p."""
    _check_prime(p)
    if _core_weight(rho, p)[1]:
        raise DomainError(f"{rho} is not a bar-core for p={p}")
    return rho


def _check_size(lam: Partition):
    if sum(lam) > SIZE_MAX:
        raise DomainError(f"partition size must be at most {SIZE_MAX}: {sum(lam)}")


def ell(p: int) -> int:
    return (p - 1) // 2


def runner_label(p: int, j: int) -> Partition:
    """The partition (p - j, j) of p attached to runner j; (p) for j = 0."""
    return (p - j, j) if j else (p,)


def runner_parity(j: int) -> int:
    """The epsilon exponent of runner_label(p, j), the same for every odd p:
    a strict partition is odd when its size minus its length is, and (p)
    has p - 1, even, while (p - j, j) for j >= 1 has p - 2, odd."""
    return 1 if j > 0 else 0


def as_composition(dcomp, p: int) -> tuple:
    """dcomp as a tuple of ell + 1 nonnegative runner weights."""
    dcomp = tuple(int(x) for x in dcomp)
    if len(dcomp) != ell(p) + 1 or any(x < 0 for x in dcomp):
        raise ValueError(f"composition must have {ell(p) + 1} nonnegative entries")
    return dcomp


def _removals(beads: frozenset, p: int) -> list[frozenset]:
    """Bead sets one bar removal below `beads`, unsorted.  A move slides a
    bead from r up to a free r-p (from p, off the abacus) or takes out a
    pair j, p-j; the pairs come by increasing j, found among the beads."""
    out = []
    for b in beads:
        if b == p:
            out.append(beads - {b})
        elif b > p and b - p not in beads:
            out.append(beads - {b} | {b - p})
    out.extend(beads - {i, p - i} for i in sorted(b for b in beads if 2 * b < p and p - b in beads))
    return out


def core_weight(lam: Partition, p: int) -> tuple[Partition, int]:
    """Bar-core and bar-weight of lam, read off the runner counts in one pass.
    Bar removals in any order reach the same fixed point (`_walk`), which
    `verify core-order` and the tests check."""
    lam = as_strict(lam)
    _check_prime(p)
    _check_size(lam)
    return _core_weight(lam, p)


def _runner_counts(lam: Partition, p: int) -> dict:
    """Bead counts of the occupied runners only, so O(h(lam)) at any p."""
    counts = {}
    for b in lam:
        counts[b % p] = counts.get(b % p, 0) + 1
    return counts


def _core_weight(lam: Partition, p: int):
    """The closed form of the module docstring (Olsson 1993, section 4).  Each
    move takes p from the size, so the weight is (|lam| - |core|) / p."""
    counts = _runner_counts(lam, p)
    core = []
    for i, a in counts.items():
        if i:
            core.extend(range(i, i + (a - min(a, counts.get(p - i, 0))) * p, p))
    core.sort(reverse=True)
    return tuple(core), (sum(lam) - sum(core)) // p


def _walk(lam: Partition, p: int, rng: random.Random, moves: dict) -> tuple[Partition, int]:
    """Bar removals from lam in a random order until none is left.  moves maps
    each bead set reached to its _removals, so walks sharing it list each once."""
    current, weight = frozenset(lam), 0
    while True:
        if current not in moves:
            moves[current] = _removals(current, p)
        if not moves[current]:
            return tuple(sorted(current, reverse=True)), weight
        current, weight = rng.choice(moves[current]), weight + 1


def is_bar_core(lam: Partition, p: int) -> bool:
    lam = as_strict(lam)
    _check_prime(p)
    return _core_weight(lam, p)[1] == 0


def neighbors(lam: Partition, p: int, j: int, direction: str) -> list[Partition]:
    """One-bar moves on the runner pair {j, p-j}.

    "add": slides down on runner j or p-j, plus (j = 0) inserting a bead in
    the free position p, plus (j > 0) inserting the bead pair at positions
    j and p-j.  "remove" is the exact inverse relation.
    """
    lam = as_strict(lam)
    _check_prime(p)
    _check_runner(j, p)
    if direction not in ("add", "remove"):
        raise ValueError(f"direction must be add or remove: {direction!r}")
    return _neighbors(lam, p, j, direction)


def _check_runner(j: int, p: int):
    if not 0 <= j <= ell(p):
        raise DomainError(f"runner index must lie in 0..{ell(p)}: {j}")


def _insert(parts: tuple, v: int) -> tuple:
    """The descending tuple parts with the new part v put in its place."""
    k = bisect_left(parts, -v, key=neg)
    return parts[:k] + (v,) + parts[k:]


def _neighbors(lam: Partition, p: int, j: int, direction: str) -> list[Partition]:
    """neighbors on canonical lam: each move drops a part and inserts one
    (or a pair) into the descending tuple; no move repeats another."""
    parts = set(lam)
    out = []
    step = -p if direction == "remove" else p
    for i, b in enumerate(lam):
        if b % p in (j, p - j) and b + step not in parts:
            rest = lam[:i] + lam[i + 1 :]
            if b + step > 0:
                out.append(_insert(rest, b + step))
            elif b == p:
                out.append(rest)
    if direction == "remove":
        if j and j in parts and p - j in parts:
            out.append(tuple(b for b in lam if b != j and b != p - j))
    elif j == 0:
        if p not in parts:
            out.append(_insert(lam, p))
    elif j not in parts and p - j not in parts:
        out.append(_insert(_insert(lam, p - j), j))
    return sorted(out, reverse=True)


def _moves(lam: Partition, p: int, direction: str) -> tuple:
    """_neighbors on every runner pair at once, runner j's moves at index j,
    from one scan of the beads and one loop over the pairs: O(h(lam) + ell)."""
    parts = set(lam)
    out = [[] for _ in range(ell(p) + 1)]
    step = -p if direction == "remove" else p
    for i, b in enumerate(lam):
        r = b % p
        if b + step not in parts:
            if b + step > 0:
                out[min(r, p - r)].append(_insert(lam[:i] + lam[i + 1 :], b + step))
            elif b == p:
                out[0].append(lam[:i] + lam[i + 1 :])
        if step < 0 and 2 * b < p and p - b in parts:
            out[b].append(tuple(c for c in lam if c != b and c != p - b))
    if step > 0:  # pair insertions; on runner 0 the bead p alone, as 0 is never a bead
        for j in range(ell(p) + 1):
            if j not in parts and p - j not in parts:
                out[j].append(_insert(_insert(lam, p - j), j) if j else _insert(lam, p))
    return tuple(tuple(sorted(m, reverse=True)) for m in out)


def quotient(lam: Partition, p: int) -> BarQuotient:
    """Bar-quotient of lam, on the domain where runner displacements are
    forced: every runner above ell must be empty on the abacus of lam.

    This covers every partition of a block over a Rouquier core, where the
    abacus is reached from the core by elementary slides down on runners
    0..ell only.  Elsewhere raises DomainError.
    """
    lam = as_strict(lam)
    _check_prime(p)
    _check_size(lam)
    return _quotient(lam, p)


def _quotient(lam: Partition, p: int) -> BarQuotient:
    L = ell(p)
    runners = {}  # occupied runner -> its bead offsets, descending (lam is)
    for b in lam:
        runners.setdefault(b % p, []).append(b // p)
    above = [i for i in runners if i > L]
    if above:
        raise DomainError(f"quotient not defined here: runner {min(above)} of {lam} is occupied")
    qs = [()] * L
    for i, offsets in runners.items():
        if i:
            m = len(offsets)
            qs[i - 1] = tuple(x for x in (c - m + 1 + k for k, c in enumerate(offsets)) if x > 0)
    q = BarQuotient(tuple(runners.get(0, ())), tuple(qs))
    core, wt = _core_weight(lam, p)
    # the components of empty runners are empty: O(h(lam)) at any p
    if sum(q.q0) + sum(sum(qs[i - 1]) for i in runners if i) != wt:
        raise AssertionError(
            f"quotient sizes {q.sizes()} do not sum to the weight {wt} of {lam}"
        )
    return q


def block_enum(
    rho: Partition, p: int, d: int, dcomp: tuple | None = None
) -> list[Partition]:
    """All strict partitions with bar-core rho and bar-weight d, descending;
    with dcomp, only those whose quotient component sizes equal dcomp.
    Memoized per (rho, p, d); each call returns a new list.  A block of more
    than BLOCK_MAX_LABELS labels is refused before any is listed.
    """
    return list(_block_labels(as_strict(rho), p, d, dcomp))


def _block_labels(rho: Partition, p: int, d: int, dcomp: tuple | None = None) -> tuple | dict:
    """block_enum's checks and labels for a canonical rho, as the memo holds them:
    the block's tuple, or with dcomp its split part {lam: quotient}.  The core
    is checked first, then dcomp, then (by `_block`) the weight and the budget."""
    _check_core(rho, p)
    if dcomp is None:
        return _block(rho, p, index(d))
    dcomp = as_composition(dcomp, p)
    if sum(dcomp) != d:
        raise ValueError(f"composition {dcomp} does not sum to {d}")
    return _block_by_sizes(rho, p, index(d)).get(dcomp, {})


def _block_size(p: int, d: int) -> int:
    """The label count of a block of weight d over any bar-core: its
    quotients are one strict and ell ordinary components of total size d,
    so it is [x^d] Q(x) P(x)^ell, with P raised to the power ell by squaring."""

    def series(strict: bool) -> list:  # partition counts of 0..d
        c = [1] + [0] * d
        for k in range(1, d + 1):
            for n in range(d, k - 1, -1) if strict else range(k, d + 1):
                c[n] += c[n - k]
        return c

    def times(a: list, b: list) -> list:
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(d + 1)]

    out, base, e = series(True), series(False), ell(p)
    while e:
        if e & 1:
            out = times(out, base)
        base, e = times(base, base), e >> 1
    return out[d]


@lru_cache(maxsize=None)
def _block(rho: Partition, p: int, d: int) -> tuple:
    """Breadth-first closure of rho under d rounds of one-bar additions, refused
    before any listing for a weight outside 0..D_MAX or past the label budget."""
    if d > D_MAX:
        raise DomainError(f"weight must be at most {D_MAX}: {d}")
    if d < 0:
        raise ValueError("weight must be nonnegative")
    labels = _block_size(p, d)
    if labels > BLOCK_MAX_LABELS:
        raise DomainError(f"a block has at most {BLOCK_MAX_LABELS} labels: {labels}")
    frontier = {rho}
    for _ in range(d):
        nxt = set()
        for lam in frontier:
            for adds in _moves(lam, p, "add"):
                nxt.update(adds)
        frontier = nxt
    return tuple(sorted(frontier, reverse=True))


@lru_cache(maxsize=None)
def _block_by_sizes(rho: Partition, p: int, d: int) -> dict:
    """The block split by quotient sizes, each part {lam: its quotient} in
    descending lam: the one place a block label is quotiented."""
    parts = {}
    for lam in _block(rho, p, d):
        q = _quotient(lam, p)
        parts.setdefault(q.sizes(), {})[lam] = q
    return parts


def _k_product(q: BarQuotient) -> int:
    return _path_count(q.q0, STRICT) * prod(_path_count(comp, ORDINARY) for comp in q.qs)


def k_product(lam: Partition, p: int) -> int:
    """Product of tableau-path counts over the quotient components."""
    lam = as_strict(lam)
    _check_prime(p)
    return _k_product(_quotient(lam, p))
