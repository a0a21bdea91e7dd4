"""Bar-abacus displays for strict partitions: slides, cores, quotients, blocks.

A strict partition lam is displayed on a p-runner abacus with one bead at
position lam_k for each part; position 0 is always unoccupied, so the display
uses h(lam) beads.  Runner i holds the positions congruent to i mod p.

A single bar move (weight step) is one of:
  * slide: move a bead from r to r-p (up) or r to r+p (down),
    target position free; sliding up from position p removes the bead,
    and inserting a bead into the free position p counts as a slide down;
  * pair: remove or insert the two beads at positions j and p-j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .exceptions import DomainError
from .partitions import (
    STRICT,
    ORDINARY,
    Partition,
    as_strict,
    path_count,
)


@dataclass(frozen=True)
class Abacus:
    p: int
    beads: frozenset

    @classmethod
    def from_partition(cls, lam: Partition, p: int) -> "Abacus":
        lam = as_strict(lam)
        _check_prime(p)
        return cls(p, frozenset(lam))

    def to_partition(self) -> Partition:
        return tuple(sorted(self.beads, reverse=True))

    def runner(self, i: int) -> tuple:
        """Bead positions on runner i, ascending."""
        return tuple(sorted(b for b in self.beads if b % self.p == i))

    def runner_counts(self) -> tuple:
        counts = [0] * self.p
        for b in self.beads:
            counts[b % self.p] += 1
        return tuple(counts)


@dataclass(frozen=True)
class BarQuotient:
    """Quotient tuple (q0; q1, ..., q_ell): q0 strict, the rest ordinary."""

    q0: Partition
    qs: tuple  # tuple of (ell) ordinary partitions, components 1..ell

    def component(self, i: int) -> Partition:
        return self.q0 if i == 0 else self.qs[i - 1]

    def weight(self) -> int:
        return sum(self.q0) + sum(sum(q) for q in self.qs)

    def sizes(self) -> tuple:
        return (sum(self.q0),) + tuple(sum(q) for q in self.qs)


def _check_prime(p: int):
    if p < 3 or p % 2 == 0 or any(p % k == 0 for k in range(3, isqrt(p) + 1, 2)):
        raise DomainError(f"p must be an odd prime: {p}")


def ell(p: int) -> int:
    return (p - 1) // 2


def runner_label(p: int, j: int) -> Partition:
    """The partition (p - j, j) of p attached to runner j; (p) for j = 0."""
    return (p - j, j) if j else (p,)


def as_composition(dcomp, p: int) -> tuple:
    """dcomp as a tuple of ell + 1 nonnegative runner weights."""
    dcomp = tuple(int(x) for x in dcomp)
    if len(dcomp) != ell(p) + 1 or any(x < 0 for x in dcomp):
        raise ValueError(f"composition must have {ell(p) + 1} nonnegative entries")
    return dcomp


def removal_moves(lam: Partition, p: int) -> list[frozenset]:
    """All bead sets reachable from lam by a single bar-removal move."""
    beads = frozenset(lam)
    out = []
    for b in sorted(beads):
        if b == p:
            out.append(beads - {b})
        elif b > p and (b - p) not in beads:
            out.append(beads - {b} | {b - p})
    for j in range(1, ell(p) + 1):
        if j in beads and (p - j) in beads:
            out.append(beads - {j, p - j})
    return out


def core_weight(
    lam: Partition, p: int, rng: random.Random | None = None
) -> tuple[Partition, int]:
    """Bar-core and bar-weight of lam.

    Applies bar-removal moves until none is left.  The default move order is
    deterministic; pass an rng to randomize it (the fixed point is the same
    either way, which the tests exercise).
    """
    lam = as_strict(lam)
    _check_prime(p)
    return _core_weight(lam, p, rng)


def _core_weight(lam: Partition, p: int, rng: random.Random | None = None):
    current = frozenset(lam)
    weight = 0
    while True:
        moves = removal_moves(tuple(sorted(current, reverse=True)), p)
        if not moves:
            break
        current = rng.choice(moves) if rng is not None else moves[0]
        weight += 1
    return tuple(sorted(current, reverse=True)), weight


def is_bar_core(lam: Partition, p: int) -> bool:
    return not removal_moves(as_strict(lam), p)


def neighbors(lam: Partition, p: int, j: int, direction: str) -> list[Partition]:
    """One-bar moves on the runner pair {j, p-j}.

    "add": slides down on runner j or p-j, plus (j = 0) inserting a bead in
    the free position p, plus (j > 0) inserting the bead pair at positions
    j and p-j.  "remove" is the exact inverse relation.
    """
    lam = as_strict(lam)
    _check_prime(p)
    if not 0 <= j <= ell(p):
        raise DomainError(f"runner index must lie in 0..{ell(p)}: {j}")
    if direction not in ("add", "remove"):
        raise ValueError(f"direction must be add or remove: {direction!r}")
    return _neighbors(lam, p, j, direction)


def _neighbors(lam: Partition, p: int, j: int, direction: str) -> list[Partition]:
    beads = frozenset(lam)
    residues = {j % p, (p - j) % p}
    results = []
    if direction == "add":
        for b in beads:
            if b % p in residues and (b + p) not in beads:
                results.append(beads - {b} | {b + p})
        if j == 0 and p not in beads:
            results.append(beads | {p})
        if j != 0 and j not in beads and (p - j) not in beads:
            results.append(beads | {j, p - j})
    else:
        for b in beads:
            if b % p in residues:
                if b == p:
                    results.append(beads - {b})
                elif b > p and (b - p) not in beads:
                    results.append(beads - {b} | {b - p})
        if j != 0 and j in beads and (p - j) in beads:
            results.append(beads - {j, p - j})
    return sorted({tuple(sorted(r, reverse=True)) for r in results}, reverse=True)


def quotient(lam: Partition, p: int) -> BarQuotient:
    """Bar-quotient of lam, on the domain where runner displacements are
    forced: every runner above ell must be empty on the abacus of lam.

    This covers every partition of a block over a Rouquier core, where the
    abacus is reached from the core by elementary slides down on runners
    0..ell only.  Elsewhere raises DomainError.
    """
    lam = as_strict(lam)
    _check_prime(p)
    return _quotient(lam, p)


def _quotient(lam: Partition, p: int) -> BarQuotient:
    L = ell(p)
    ab = Abacus(p, frozenset(lam))
    for i in range(L + 1, p):
        if ab.runner(i):
            raise DomainError(
                f"quotient not defined here: runner {i} of {lam} is occupied"
            )
    q0 = tuple(sorted((b // p for b in ab.runner(0)), reverse=True))
    qs = []
    for i in range(1, L + 1):
        offsets = sorted((b // p for b in ab.runner(i)), reverse=True)
        m = len(offsets)
        comp = tuple(c - (m - 1 - k) for k, c in enumerate(offsets))
        qs.append(tuple(x for x in comp if x > 0))
    q = BarQuotient(q0, tuple(qs))
    core, wt = _core_weight(lam, p)
    if q.weight() != wt:
        raise AssertionError(
            f"quotient sizes {q.sizes()} do not sum to the weight {wt} of {lam}"
        )
    return q


def block_enum(
    rho: Partition, p: int, d: int, dcomp: tuple | None = None
) -> list[Partition]:
    """All strict partitions with bar-core rho and bar-weight d.

    Breadth-first closure of rho under one-bar additions; when dcomp is
    given, keep only partitions whose quotient component sizes match it.
    """
    rho = as_strict(rho)
    _check_prime(p)
    if removal_moves(rho, p):
        raise DomainError(f"{rho} is not a bar-core for p={p}")
    if d < 0:
        raise ValueError("weight must be nonnegative")
    L = ell(p)
    if dcomp is not None:
        dcomp = as_composition(dcomp, p)
        if sum(dcomp) != d:
            raise ValueError(f"composition {dcomp} does not sum to {d}")
    frontier = {rho}
    for _ in range(d):
        nxt = set()
        for lam in frontier:
            for j in range(L + 1):
                nxt.update(_neighbors(lam, p, j, "add"))
        frontier = nxt
    result = sorted(frontier, reverse=True)
    if dcomp is not None:
        result = [lam for lam in result if _quotient(lam, p).sizes() == dcomp]
    return result


@lru_cache(maxsize=None)
def _k_product(lam: Partition, p: int) -> int:
    q = _quotient(lam, p)
    value = path_count(q.q0, STRICT)
    for comp in q.qs:
        value *= path_count(comp, ORDINARY)
    return value


def k_product(lam: Partition, p: int) -> int:
    """Product of tableau-path counts over the quotient components."""
    lam = as_strict(lam)
    _check_prime(p)
    return _k_product(lam, p)
