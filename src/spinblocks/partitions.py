"""Partitions, strict partitions, shifted diagrams and tableau-path counts.

Partitions are plain tuples of positive integers, weakly decreasing for the
ordinary kind and strictly decreasing for the strict kind.  The empty
partition is ().  All enumeration output is in descending lexicographic
order so goldens are stable.
"""

from __future__ import annotations

from math import factorial
from operator import ge, gt, le
from typing import Iterable, Iterator

from .exceptions import DomainError, ShapeError

Partition = tuple  # tuple[int, ...]

ORDINARY = "ordinary"
STRICT = "strict"


def as_partition(parts: Iterable[int]) -> Partition:
    t = tuple(map(int, parts))
    if t and min(t) <= 0:
        raise ValueError(f"partition parts must be positive: {t}")
    if not all(map(ge, t, t[1:])):
        raise ValueError(f"parts must be weakly decreasing: {t}")
    return t


def as_strict(parts: Iterable[int]) -> Partition:
    t = as_partition(parts)
    if not all(map(gt, t, t[1:])):
        raise ValueError(f"parts must be strictly decreasing: {t}")
    return t


def validate(parts: Iterable[int], kind: str) -> Partition:
    if kind == ORDINARY:
        return as_partition(parts)
    if kind == STRICT:
        return as_strict(parts)
    raise ValueError(f"unknown partition kind: {kind!r}")


def parity(lam: Partition) -> int:
    """|lam| - h(lam) mod 2, the partition's sign type: the epsilon exponent of (lam,)."""
    return (sum(lam) - len(lam)) & 1


def is_odd_partition(lam: Partition) -> bool:
    """True when |lam| - h(lam) is odd."""
    return parity(lam) == 1


def contains(lam: Partition, mu: Partition) -> bool:
    """Whether mu fits inside lam row by row."""
    if len(mu) > len(lam):
        return False
    return all(map(le, mu, lam))


def skew_boxes(lam: Partition, mu: Partition) -> tuple:
    """The boxes of the shifted diagram of lam outside that of mu, sorted; the
    shifted diagram of lam has the boxes (i, j) with i <= j <= lam_i + i - 1,
    rows indexed from 1."""
    if not contains(lam, mu):
        raise ShapeError(f"{mu} does not fit inside {lam}")
    boxes = []
    for i, part in enumerate(lam, 1):
        start = mu[i - 1] + i if i <= len(mu) else i
        boxes.extend((i, j) for j in range(start, part + i))
    return tuple(boxes)


# `enumerate --n 45 --kind ordinary` lists 89,134 partitions and `--n 80 --kind
# strict` 77,312, each in about 1 s
ENUMERATE_MAX_N = {ORDINARY: 45, STRICT: 80}


def enumerate_partitions(n: int, kind: str) -> list[Partition]:
    """All partitions of n of the given kind, descending lexicographic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind not in (ORDINARY, STRICT):
        raise ValueError(f"unknown partition kind: {kind!r}")
    if n > ENUMERATE_MAX_N[kind]:
        raise DomainError(f"n must be at most {ENUMERATE_MAX_N[kind]} for {kind} partitions: {n}")
    return list(_gen_partitions(n, n, int(kind == STRICT)))


def _gen_partitions(n: int, maxpart: int, drop: int) -> Iterator[Partition]:
    """Partitions of n with parts at most maxpart, descending; each part
    bounds the next by itself minus drop (0 ordinary, 1 strict)."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _gen_partitions(n - first, first - drop, drop):
            yield (first,) + rest


def box_moves(lam: Partition, kind: str, direction: str) -> list[Partition]:
    """Partitions whose (shifted) diagram differs from lam's by one box.

    direction "add" gives the covers of lam, "remove" the cocovers, within
    the given kind.
    """
    lam = validate(lam, kind)
    if direction not in ("add", "remove"):
        raise ValueError(f"direction must be add or remove: {direction!r}")
    return _box_moves(lam, kind == STRICT, direction)


def _box_moves(lam: Partition, strict: bool, direction: str) -> list[Partition]:
    """The moves read off adjacent parts, descending.  Row i may grow when it
    is the first row or the row above exceeds it by at least 1 + strict, and
    a new row (1,) opens unless a strict lam ends in 1.  Row i may shrink
    when it is the last row or exceeds the row below by at least 1 + strict;
    a part 1 is dropped.  Changing a lower row gives a smaller partition when
    adding and a larger one when removing."""
    gap = 1 + strict
    out = []
    if direction == "add":
        for i, part in enumerate(lam):
            if i == 0 or lam[i - 1] - part >= gap:
                out.append(lam[:i] + (part + 1,) + lam[i + 1 :])
        if not (strict and lam and lam[-1] == 1):
            out.append(lam + (1,))
    else:
        for i in range(len(lam) - 1, -1, -1):
            if i == len(lam) - 1 or lam[i] - lam[i + 1] >= gap:
                shrunk = (lam[i] - 1,) if lam[i] > 1 else ()
                out.append(lam[:i] + shrunk + lam[i + 1 :])
    return out


# Shared memo table; the CLI can preload it from an on-disk cache.
PATH_COUNT_MEMO: dict = {}


def path_count(lam: Partition, kind: str) -> int:
    """Number of one-box growth chains from the empty partition to lam.

    For the ordinary kind this is the number of standard Young tableaux of
    shape lam; for the strict kind the number of standard shifted tableaux.
    Memoized on the canonical tuple encoding.
    """
    return _path_count(validate(lam, kind), kind)


def _path_count(lam: Partition, kind: str) -> int:
    if not lam:
        return 1
    key = (kind, lam)
    hit = PATH_COUNT_MEMO.get(key)
    if hit is None:
        moves = _box_moves(lam, kind == STRICT, "remove")
        hit = sum(_path_count(mu, kind) for mu in moves)
        PATH_COUNT_MEMO[key] = hit
    return hit


def _hook_formula(lam: Partition, strict: bool) -> int:
    """path_count in closed form, sharing nothing with the recursion.

    With beta the first-column hook lengths lam_i + h(lam) - i of an
    ordinary shape, or the parts of a strict one, the count is
    n! / prod(beta_i!) * prod_{i<j} (beta_i - beta_j), divided for a strict
    shape by prod_{i<j} (beta_i + beta_j): the hook length formula of Frame,
    Robinson and Thrall in Frobenius's form, and Thrall's shifted formula.
    """
    beta = lam if strict else [part + len(lam) - i for i, part in enumerate(lam, 1)]
    num, den = factorial(sum(lam)), 1
    for i, a in enumerate(beta):
        den *= factorial(a)
        for b in beta[i + 1 :]:
            num *= a - b
            if strict:
                den *= a + b
    return num // den


def epsilon_exponent(partitions: Iterable[Partition]) -> int:
    """0 when the number of odd entries is even, else 1: epsilon of the tuple
    is sqrt(2) to this power, and its square counts the irreducible
    constituents of the corresponding supercharacter."""
    return sum(map(parity, partitions)) & 1
