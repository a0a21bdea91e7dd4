"""Partitions, strict partitions, shifted diagrams and tableau-path counts.

Partitions are plain tuples of positive integers, weakly decreasing for the
ordinary kind and strictly decreasing for the strict kind.  The empty
partition is ().  All enumeration output is in descending lexicographic
order so goldens are stable.
"""

from __future__ import annotations

from operator import ge, gt
from typing import Iterable, Iterator

from .sqrt2 import Sqrt2Scalar

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


def size(lam: Partition) -> int:
    return sum(lam)


def length(lam: Partition) -> int:
    return len(lam)


def is_odd_partition(lam: Partition) -> bool:
    """True when |lam| - h(lam) is odd (the partition's sign type)."""
    return (sum(lam) - len(lam)) % 2 == 1


def contains(lam: Partition, mu: Partition) -> bool:
    """Whether mu fits inside lam row by row."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def shifted_diagram(lam: Partition) -> frozenset:
    """Boxes (i, j) with i <= j <= lam_i + i - 1, rows indexed from 1."""
    return frozenset(
        (i, j) for i, part in enumerate(lam, 1) for j in range(i, part + i)
    )


def enumerate_partitions(n: int, kind: str) -> list[Partition]:
    """All partitions of n of the given kind, descending lexicographic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind == ORDINARY:
        return list(_gen_ordinary(n, n))
    if kind == STRICT:
        return list(_gen_strict(n, n))
    raise ValueError(f"unknown partition kind: {kind!r}")


def _gen_ordinary(n: int, maxpart: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _gen_ordinary(n - first, first):
            yield (first,) + rest


def _gen_strict(n: int, maxpart: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _gen_strict(n - first, first - 1):
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
    out = []
    if direction == "add":
        for i in range(len(lam) + 1):
            if i == len(lam):
                new = lam + (1,)
            else:
                new = lam[:i] + (lam[i] + 1,) + lam[i + 1 :]
            if _valid_parts(new, strict):
                out.append(new)
    else:
        for i in range(len(lam)):
            if lam[i] == 1:
                new = lam[:i] + lam[i + 1 :]
            else:
                new = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
            if _valid_parts(new, strict):
                out.append(new)
    # adding/removing at distinct rows gives distinct results; sort for
    # determinism
    return sorted(set(out), reverse=True)


def _valid_parts(t: Partition, strict: bool) -> bool:
    for i in range(len(t) - 1):
        if t[i] < t[i + 1] or (strict and t[i] == t[i + 1]):
            return False
    return all(x > 0 for x in t)


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


def count_chains_bruteforce(lam: Partition, kind: str) -> int:
    """Independent oracle: explicitly walk every chain () -> lam."""
    lam = validate(lam, kind)

    def walk(mu: Partition) -> int:
        if not mu:
            return 1
        return sum(walk(nu) for nu in box_moves(mu, kind, "remove"))

    return walk(lam)


def epsilon_exponent(partitions: Iterable[Partition]) -> int:
    """0 when the number of odd entries is even, else 1."""
    return sum(1 for lam in partitions if is_odd_partition(lam)) % 2


def epsilon(*partitions: Partition) -> Sqrt2Scalar:
    """1 for an even tuple of partitions, sqrt(2) for an odd one.

    Symmetric in its arguments; the square counts the irreducible
    constituents of the corresponding supercharacter.
    """
    return Sqrt2Scalar.sqrt2_power(epsilon_exponent(partitions))
