"""Rouquier bar-cores and the hook-strip geometry of one-bar extensions."""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import Abacus, ell, is_bar_core, neighbors
from .exceptions import DomainError, ShapeError
from .partitions import Partition, as_strict, contains, shifted_diagram


def is_rouquier(rho: Partition, p: int, d: int) -> bool:
    """Whether the bar-core rho satisfies the d-Rouquier runner conditions:
    runner 1 carries at least d beads and each next runner up to ell at
    least d-1 more than the previous."""
    rho = as_strict(rho)
    if d < 1:
        raise ValueError("d must be positive")
    if not is_bar_core(rho, p):
        raise DomainError(f"{rho} is not a bar-core for p={p}")
    counts = Abacus.from_partition(rho, p).runner_counts()
    L = ell(p)
    if counts[1] < d:
        return False
    return all(counts[i + 1] >= counts[i] + (d - 1) for i in range(1, L))


def generate(p: int, d: int, parity: str, count: int) -> list[Partition]:
    """The `count` smallest d-Rouquier cores of the given parity.

    Candidates come from the minimal runner filling (runner j holds
    d + (j-1)(d-1) beads at its lowest positions, 1 <= j <= ell) with extra
    beads stacked on runner ell; sizes increase strictly along the stack, so
    "smallest" is well defined.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be even or odd: {parity!r}")
    if count < 1:
        raise ValueError("count must be positive")
    L = ell(p)
    beads = []
    for j in range(1, L + 1):
        beads.extend(j + k * p for k in range(d + (j - 1) * (d - 1)))
    want_odd = parity == "odd"
    out = []
    extra = 0
    base_count = d + (L - 1) * (d - 1)
    while len(out) < count:
        stacked = beads + [L + k * p for k in range(base_count, base_count + extra)]
        rho = tuple(sorted(stacked, reverse=True))
        if (sum(rho) - len(rho)) % 2 == want_odd:
            if not is_rouquier(rho, p, d):
                raise AssertionError(f"generator produced a non-Rouquier core {rho}")
            out.append(rho)
        extra += 1
    return out


@dataclass(frozen=True)
class StripCertificate:
    """Which runner a one-bar extension slid on, plus the skew boxes.

    The boxes always form the hook strip with a top row of ell+runner+1
    boxes and a column of ell-runner+1 boxes hanging from its leftmost box.
    """

    runner: int
    boxes: tuple  # sorted (row, col) pairs


def strip_classify(lam: Partition, mu: Partition, p: int) -> StripCertificate:
    """Classify the one-bar extension mu -> lam inside a Rouquier block.

    Returns the unique runner index i with lam among the one-bar additions
    of mu on runner pair i, after checking that the shifted skew diagram is
    the hook strip the runner dictates.  Raises ShapeError otherwise.
    """
    lam, mu = as_strict(lam), as_strict(mu)
    if not contains(lam, mu) or sum(lam) - sum(mu) != p:
        raise ShapeError(f"{lam} is not a one-bar extension of {mu}")
    added = sorted(set(lam) - set(mu))
    removed = sorted(set(mu) - set(lam))
    if len(added) == 2 and not removed and added[0] + added[1] == p:
        i = min(added[0] % p, (p - added[0]) % p)
    elif len(added) == 1 and not removed and added[0] == p:
        i = 0
    elif len(added) == 1 and len(removed) == 1 and added[0] - removed[0] == p:
        r = added[0] % p
        i = min(r, p - r)
    else:
        raise ShapeError(f"{lam} does not differ from {mu} by one bar move")
    if lam not in neighbors(mu, p, i, "add"):
        raise ShapeError(f"{lam} is not a runner-{i} extension of {mu}")
    boxes = sorted(shifted_diagram(lam) - shifted_diagram(mu))
    L = ell(p)
    r0, c0 = boxes[0]
    expected = [(r0, c0 + t) for t in range(L + i + 1)]
    expected += [(r0 + t, c0) for t in range(1, L - i + 1)]
    if boxes != sorted(expected):
        raise ShapeError(
            f"skew boxes of {lam} over {mu} do not form the runner-{i} strip"
        )
    return StripCertificate(i, tuple(boxes))


def rho_extension(rho: Partition, p: int, j: int) -> Partition:
    """The weight-one partition obtained by one slide down on runner j of a
    1-Rouquier core (insert a bead at position p when j = 0)."""
    rho = as_strict(rho)
    if not is_rouquier(rho, p, 1):
        raise DomainError(f"{rho} is not a 1-Rouquier core for p={p}")
    beads = set(rho)
    if j == 0:
        if p in beads:
            raise DomainError(f"position p occupied on the abacus of {rho}")
        return tuple(sorted(beads | {p}, reverse=True))
    top = max(b for b in beads if b % p == j)
    return tuple(sorted(beads - {top} | {top + p}, reverse=True))
