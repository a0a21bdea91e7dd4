"""Rouquier bar-cores and the hook-strip geometry of one-bar extensions."""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import (
    _check_core, _check_prime, _check_runner, _check_size, _core_weight, _neighbors, _runner_counts,
    ell,
)
from .exceptions import DomainError, ShapeError
from .partitions import Partition, as_strict, skew_boxes


def is_rouquier(rho: Partition, p: int, d: int) -> bool:
    """Whether the bar-core rho satisfies the d-Rouquier runner conditions:
    runner 1 carries at least d beads and each next runner up to ell at
    least d-1 more than the previous."""
    return _is_rouquier(_bar_core(as_strict(rho), p, d), p, d)


def _bar_core(rho: Partition, p: int, d: int) -> Partition:
    """is_rouquier's checks of a canonical rho: d >= 1, p prime, rho a bar-core."""
    if d < 1:
        raise ValueError("d must be positive")
    return _check_core(rho, p)


def rouquier_core(rho, p: int, d: int) -> Partition:
    """rho as a canonical tuple, checked to be a d-Rouquier core: the hypothesis
    every block identity rests on, for a core as _rock_weight checks it for a label."""
    rho = _bar_core(as_strict(rho), p, d)
    if not _is_rouquier(rho, p, d):
        raise DomainError(f"{rho} is not a {d}-Rouquier core for p={p}")
    return rho


def _rock_weight(lam: Partition, p: int, shift: int = 0) -> tuple[Partition, int]:
    """The core rho of a canonical lam and d, its weight + shift (1 to induce), checked
    d-Rouquier: the one gate by which a label finds its RoCK block."""
    _check_prime(p)
    _check_size(lam)
    rho, wt = _core_weight(lam, p)
    d = wt + shift
    if d < 1 or not _is_rouquier(rho, p, d):
        raise DomainError(f"{lam} does not sit under a {d}-Rouquier core for p={p}")
    return rho, d


def _is_rouquier(rho: Partition, p: int, d: int) -> bool:
    """is_rouquier without its checks: rho a canonical bar-core, d >= 1.  The
    scan stops at the first empty runner, so it costs O(h(rho)) at any p."""
    counts = _runner_counts(rho, p)
    return counts.get(1, 0) >= d and all(
        counts.get(i + 1, 0) >= counts[i] + (d - 1) for i in range(1, ell(p))
    )


# `rouquier gen --p 5 --d 2 --parity even --count 1000` takes about 0.6 s; each
# core costs time linear in its size, so the total grows with count^2
GEN_MAX_COUNT = 1000
# count times the beads of the minimal filling, ell*d + (d-1)*ell*(ell-1)/2,
# which every core listed holds: checking and printing each core costs time
# linear in its beads, so `rouquier gen --p 999983 --d 1` (499,991 beads) and
# `--p 1999 --d 1 --count 500` (999 each) take under 1 s
GEN_MAX_BEADS = 5 * 10**5


def generate(p: int, d: int, parity: str, count: int) -> list[Partition]:
    """The `count` smallest d-Rouquier cores of the given parity.

    Candidates come from the minimal runner filling (runner j holds
    d + (j-1)(d-1) beads at its lowest positions, 1 <= j <= ell) with extra
    beads stacked on runner ell; sizes increase strictly along the stack, so
    "smallest" is well defined.
    """
    _check_prime(p)
    if d < 1:
        raise ValueError("d must be positive")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be even or odd: {parity!r}")
    if count < 1:
        raise ValueError("count must be positive")
    if count > GEN_MAX_COUNT:
        raise DomainError(f"count must be at most {GEN_MAX_COUNT}: {count}")
    L = ell(p)
    held = count * (L * d + (d - 1) * L * (L - 1) // 2)
    if held > GEN_MAX_BEADS:
        raise DomainError(f"beads must be at most {GEN_MAX_BEADS}: {held}")
    beads = []
    for j in range(1, L + 1):
        beads.extend(j + k * p for k in range(d + (j - 1) * (d - 1)))
    filling = tuple(sorted(beads, reverse=True))
    # A bead b adds b - 1 to |rho| - h(rho), which fixes the parity; a
    # stacked bead L + k*p has the parity of L + k - 1, since p is odd.
    odd = (sum(filling) - len(filling)) % 2
    want_odd = parity == "odd"
    stack = []
    k = d + (L - 1) * (d - 1)  # the first free position on runner ell
    out = []
    while len(out) < count:
        if odd == want_odd:
            rho = tuple(reversed(stack)) + filling  # the stack lies above the filling
            if _core_weight(rho, p)[1] or not _is_rouquier(rho, p, d):
                raise AssertionError(f"generator produced a non-Rouquier core {rho}")
            out.append(rho)
        stack.append(L + k * p)
        odd ^= (L + k - 1) % 2
        k += 1
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
    _check_prime(p)
    L = ell(p)
    # the largest new bead lies on the move's runner pair: one O(h) lookup at any p
    top = max(set(lam) - set(mu), default=0) % p
    i = min(top, p - top)
    if lam not in _neighbors(mu, p, i, "add"):
        raise ShapeError(f"{lam} is not a one-bar extension of {mu}")
    boxes = skew_boxes(lam, mu)
    r0, c0 = boxes[0]
    expected = [(r0, c0 + t) for t in range(L + i + 1)]
    expected += [(r0 + t, c0) for t in range(1, L - i + 1)]
    if boxes != tuple(sorted(expected)):
        raise ShapeError(
            f"skew boxes of {lam} over {mu} do not form the runner-{i} strip"
        )
    return StripCertificate(i, boxes)


def rho_extension(rho: Partition, p: int, j: int) -> Partition:
    """The weight-one partition obtained by one slide down on runner j of a
    1-Rouquier core (insert a bead at position p when j = 0)."""
    rho = rouquier_core(rho, p, 1)
    _check_runner(j, p)
    return _rho_extension(rho, p, j)


def _rho_extension(rho: Partition, p: int, j: int) -> Partition:
    """rho_extension on a canonical 1-Rouquier rho and j in 0..ell."""
    moves = _neighbors(rho, p, j, "add")
    if len(moves) != 1:
        raise AssertionError(f"{rho} has {len(moves)} runner-{j} extensions, not one")
    return moves[0]
