"""Exact character vectors over named block spaces.

A space fixes a basis of supercharacter labels:

  * "block": labels are the strict partitions of a block (core rho, weight d);
  * "L":     labels are runner tuples (j_1, ..., j_d) with entries in 0..ell;
  * "H":     labels are pairs (mu, j) with mu of weight d-1 over rho;
  * "full":  labels are strict partitions of n (induction products; unlisted).

Each label has a parity (odd when its epsilon tuple is odd); odd labels
split into an associate pair in the sign-refined basis.  Coefficients are
exact elements of Z[sqrt(2)].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from operator import add, sub

from .abacus import (
    _block, _check_core, _check_prime, _check_size, _core_weight, as_composition, ell, runner_parity,
)
from .exceptions import DomainError, SpaceMismatch
from .partitions import Partition, as_strict, parity
from .sqrt2 import Sqrt2Scalar, times_sqrt2_power

# An L space of weight d has (ell + 1)^d labels, counted before any is listed;
# `nmv --p 7 --rho 3,2,1 --d 6 --space L` lists 4^6 of them in about 1 s
L_MAX_LABELS = 4096


def _check_l_labels(p: int, d: int):
    """Raise ValueError for a weight d below 1, DomainError when the L space of
    weight d at p is over L_MAX_LABELS (without computing an absurd power)."""
    if d < 1:
        raise ValueError("an L space needs weight at least 1")
    _check_prime(p)
    if d >= L_MAX_LABELS.bit_length() or (ell(p) + 1) ** d > L_MAX_LABELS:
        raise DomainError(f"an L space has at most {L_MAX_LABELS} labels: {ell(p) + 1}^{d}")


SUPER = "super"
REFINED = "refined"
SIGN_SUFFIX = {1: "+", -1: "-", 0: ""}


@dataclass(frozen=True)
class CharSpace:
    kind: str  # "block" | "L" | "H" | "full"
    p: int = 0
    rho: Partition = ()
    d: int = 0
    n: int = 0

    # The three constructors are a space's gate: each checks p and the bar-core
    # rho once, and the library builds its own spaces from values it has checked.
    @classmethod
    def block(cls, rho, p, d):
        return cls("block", p, _check_core(as_strict(rho), p), d)

    @classmethod
    def l_space(cls, rho, p, d):
        _check_l_labels(p, d)
        return cls("L", p, _check_core(as_strict(rho), p), d)

    @classmethod
    def h_space(cls, rho, p, d):
        if d < 1:
            raise ValueError("an H space needs weight at least 1")
        return cls("H", p, _check_core(as_strict(rho), p), d)

    @classmethod
    def full(cls, n):
        return cls("full", n=n)

    def eps_exponent(self, label) -> int:
        """The epsilon exponent of the label's tuple of partitions: rho's
        parity plus that of each runner in an L label; mu's plus runner j's
        for an H label (mu, j); the partition's own in a block or full space."""
        if self.kind == "L":
            return (parity(self.rho) + sum(map(runner_parity, label))) % 2
        if self.kind == "H":
            mu, j = label
            return (parity(mu) + runner_parity(j)) % 2
        return parity(label)

    def is_odd(self, label) -> bool:
        return self.eps_exponent(label) == 1

    def validate_label(self, label):
        """An L or H label (as `maction` and `phi` take them), made canonical."""
        if self.kind not in ("L", "H"):
            raise SpaceMismatch(f"only L and H labels are validated, not {self.kind}")
        if self.kind == "L":
            t = tuple(int(j) for j in label)
            if len(t) != self.d or any(not 0 <= j <= ell(self.p) for j in t):
                raise ValueError(f"{t} is not a runner tuple of length {self.d}")
            return t
        return self._h_label(as_strict(label[0]), label[1])

    def _h_label(self, mu: Partition, j):
        """validate_label's checks of an H label (mu, j) with a canonical mu."""
        _check_size(mu)
        core, wt = _core_weight(mu, self.p)
        if core != self.rho or wt != self.d - 1 or not 0 <= int(j) <= ell(self.p):
            raise ValueError(f"({mu}, {j}) is not a label of {self}")
        return (mu, int(j))

    def labels(self) -> list:
        """The basis labels in their canonical order, as a new list."""
        if self.kind == "block":
            return list(_block(self.rho, self.p, self.d))
        if self.kind == "L":
            return runner_tuples(self.p, self.d)
        if self.kind == "H":
            mus = _block(self.rho, self.p, self.d - 1)
            return [(mu, j) for mu in mus for j in range(ell(self.p) + 1)]
        raise SpaceMismatch(f"a {self.kind} space does not list its labels")

    def format_label(self, label) -> str:
        if self.kind in ("block", "full"):
            return ",".join(map(str, label)) if label else "-"
        if self.kind == "L":
            return "|".join(map(str, label))
        mu, j = label
        mu_s = ",".join(map(str, mu)) if mu else "-"
        return f"{mu_s}|{j}"


def runner_tuples(p: int, length: int) -> list:
    """All tuples of `length` runner indices in 0..ell, lexicographic."""
    tuples = [()]
    for _ in range(length):
        tuples = [t + (j,) for t in tuples for j in range(ell(p) + 1)]
    return tuples


def _label_order(item) -> str:  # the sort key of a CharVector's coefficients and of every row
    return repr(item[0])


@dataclass(frozen=True)
class CharVector:
    """Finite formal Z[sqrt(2)]-combination of (refined) basis labels."""

    space: CharSpace
    coeffs: tuple  # canonically sorted ((label, scalar), ...)
    basis: str = SUPER

    @classmethod
    def make(cls, space, mapping, basis=SUPER) -> "CharVector":
        items = []
        for label, c in dict(mapping).items():
            c = Sqrt2Scalar.of(c)
            if c:
                items.append((label, c))
        return cls(space, tuple(sorted(items, key=_label_order)), basis)

    @classmethod
    def from_pairs(cls, space, pairs: dict, basis=SUPER) -> "CharVector":
        """make on {label: (a, b)}, each coefficient a + b*sqrt(2) an integer pair."""
        return cls.make(space, {label: Sqrt2Scalar(a, b) for label, (a, b) in pairs.items()}, basis)

    @classmethod
    def unit(cls, space, label, basis=SUPER) -> "CharVector":
        return cls.make(space, {label: 1}, basis)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def coefficient(self, label) -> Sqrt2Scalar:
        return self.as_dict().get(label, Sqrt2Scalar(0, 0))

    def support(self) -> list:
        return [label for label, _ in self.coeffs]

    def _compatible(self, other):
        if not isinstance(other, CharVector):
            raise TypeError("expected a CharVector")
        if self.space != other.space or self.basis != other.basis:
            raise SpaceMismatch(f"{self.space}/{self.basis} vs {other.space}/{other.basis}")

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def _combine(self, other, op):
        self._compatible(other)
        out = self.as_dict()
        for label, c in other.coeffs:
            out[label] = op(out[label], c) if label in out else op(0, c)
        return CharVector.make(self.space, out, self.basis)

    def scale(self, s) -> "CharVector":
        s = Sqrt2Scalar.of(s)
        return CharVector.make(
            self.space, {label: c * s for label, c in self.coeffs}, self.basis
        )

    def __bool__(self):
        return bool(self.coeffs)

    def refine(self) -> "CharVector":
        """Supercharacter basis -> sign-refined basis.

        An odd label is the sum of its associate pair, so a coefficient c
        lands on both halves unchanged.
        """
        if self.basis == REFINED:
            return self
        out = {}
        for label, c in self.coeffs:
            if self.space.is_odd(label):
                out[(label, 1)] = c
                out[(label, -1)] = c
            else:
                out[(label, 0)] = c
        return CharVector.make(self.space, out, REFINED)

    def label_name(self, label) -> str:
        """Printed name of a basis label; refined labels end in their sign."""
        if self.basis == REFINED:
            base, sign = label
            return self.space.format_label(base) + SIGN_SUFFIX[sign]
        return self.space.format_label(label)

    def rows(self) -> list:
        """One {"label", "a", "b"} record per nonzero coefficient, in order."""
        return [{"label": self.label_name(l), "a": c.a, "b": c.b} for l, c in self.coeffs]

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*[{self.label_name(l)}]" for l, c in self.coeffs)


@dataclass(frozen=True)
class PairVector:
    """A super-basis vector as {label: (a, b)}, each a + b*sqrt(2), printed as a CharVector."""

    space: CharSpace
    pairs: dict

    def rows(self) -> list:
        items = sorted(((l, ab) for l, ab in self.pairs.items() if any(ab)), key=_label_order)
        return [{"label": self.space.format_label(l), "a": a, "b": b} for l, (a, b) in items]


def m_action(v: CharVector) -> CharVector:
    """Character action of the weight-one bimodule, extended slotwise.

    On a basis label (mu, i) the image is
        sum_{j=0..ell-i}  eps_(mu,i) eps_i eps_j / eps_(mu,j)  *  (mu, j),
    which for the weight-one block itself collapses to
    eps_i^2 * sum_{j<=ell-i} xi_j.
    """
    space = v.space
    if not (space.kind == "H" or (space.kind == "L" and space.d == 1)):
        raise SpaceMismatch("the M action lives on H spaces (or weight-one L spaces)")
    if v.basis != SUPER:
        raise SpaceMismatch("the M action is defined on the supercharacter basis")
    pairs = _m_action_pairs(space, ((label, (c.a, c.b)) for label, c in v.coeffs))
    return CharVector.from_pairs(space, pairs)


def _m_action_pairs(space: CharSpace, items) -> dict:
    """m_action on coefficients (label, (a, b)), each a + b*sqrt(2) an integer
    pair, as {target: (a, b)} with zero sums kept."""
    L, out = ell(space.p), {}
    for label, (a, b) in items:
        *mu, i = label  # (mu, i) in an H space, (i,) in an L space
        e_mu = parity(mu[0] if mu else space.rho)
        e_i = runner_parity(i)
        e_top = (e_mu + e_i) % 2 + e_i
        for j in range(L - i + 1):
            e_j = runner_parity(j)
            x, y = times_sqrt2_power(a, b, e_top + e_j - (e_mu + e_j) % 2)
            x0, y0 = out.get((*mu, j), (0, 0))
            out[(*mu, j)] = x0 + x, y0 + y
    return out


def multinomial(d: int, dcomp) -> int:
    out = factorial(d)
    for x in dcomp:
        out //= factorial(x)
    return out


def orbit_sum(rho: Partition, p: int, dcomp) -> tuple[CharVector, int]:
    """Symmetric-group orbit of the L-space character with slot content dcomp.

    Returns the orbit element (each distinct runner tuple once) together
    with its certificate: the number of irreducible constituents,
    multinomial(d; dcomp) * eps^2.
    """
    rho = _check_core(as_strict(rho), p)
    dcomp = as_composition(dcomp, p)
    d = sum(dcomp)
    _check_l_labels(p, d)
    space = CharSpace("L", p, rho, d)
    base = tuple(j for j in range(len(dcomp)) for _ in range(dcomp[j]))
    # at most L_MAX_LABELS labels to filter, where base has up to d! orderings
    vec = CharVector.make(space, {t: 1 for t in space.labels() if tuple(sorted(t)) == base})
    eps_sq = 2 ** space.eps_exponent(base)
    certificate = multinomial(d, dcomp) * eps_sq
    return vec, certificate
