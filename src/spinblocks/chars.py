"""Exact character vectors over named block spaces.

A space fixes a basis of supercharacter labels:

  * "block": labels are the strict partitions of a block (core rho, weight d);
  * "L":     labels are runner tuples (j_1, ..., j_d) with entries in 0..ell;
  * "H":     labels are pairs (mu, j) with mu of weight d-1 over rho;
  * "full":  labels are all strict partitions of n.

Each label has a parity (odd when its epsilon tuple is odd); odd labels
split into an associate pair in the sign-refined basis.  Coefficients are
exact elements of Z[sqrt(2)].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

from .abacus import as_composition, block_enum, core_weight, ell, runner_label
from .exceptions import SpaceMismatch
from .partitions import Partition, as_strict, epsilon_exponent
from .sqrt2 import Sqrt2Scalar

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

    @classmethod
    def block(cls, rho, p, d):
        return cls("block", p, as_strict(rho), d)

    @classmethod
    def l_space(cls, rho, p, d):
        return cls("L", p, as_strict(rho), d)

    @classmethod
    def h_space(cls, rho, p, d):
        if d < 1:
            raise ValueError("an H space needs weight at least 1")
        return cls("H", p, as_strict(rho), d)

    @classmethod
    def full(cls, n):
        return cls("full", n=n)

    def eps_tuple(self, label) -> tuple:
        """The tuple of partitions whose parity count gives epsilon."""
        if self.kind in ("block", "full"):
            return (label,)
        if self.kind == "L":
            return (self.rho,) + tuple(runner_label(self.p, j) for j in label)
        if self.kind == "H":
            mu, j = label
            return (mu, runner_label(self.p, j))
        raise ValueError(f"unknown space kind {self.kind!r}")

    def eps_exponent(self, label) -> int:
        return epsilon_exponent(self.eps_tuple(label))

    def is_odd(self, label) -> bool:
        return self.eps_exponent(label) == 1

    def eps(self, label) -> Sqrt2Scalar:
        return Sqrt2Scalar.sqrt2_power(self.eps_exponent(label))

    def validate_label(self, label):
        if self.kind in ("block", "full"):
            lam = as_strict(label)
            if self.kind == "full":
                if sum(lam) != self.n:
                    raise ValueError(f"{lam} is not a partition of {self.n}")
            else:
                core, wt = core_weight(lam, self.p)
                if core != self.rho or wt != self.d:
                    raise ValueError(f"{lam} does not lie in the block {self.rho}, {self.d}")
            return lam
        L = ell(self.p)
        if self.kind == "L":
            t = tuple(int(j) for j in label)
            if len(t) != self.d or any(not 0 <= j <= L for j in t):
                raise ValueError(f"{t} is not a runner tuple of length {self.d}")
            return t
        mu, j = label
        mu = as_strict(mu)
        core, wt = core_weight(mu, self.p)
        if core != self.rho or wt != self.d - 1 or not 0 <= int(j) <= L:
            raise ValueError(f"({mu}, {j}) is not a label of {self}")
        return (mu, int(j))

    def labels(self) -> list:
        return _space_labels(self)

    def refined_labels(self) -> list:
        out = []
        for label in self.labels():
            if self.is_odd(label):
                out.extend([(label, 1), (label, -1)])
            else:
                out.append((label, 0))
        return out

    def format_label(self, label) -> str:
        if self.kind in ("block", "full"):
            return ",".join(map(str, label)) if label else "-"
        if self.kind == "L":
            return "|".join(map(str, label))
        mu, j = label
        mu_s = ",".join(map(str, mu)) if mu else "-"
        return f"{mu_s}|{j}"


@lru_cache(maxsize=None)
def _space_labels(space: CharSpace) -> list:
    if space.kind == "block":
        return block_enum(space.rho, space.p, space.d)
    if space.kind == "L":
        return runner_tuples(space.p, space.d)
    if space.kind == "H":
        mus = block_enum(space.rho, space.p, space.d - 1)
        return [(mu, j) for mu in mus for j in range(ell(space.p) + 1)]
    if space.kind == "full":
        from .partitions import STRICT, enumerate_partitions

        return enumerate_partitions(space.n, STRICT)
    raise ValueError(f"unknown space kind {space.kind!r}")


def runner_tuples(p: int, length: int) -> list:
    """All tuples of `length` runner indices in 0..ell, lexicographic."""
    tuples = [()]
    for _ in range(length):
        tuples = [t + (j,) for t in tuples for j in range(ell(p) + 1)]
    return tuples


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
        return cls(space, tuple(sorted(items, key=lambda kv: repr(kv[0]))), basis)

    @classmethod
    def unit(cls, space, label, basis=SUPER) -> "CharVector":
        return cls.make(space, {label: 1}, basis)

    @classmethod
    def zero(cls, space, basis=SUPER) -> "CharVector":
        return cls.make(space, {}, basis)

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
        self._compatible(other)
        out = self.as_dict()
        for label, c in other.coeffs:
            out[label] = out.get(label, Sqrt2Scalar(0, 0)) + c
        return CharVector.make(self.space, out, self.basis)

    def __sub__(self, other):
        return self + other.scale(-1)

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

    def unrefine(self) -> "CharVector":
        """Sign-refined basis -> supercharacter basis; the two halves of
        every associate pair must carry equal coefficients."""
        if self.basis == SUPER:
            return self
        d = self.as_dict()
        out = {}
        seen = set()
        for (label, sign), c in self.coeffs:
            if sign == 0:
                out[label] = c
            elif label not in seen:
                seen.add(label)
                other = d.get((label, -sign), Sqrt2Scalar(0, 0))
                if other != c:
                    raise ValueError(
                        f"associate pair of {label} has unequal coefficients {c} vs {other}"
                    )
                out[label] = c
        return CharVector.make(self.space, out, SUPER)

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


def eps_ratio(num_exponents, den_exponents) -> Sqrt2Scalar:
    """sqrt(2)**(sum(num) - sum(den)); raises if the result leaves the ring."""
    e = sum(num_exponents) - sum(den_exponents)
    return Sqrt2Scalar.sqrt2_power(e)


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
    L = ell(space.p)
    out = {}
    for label, c in v.coeffs:
        if space.kind == "H":
            mu, i = label
            make = lambda j: (mu, j)
        else:
            (i,) = label
            make = lambda j: (j,)
        ei = epsilon_exponent([runner_label(space.p, i)])
        e_mu_i = space.eps_exponent(label)
        for j in range(L - i + 1):
            ej = epsilon_exponent([runner_label(space.p, j)])
            target = make(j)
            coeff = eps_ratio((e_mu_i, ei, ej), (space.eps_exponent(target),))
            out[target] = out.get(target, Sqrt2Scalar(0, 0)) + c * coeff
    return CharVector.make(space, out, SUPER)


def m_action_matrix(space: CharSpace) -> dict:
    """Matrix entries {(in_label, out_label): coeff} of the M action."""
    entries = {}
    for label in space.labels():
        image = m_action(CharVector.unit(space, label))
        for out_label, c in image.coeffs:
            entries[(label, out_label)] = c
    return entries


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
    rho = as_strict(rho)
    dcomp = as_composition(dcomp, p)
    d = sum(dcomp)
    space = CharSpace.l_space(rho, p, d)
    base = tuple(j for j in range(len(dcomp)) for _ in range(dcomp[j]))
    tuples = sorted(set(permutations(base)))
    vec = CharVector.make(space, {t: 1 for t in tuples})
    eps_sq = 2 ** space.eps_exponent(base)
    certificate = multinomial(d, dcomp) * eps_sq
    return vec, certificate
