"""Closed-form RoCK multiplicities, the non-maximal-support character
lattice with its separating functional, and the named verification checks.

Every check is exact; a failing report carries the offending labels and
both sides in machine-readable form.
"""

from __future__ import annotations

import random
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import factorial, prod

from . import stembridge, trees
from .abacus import (
    BarQuotient, _block, _block_by_sizes, _block_labels, _check_prime, _k_product, _moves,
    _quotient, ell, runner_label, runner_parity,
)
from .chars import REFINED, SUPER, CharSpace, CharVector, PairVector, _m_action_pairs, runner_tuples
from .exceptions import DomainError, SpaceMismatch
from .hnf import fold_columns, fold_solves
from .partitions import (
    ORDINARY,
    STRICT,
    Partition,
    _path_count,
    as_strict,
    contains,
    enumerate_partitions,
    parity,
)
from .rouquier import _rho_extension, _rock_weight, generate, rouquier_core
from .sqrt2 import Sqrt2Scalar, times_sqrt2_power
from .stembridge import _induce_pairs, _rock_branch


def compositions(total: int, slots: int) -> list[tuple]:
    if slots == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in compositions(total - first, slots - 1))
    return out


# ---------------------------------------------------------------------------
# non-maximal-support lattice


class NmvLattice:
    """Integer lattice spanned by the non-maximal-support generators of an
    L or H space, in the sign-refined basis: the direct sum of one lattice
    per component, the labels (mu, 0..ell) of one mu in an H space and the
    whole L space.  Each generator is an edge row of refined labels with
    coefficient 1: the rows are listed on first read, and each row's
    CharVector is built on first use.  `member` reads the labels,
    never the rows; the oracle solves over the generator columns of each
    touched component, folded once, a + b*sqrt(2) being the pair (a, b).
    Both place labels by one rule, `_placed`: a zero pair adds nothing, and
    a nonzero pair outside the space raises, its label named as given.
    """

    def __init__(self, space: CharSpace):
        self.space, self._folds = space, {}

    @cached_property
    def edge_rows(self) -> list:
        """The rows `nmv_basis` describes, in edge order."""
        space, L = self.space, ell(self.space.p)
        if space.kind == "L":
            edges = [
                (others[:k] + (jk,) + others[k:], others[:k] + (jk + 1,) + others[k:])
                for k in range(space.d)
                for others in runner_tuples(space.p, space.d - 1)
                for jk in range(L)
            ]
        else:
            mus = _block(space.rho, space.p, space.d - 1)
            edges = [((mu, j), (mu, j + 1)) for mu in mus for j in range(L)]
        odd = {label: space.is_odd(label) for label in space.labels()}
        return [row for a, b in edges for row in _pair_generators(a, b, odd[a], odd[b])]

    @cached_property
    def generators(self) -> list[CharVector]:
        space = self.space
        return [CharVector.make(space, dict.fromkeys(row, 1), REFINED) for row in self.edge_rows]

    @cached_property
    def split(self) -> tuple[dict, list]:
        """(refined label -> (component, position), sizes), read off the
        refined labels of `weights`, in label order with + before -."""
        comps = {}
        for refined in self.weights[REFINED]:
            at = comps.setdefault(refined[0][0] if self.space.kind == "H" else None, {})
            at[refined] = len(at)
        index = {l: (c, i) for c, at in enumerate(comps.values()) for l, i in at.items()}
        return index, [len(at) for at in comps.values()]

    @cached_property
    def rows(self) -> list[list[list[int]]]:
        """The generators of each component as integer rows."""
        index, sizes = self.split
        rows = [[] for _ in sizes]
        for edge in self.edge_rows:
            comps = {index[label][0] for label in edge}
            assert len(comps) == 1, f"generator {edge} straddles components {sorted(comps)}"
            row = [0] * (2 * sizes[comp := comps.pop()])
            for label in edge:
                row[2 * index[label][1]] = 1
            rows[comp].append(row)
        return rows

    @cached_property
    def weights(self) -> dict:
        """{basis: {label: ((key, x), ...)}} for `member`: each label's weight
        toward its component's sum, keyed by the base (rho in L, mu in H),
        and an odd all-zero runner label's sign toward its halves check;
        one pass per base, whose epsilon exponent gives each label's parity."""
        space, tables = self.space, {REFINED: {}, SUPER: {}}
        if space.kind == "H":
            slots = [(j,) for j in range(ell(space.p) + 1)]
            bases = [(mu, slots) for mu in _block(space.rho, space.p, space.d - 1)]
        else:
            bases = [(space.rho, runner_tuples(space.p, space.d))]
        for base, tuples in bases:
            e_base = parity(base)
            for t in tuples:
                label = (base, *t) if space.kind == "H" else t
                weight = (base, _label_weight(e_base, t))
                for sign in (1, -1) if (e_base + sum(map(runner_parity, t))) % 2 else (0,):
                    terms = (weight, ((base, "halves"), sign)) if sign and not any(t) else (weight,)
                    tables[REFINED][label, sign] = terms
                    tables[SUPER][label] = tables[SUPER].get(label, ()) + terms
        return tables

    def _placed(self, space: CharSpace, pairs: dict, basis: str):
        """(label, its `weights` terms, a, b) per nonzero pair, in one pass: the
        stray-label rule of both routes.  A zero pair adds nothing, and nonzero
        pairs outside the space raise one ValueError naming their labels as given."""
        if space != self.space:
            raise SpaceMismatch(f"{space} vs {self.space}")
        weights, outside = self.weights[basis], []
        for label, (a, b) in pairs.items():
            if a or b:
                if (terms := weights.get(label)) is None:
                    outside.append(repr(label))
                else:
                    yield label, terms, a, b
        if outside:
            raise ValueError(f"labels outside the space: {sorted(outside)}")

    def member(self, v: CharVector) -> bool:
        """v, in either basis, is a member exactly when (i) it has no
        sqrt(2) part, (ii) the halves of each component's all-zero runner
        label agree if that label is odd, and (iii) each component's sum
        of a parts weighted by `_label_weight` is 0.

        The generators are integral and meet (ii) (one that touches an odd
        all-zero label holds both halves) and (iii) (phi-kernel checks it;
        over mu they are those of weight 1 over a core of mu's parity).
        Conversely, over one mu or in weight 1 the edges form a Brauer tree:
        ell+ ... 1+ 0 1- ... ell- (shape B) if label 0 is even, else
        {0+, 0-} - 1 - ... - ell (shape A).  Subtracting from v a leaf's
        integer coefficient times its one edge sum drops the leaf and keeps
        (i)-(iii), down to node 0, which then holds 0 by (ii) and (iii)
        (Schrijver 1986, section 19).  In weight d, peel slot d: over each
        prefix t' the edges (t', j) - (t', j + 1) make that tree, of shape
        B or A as (t', 0) is even or odd.  Peeling moves v onto the labels
        with t_d = 0, the weight-(d - 1) lattice with the same weights and
        parities (runner 0 has exponent 0), so induct down to d = 1.
        """
        return self._member_pairs(v.space, {l: (c.a, c.b) for l, c in v.coeffs}, v.basis)

    def _member_pairs(self, space: CharSpace, pairs: dict, basis: str = SUPER) -> bool:
        """member on {label: (a, b)} over space, each coefficient
        a + b*sqrt(2) an integer pair, placed by `_placed`."""
        sums, irrational = {}, False
        for _, terms, a, b in self._placed(space, pairs, basis):
            irrational = irrational or b != 0
            for key, x in terms:
                sums[key] = sums.get(key, 0) + x * a
        return not irrational and not any(sums.values())

    def member_oracle(self, v: CharVector) -> bool:
        return self._oracle_pairs(v.space, {l: (c.a, c.b) for l, c in v.coeffs}, v.basis)

    def _oracle_pairs(self, space: CharSpace, pairs: dict, basis: str = SUPER) -> bool:
        """member_oracle on {label: (a, b)}, placed by `_placed` at the refined
        positions in `split`: (l, 0) for an even super label l, else (l, 1) and
        (l, -1).  Each touched component's generator columns are folded once."""
        index, sizes = self.split
        parts = {}
        for label, _, a, b in self._placed(space, pairs, basis):
            refined = (label,) if basis == REFINED else ((label, 0), (label, 1), (label, -1))
            for comp, i in (index[r] for r in refined if r in index):
                vec = parts.setdefault(comp, [0] * (2 * sizes[comp]))
                vec[2 * i], vec[2 * i + 1] = a, b
        for comp in parts.keys() - self._folds.keys():
            self._folds[comp] = fold_columns(self.rows[comp])
        return all(fold_solves(self._folds[comp], vec) for comp, vec in parts.items())


def _pair_generators(low_label, high_label, low_odd, high_odd):
    """Sign-refined generators for a projective edge low + high, each a
    tuple of refined labels with coefficient 1."""
    if low_odd and high_odd:
        return [((low_label, s), (high_label, s)) for s in (1, -1)]
    if not low_odd and not high_odd:
        return [((low_label, 0), (high_label, 0))]
    if not low_odd:
        return [((low_label, 0), (high_label, s)) for s in (1, -1)]
    return [((low_label, 1), (low_label, -1), (high_label, 0))]


def nmv_basis(space: CharSpace) -> NmvLattice:
    """Generators of the non-maximal-support character lattice.

    For an L space these are the slotwise edge sums: for every slot k and
    runner value j_k below ell, the characters at j_k and j_k + 1 add up to
    a projective character, with signs matched along associate pairs.  For
    an H space the same happens in the single runner slot over every mu.
    The edge (t, t + e_k) fixes k, so no generator comes up twice.  The
    rows are listed on first read of `edge_rows`; `member` never reads them.
    """
    if space.kind not in ("L", "H"):
        raise SpaceMismatch("non-maximal-support lattices live on L or H spaces")
    return NmvLattice(space)


def phi(v: CharVector) -> Sqrt2Scalar:
    """The alternating separating functional on an L space.

    On a basis character with runner tuple (j_1, ..., j_d) the value is
    eps_rho * prod_k (-1)^{j_k} eps_{j_k} / eps of the whole tuple; it kills
    every non-maximal-support generator.
    """
    if v.space.kind != "L":
        raise SpaceMismatch("phi is a functional on L spaces")
    e_rho = parity(v.space.rho)
    return Sqrt2Scalar.of(sum(c * _label_weight(e_rho, t) for (t, _sign), c in v.refine().coeffs))


def _label_weight(e_base: int, t: tuple) -> int:
    """phi's value on the basis character of runner tuple t over a base of
    epsilon exponent e_base, a signed power of 2: with e the sum of the
    exponents, e % 2 is that of the whole tuple."""
    return (-1) ** sum(t) * 2 ** ((e_base + sum(map(runner_parity, t))) // 2)


# ---------------------------------------------------------------------------
# closed-form RoCK multiplicities


def hyp_coeffs(rho: Partition, p: int, dcomp) -> CharVector:
    """The closed-form block character with quotient sizes dcomp:
    coefficient of lambda is
      eps_(rho,dcomp) / eps_lambda * 2^((|lam0| - h(lam0))/2) * K(lambda),
    checked to be a positive integer."""
    dcomp = tuple(int(x) for x in dcomp)
    rho = rouquier_core(rho, p, sum(dcomp))
    return _hyp_coeffs(rho, p, dcomp, _block_labels(rho, p, sum(dcomp), dcomp))


def _hyp_coeffs(rho: Partition, p: int, dcomp: tuple, part: dict) -> CharVector:
    """hyp_coeffs on a canonical sum(dcomp)-Rouquier rho, ell + 1 int dcomp and
    the block's split part {lam: quotient} of those sizes."""
    d = sum(dcomp)
    space = CharSpace("block", p, rho, d)
    e_runners = sum(runner_parity(j) * x for j, x in enumerate(dcomp))
    e_tuple = (parity(rho) + e_runners) % 2
    out, w = {}, _weight(rho, p, d)
    for lam, q in part.items():
        e = e_tuple - parity(lam) + sum(q.q0) - len(q.q0)
        if e < 0:
            raise AssertionError(f"coefficient sqrt(2)**{e} * K at {lam} leaves Z[sqrt(2)]")
        coeff = Sqrt2Scalar.sqrt2_power(e) * w.k_product(lam, q)
        if not coeff.is_nonneg_integer() or coeff.a <= 0:
            raise AssertionError(f"coefficient {coeff} at {lam} is not a positive integer")
        out[lam] = coeff
    return CharVector.make(space, out)


# ---------------------------------------------------------------------------
# named checks


class Weight:
    """One RoCK weight: the labels of weight d over the d-Rouquier core rho
    and of weight d - 1 under it, with their one-bar moves, K products and
    branchings, and the H lattice, each computed on first use; their quotients
    are read off the block splits.  The checks inside `with Weight(rho, p, d):`
    share it through `_weight`."""

    def __init__(self, rho: Partition, p: int, d: int):
        self.rho, self.p, self.d = rho, p, d
        self._move_lists, self._k_products, self._branchings = {}, {}, {}

    def __enter__(self):
        _OPEN[self.rho, self.p, self.d] = self
        return self

    def __exit__(self, *exc):
        _OPEN.pop((self.rho, self.p, self.d), None)

    def moves(self, lam: Partition, direction: str) -> tuple:
        if (lam, direction) not in self._move_lists:
            self._move_lists[lam, direction] = _moves(lam, self.p, direction)
        return self._move_lists[lam, direction]

    def k_product(self, lam: Partition, q: BarQuotient) -> int:
        if lam not in self._k_products:
            self._k_products[lam] = _k_product(q)
        return self._k_products[lam]

    def branch(self, part: Partition, j, direction: str) -> tuple:
        if (part, j, direction) not in self._branchings:
            moves = self.moves(part, "add" if direction == "induce" else "remove")
            self._branchings[part, j, direction] = _rock_branch(part, self.p, j, direction, moves)
        return self._branchings[part, j, direction]

    @cached_property
    def lattice(self) -> NmvLattice:
        return nmv_basis(CharSpace("H", self.p, self.rho, self.d))


_OPEN: dict = {}  # the weights inside a `with` block, by (rho, p, d)


def _weight(rho: Partition, p: int, d: int) -> Weight:
    """The open Weight of (rho, p, d), else a new one for the caller alone."""
    return _OPEN.get((rho, p, d)) or Weight(rho, p, d)


@dataclass
class CheckReport:
    """One check's outcome: a report passes exactly when it has no witness.  A
    side may be held as data, a CharVector or PairVector, that only `to_json` renders."""

    name: str
    params: dict
    _: KW_ONLY
    lhs: object = None
    rhs: object = None
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "verdict": "pass" if self.passed else "fail",
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "witness": _jsonable(self.witness),
        }


def _jsonable(x):
    if isinstance(x, Sqrt2Scalar):
        return {"a": x.a, "b": x.b}
    if isinstance(x, (CharVector, PairVector)):
        return x.rows()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


# `verify dim-sqd --n 30` takes about 1.2 s; each step up in n costs about 1.3 times more
DIM_SQD_MAX_N = 30


def check_dim_sqd(n: int) -> CheckReport:
    if n > DIM_SQD_MAX_N:
        raise DomainError(f"n must be at most {DIM_SQD_MAX_N}: {n}")
    lhs_ord = sum(_path_count(lam, ORDINARY) ** 2 for lam in enumerate_partitions(n, ORDINARY))
    lhs_strict = sum(
        2 ** (n - len(lam)) * _path_count(lam, STRICT) ** 2
        for lam in enumerate_partitions(n, STRICT)
    )
    rhs = factorial(n)
    lhs = {"ordinary": lhs_ord, "strict": lhs_strict}
    return CheckReport(
        "dim-sqd", {"n": n}, lhs=lhs, rhs=rhs,
        witness=None if lhs_ord == rhs == lhs_strict else {**lhs, "expected": rhs},
    )


def check_dim_reduced(rho, p: int, dcomp) -> CheckReport:
    rho = as_strict(rho)
    dcomp = tuple(int(x) for x in dcomp)
    d = sum(dcomp)
    total, w = 0, _weight(rho, p, d)
    for lam, q in _block_labels(rho, p, d, dcomp).items():
        total += 2 ** (sum(q.q0) - len(q.q0)) * w.k_product(lam, q) ** 2
    rhs = prod(map(factorial, dcomp))
    return CheckReport(
        "dim-reduced", {"rho": rho, "p": p, "dcomp": dcomp}, lhs=total, rhs=rhs,
        witness=None if total == rhs else {"lhs": total, "rhs": rhs},
    )


def check_block_count(rho, p: int, d: int) -> CheckReport:
    rho = as_strict(rho)
    whole, split = _block_labels(rho, p, d), _block_by_sizes(rho, p, d)  # checked, then split
    union, failures, census = [], [], {}
    for dcomp in compositions(d, ell(p) + 1):
        part = split.get(dcomp, {})
        union.extend(part)
        expected = len(enumerate_partitions(dcomp[0], STRICT))
        for x in dcomp[1:]:
            expected *= len(enumerate_partitions(x, ORDINARY))
        census[dcomp] = (len(part), expected)
        if len(part) != expected:
            failures.append({"dcomp": dcomp, "count": len(part), "expected": expected})
    if sorted(union) != sorted(whole) or len(union) != len(set(union)):
        failures.append({"union": len(union), "block": len(whole)})
    return CheckReport(
        "block-count", {"rho": rho, "p": p, "d": d},
        lhs={str(k): v[0] for k, v in census.items()},
        rhs={str(k): v[1] for k, v in census.items()},
        witness=failures or None,
    )


def check_htog_adjoint(rho, p: int, d: int) -> CheckReport:
    """eps_lam^2 * induce coefficient == eps_(mu,j)^2 * restrict coefficient
    for every branch pair in the block, as ints.  Only when the two sides
    differ are they compared on the union of their supports, where a pair
    missing on one side counts as zero."""
    rho = rouquier_core(rho, p, d)
    w = _weight(rho, p, d)
    restricted = {
        (mu, j, lam): b << (parity(mu) + runner_parity(j)) % 2
        for lam in _block(rho, p, d)
        for (mu, j), b in w.branch(lam, None, "restrict")
    }
    induced = {
        (mu, j, lam): a << parity(lam)
        for mu in _block(rho, p, d - 1) for j in range(ell(p) + 1)
        for lam, a in w.branch(mu, j, "induce")
    }
    failures = []
    if induced != restricted:
        # mu and lam descending as in block_enum, j ascending
        for key in sorted(induced.keys() | restricted.keys(), key=lambda k: (k[0], -k[1], k[2]),
                          reverse=True):
            lhs, rhs = induced.get(key, 0), restricted.get(key, 0)
            if lhs != rhs:
                mu, j, lam = key
                failures.append({"mu": mu, "j": j, "lam": lam,
                                 "lhs": {"a": lhs, "b": 0}, "rhs": {"a": rhs, "b": 0}})
    return CheckReport("htog-adjoint", {"rho": rho, "p": p, "d": d}, witness=failures or None)


def htoj_sides(lam, p: int) -> tuple[CharVector, CharVector]:
    """Both sides of the one-bar restriction congruence: the M action applied
    to the full restriction, and the single-runner closed form, which lists
    the removals itself: a restriction that drops some fails htoj."""
    return tuple(CharVector.from_pairs(s.space, s.pairs) for s in _htoj_sides(as_strict(lam), p))


def _htoj_sides(lam: Partition, p: int) -> tuple[PairVector, PairVector]:
    """htoj_sides on a canonical lam, as integer pairs."""
    rho, d = _rock_weight(lam, p)
    space, w = CharSpace("H", p, rho, d), _weight(rho, p, d)
    restricted = w.branch(lam, None, "restrict")
    lhs = _m_action_pairs(space, ((label, (c, 0)) for label, c in restricted))
    e_lam = parity(lam)
    rhs = {}
    for j, removals in enumerate(w.moves(lam, "remove")):
        e_j = runner_parity(j)
        for mu in removals:
            e_mu = parity(mu)
            coeff = times_sqrt2_power(1, 0, (e_mu + e_lam) % 2 + (e_lam + e_j) % 2 - e_mu - e_j)
            rhs[mu, j] = coeff  # no (mu, j) twice: each removal moves its own bead
    return PairVector(space, lhs), PairVector(space, rhs)


def check_htoj(lam, p: int, oracle: bool = False) -> CheckReport:
    """The difference of htoj_sides, tested as integer pairs in the H lattice
    of lam's weight, by `member` and by the oracle alike: no vector is built."""
    lam = as_strict(lam)
    lhs, rhs = _htoj_sides(lam, p)
    space, diff = lhs.space, dict(lhs.pairs)
    for label, (c, e) in rhs.pairs.items():
        a, b = diff.get(label, (0, 0))
        diff[label] = a - c, b - e
    lattice = _weight(space.rho, p, space.d).lattice
    member = lattice._member_pairs(space, diff)
    witness = None if member else {"difference": PairVector(space, diff).rows()}
    if oracle and (by_oracle := lattice._oracle_pairs(space, diff)) != member:
        witness = {"disagreement": {"member": member, "oracle": by_oracle}}
    return CheckReport("htoj", {"lam": lam, "p": p}, lhs=lhs, rhs=rhs, witness=witness)


def restrict_recursion_sides(lam, p: int) -> dict:
    """Per-runner-slot aggregation of the one-bar restriction.

    For every runner k with a nonempty quotient component the weighted sum
    over removals on runner k of  2^((|mu0|-h(mu0))/2) K(mu)  must collapse
    by the tableau-count recursion to  eps_lam 2^((|lam0|-h(lam0))/2) K(lam).
    As for htoj, lam of weight d must sit under a d-Rouquier core.
    """
    lam = as_strict(lam)
    rho, d = _rock_weight(lam, p)
    return _restrict_recursion_sides(
        lam, _quotient(lam, p), _weight(rho, p, d), lambda mu: _quotient(mu, p)
    )


def _restrict_recursion_sides(lam: Partition, q: BarQuotient, w: Weight, below) -> dict:
    """restrict_recursion_sides on canonical lam of w's weight, its quotient q,
    and below, which gives the quotient of each of lam's removals."""
    e_lam = parity(lam)
    rhs = Sqrt2Scalar.sqrt2_power(e_lam + sum(q.q0) - len(q.q0)) * w.k_product(lam, q)
    sides = {}
    removals = w.moves(lam, "remove")
    for k, size in enumerate(q.sizes()):
        if size == 0:
            continue
        total = Sqrt2Scalar(0, 0)
        e_k = runner_parity(k)
        for mu in removals[k]:
            mu_q, e_mu = below(mu), parity(mu)
            e = (
                (e_mu + e_lam) % 2 + (e_lam + e_k) % 2 + (e_mu + e_k) % 2 - e_mu - e_k
                + sum(mu_q.q0) - len(mu_q.q0)
            )
            total = total + Sqrt2Scalar.sqrt2_power(e) * w.k_product(mu, mu_q)
        sides[k] = (total, rhs)
    return sides


def check_restrict_recursion(rho, p: int, d: int) -> CheckReport:
    rho = rouquier_core(rho, p, d)
    failures, w, split = [], _weight(rho, p, d), _block_by_sizes(rho, p, d)
    below = {mu: q for part in _block_by_sizes(rho, p, d - 1).values() for mu, q in part.items()}
    for lam, q in (item for part in split.values() for item in part.items()):
        for k, (lhs, rhs) in _restrict_recursion_sides(lam, q, w, below.__getitem__).items():
            if lhs != rhs:
                failures.append({"lam": lam, "runner": k, "lhs": _jsonable(lhs),
                                 "rhs": _jsonable(rhs)})
    failures.sort(key=lambda f: (f["lam"], -f["runner"]), reverse=True)  # block order
    return CheckReport(
        "restrict-recursion", {"rho": rho, "p": p, "d": d}, witness=failures or None
    )


def check_hyp_nonneg(rho, p: int, d: int) -> CheckReport:
    """Every closed-form coefficient c_lam is a positive integer, and over each
    dcomp sum eps_lam^2 c_lam^2 = eps_(rho,dcomp)^2 prod_i d_i!, as in dim-reduced."""
    rho = rouquier_core(rho, p, d)
    e_rho, split = parity(rho), _block_by_sizes(rho, p, d)
    failures, totals = [], {}
    for dcomp in compositions(d, ell(p) + 1):
        try:
            vec = _hyp_coeffs(rho, p, dcomp, split.get(dcomp, {}))
        except AssertionError as exc:
            failures.append({"dcomp": dcomp, "error": str(exc)})
            continue
        totals[str(dcomp)] = vec
        squares = sum(2 ** vec.space.eps_exponent(lam) * c.a * c.a for lam, c in vec.coeffs)
        # eps_(rho,dcomp) stated apart from hyp_coeffs, so that a slip there shows
        e_tuple = (e_rho + sum(runner_parity(j) * x for j, x in enumerate(dcomp))) % 2
        expected = 2 ** e_tuple * prod(map(factorial, dcomp))
        if squares != expected:
            failures.append({"dcomp": dcomp, "squares": squares, "expected": expected})
    return CheckReport(
        "hyp-nonneg", {"rho": rho, "p": p, "d": d}, lhs=totals, witness=failures or None
    )


# Fixed sizes of the randomized core-order replay and of the tree suite;
# they are part of the report params, hence of the `verify all` verdict keys.
CORE_ORDER_MAX_N = 14
CORE_ORDER_SAMPLES = 40
CORE_ORDER_ORDERS = 50
CORE_ORDER_SEED = 20260810
TREE_SUITE_COUNT = 3


def check_core_order(p: int) -> CheckReport:
    """The closed-form bar-core and weight, read off the runner counts, equal
    the fixed point of bar removals in each of CORE_ORDER_ORDERS random
    orders, for each sampled strict partition."""
    from .abacus import _core_weight, _walk  # read at call time, so a planted core is reached

    _check_prime(p)
    rng = random.Random(CORE_ORDER_SEED)
    pool = [lam for n in range(1, CORE_ORDER_MAX_N + 1) for lam in enumerate_partitions(n, STRICT)]
    failures = []
    for lam in rng.sample(pool, min(CORE_ORDER_SAMPLES, len(pool))):
        expected, moves = _core_weight(lam, p), {}  # the walks from lam share their move lists
        for _ in range(CORE_ORDER_ORDERS):
            got = _walk(lam, p, rng, moves)
            if got != expected:
                failures.append({"lam": lam, "expected": expected, "got": got})
                break
    return CheckReport(
        "core-order",
        {"p": p, "max_n": CORE_ORDER_MAX_N, "samples": CORE_ORDER_SAMPLES,
         "orders": CORE_ORDER_ORDERS},
        witness=failures or None,
    )


def check_stembridge_cross(rho, p: int, d: int) -> CheckReport:
    """Tableau-enumerated induction projected to the block equals the
    abacus closed form, coefficient for coefficient.

    Over a d-Rouquier core the runners stay apart, so each lam/mu is one of
    ell + 1 rim shapes, one per runner.  The fills are tabled per call by the
    layout _fill_steps gives lam/mu (its box count included) and the
    content, all that the fill reads: each layout is filled once per runner."""
    rho = rouquier_core(rho, p, d)
    block, w = _block(rho, p, d), _weight(rho, p, d)
    layouts, fills, failures = {}, {}, []

    def fill(lam, mu, content):
        key = layouts[lam, mu], content
        if key not in fills:
            fills[key] = stembridge._count_lattice_fillings(lam, mu, content)
        return fills[key]

    for mu in _block(rho, p, d - 1):
        support = [lam for lam in block if contains(lam, mu)]  # the same for every runner
        for lam in support:  # one weight apart: lam/mu has p boxes
            layouts[lam, mu] = tuple(map(tuple, stembridge._fill_steps(lam, mu, p)))
        for j in range(ell(p) + 1):
            tableau_route = _induce_pairs(mu, runner_label(p, j), support, fill)
            abacus_route = w.branch(mu, j, "induce")
            # both routes are zero-free; a pair matches an int c only as (c, 0)
            if tableau_route != {lam: (c, 0) for lam, c in abacus_route}:
                space = CharSpace.block(rho, p, d)
                failures.append({"mu": mu, "j": j,
                                 "tableaux": PairVector(space, tableau_route).rows(),
                                 "abacus": CharVector.make(space, dict(abacus_route)).rows()})
    return CheckReport(
        "stembridge-cross", {"rho": rho, "p": p, "d": d}, witness=failures or None
    )


def check_tree_suite(p: int) -> CheckReport:
    """Walk periodicity plus weight-one edge sums against the
    non-maximal-support generators, for generated cores of both parities."""
    _check_prime(p)
    L = ell(p)
    failures = []
    for kind, period in (("B", 4 * L), ("A", 2 * L)):
        tree = trees.build(kind, L)
        start = trees.walk(tree).nodes[0]
        for n in range(period):
            if trees.heller(tree, start, n + period) != trees.heller(tree, start, n):
                failures.append({"kind": kind, "n": n})
    for parity in ("even", "odd"):
        for rho in generate(p, 1, parity, TREE_SUITE_COUNT):
            wt = trees.weight_one_map(rho, p)
            runner_of = {_rho_extension(rho, p, j): (j,) for j in range(L + 1)}
            edges = {
                tuple(sorted((runner_of[lam], s) for lam, s in edge))
                for edge in wt.edge_sums()
            }
            gens = {tuple(sorted(row)) for row in nmv_basis(CharSpace.l_space(rho, p, 1)).edge_rows}
            if edges != gens:
                failures.append({"rho": rho, "edges": sorted(map(str, edges))})
    return CheckReport(
        "tree-suite", {"p": p, "count": TREE_SUITE_COUNT}, witness=failures or None
    )


def check_phi_kernel(rho, p: int, d: int) -> CheckReport:
    """phi vanishes on every non-maximal-support generator of the L space
    and on no unit label of it.

    `_label_weight` and `CharSpace.is_odd` read only the sum and the runner
    parities of a tuple, so slot permutations keep phi and each edge's rows:
    one unit per multiset of runner values is checked, and one edge
    (others + (j,), others + (j + 1,)) per multiset `others` of d - 1 slots
    and j < ell, standing in `lhs` for the d! / prod(m!) edges of its orbit,
    m over the multiplicities in `others`.  On an edge a = t, b = t + e_k
    with t_k = j, n the nonzero count of the other slots and w the label
    weight, each row's phi is 0: if j > 0, a and b share a parity and
    w(a) = -w(b); if j = 0 and e_rho + n = 2k, a is even, b odd and each
    row is w(a) + w(b) = +-(2^k - 2^k); if e_rho + n = 2k + 1, a is odd,
    b even and the row is 2w(a) + w(b) = +-(2^(k+1) - 2^(k+1)).
    """
    space = CharSpace.l_space(rho, p, d)
    e_rho, runners = parity(space.rho), range(ell(p) + 1)
    units = combinations_with_replacement(runners, d)
    failures = [{"unit": t, "phi": w} for t in units if (w := _label_weight(e_rho, t)) == 0]
    rows = 0
    for others in combinations_with_replacement(runners, d - 1):
        orbit = factorial(d) // prod(factorial(others.count(j)) for j in set(others))
        for a, b in ((others + (j,), others + (j + 1,)) for j in runners[:-1]):
            for row in _pair_generators(a, b, space.is_odd(a), space.is_odd(b)):
                rows += orbit
                if sum(_label_weight(e_rho, t) for t, _sign in row):
                    vector = CharVector.make(space, dict.fromkeys(row, 1), REFINED)
                    failures.append({"generator": vector.rows(), "phi": _jsonable(phi(vector))})
    params = {"rho": space.rho, "p": p, "d": d}
    return CheckReport("phi-kernel", params, lhs=rows, rhs=0, witness=failures or None)


CHECKS = {
    "dim-sqd": check_dim_sqd,
    "dim-reduced": check_dim_reduced,
    "block-count": check_block_count,
    "htog-adjoint": check_htog_adjoint,
    "htoj": check_htoj,
    "restrict-recursion": check_restrict_recursion,
    "hyp-nonneg": check_hyp_nonneg,
    "phi-kernel": check_phi_kernel,
    "core-order": check_core_order,
    "stembridge-cross": check_stembridge_cross,
    "tree-suite": check_tree_suite,
}


def run_check(name: str, **params) -> CheckReport:
    """Run a named check; a failing report carries the offending labels and
    both sides."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; have {sorted(CHECKS)}")
    return CHECKS[name](**params)
