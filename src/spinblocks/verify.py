"""Closed-form RoCK multiplicities, the non-maximal-support character
lattice with its separating functional, and the named verification checks.

Every check is exact; a failing report carries the offending labels and
both sides in machine-readable form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .abacus import block_enum, ell, k_product, neighbors, quotient, runner_label
from .chars import REFINED, CharSpace, CharVector, eps_ratio, m_action, runner_tuples
from .exceptions import CheckFailure, DomainError, SpaceMismatch
from .hnf import integral_solution_exists, lattice_member, row_echelon_basis
from .partitions import (
    ORDINARY,
    STRICT,
    Partition,
    as_strict,
    enumerate_partitions,
    epsilon_exponent,
    path_count,
)
from .rouquier import is_rouquier
from .sqrt2 import Sqrt2Scalar
from .stembridge import rock_branch


def compositions(total: int, slots: int) -> list[tuple]:
    if slots == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in compositions(total - first, slots - 1))
    return out


# ---------------------------------------------------------------------------
# non-maximal-support lattice


@dataclass
class NmvLattice:
    """Integer lattice spanned by the non-maximal-support generators of an
    L or H space, in the sign-refined basis.

    Membership flattens each coefficient a + b*sqrt(2) to the integer pair
    (a, b) and reduces against a cached echelon basis.
    """

    space: CharSpace
    generators: list
    _basis: list = field(default=None, repr=False)
    _labels: list = field(default=None, repr=False)

    def refined_labels(self) -> list:
        if self._labels is None:
            self._labels = self.space.refined_labels()
        return self._labels

    def flatten(self, v: CharVector) -> list[int]:
        if v.space != self.space:
            raise SpaceMismatch(f"{v.space} vs {self.space}")
        v = v.refine()
        d = v.as_dict()
        out = []
        for label in self.refined_labels():
            c = d.pop(label, Sqrt2Scalar(0, 0))
            out.extend((c.a, c.b))
        if d:
            raise ValueError(f"labels outside the space: {sorted(map(repr, d))}")
        return out

    def basis(self) -> list:
        if self._basis is None:
            self._basis = row_echelon_basis([self.flatten(g) for g in self.generators])
        return self._basis

    def member(self, v: CharVector) -> bool:
        return lattice_member(self.basis(), self.flatten(v))

    def member_oracle(self, v: CharVector) -> bool:
        columns = [self.flatten(g) for g in self.generators]
        return integral_solution_exists(columns, self.flatten(v))


def _pair_generators(space, low_label, high_label, low_odd, high_odd):
    """Sign-refined generator vectors for a projective edge low + high."""
    mk = lambda m: CharVector.make(space, m, REFINED)
    if low_odd and high_odd:
        return [
            mk({(low_label, 1): 1, (high_label, 1): 1}),
            mk({(low_label, -1): 1, (high_label, -1): 1}),
        ]
    if not low_odd and not high_odd:
        return [mk({(low_label, 0): 1, (high_label, 0): 1})]
    if not low_odd and high_odd:
        return [
            mk({(low_label, 0): 1, (high_label, 1): 1}),
            mk({(low_label, 0): 1, (high_label, -1): 1}),
        ]
    return [
        mk({(low_label, 1): 1, (low_label, -1): 1, (high_label, 0): 1}),
    ]


def nmv_basis(space: CharSpace) -> NmvLattice:
    """Generators of the non-maximal-support character lattice.

    For an L space these are the slotwise edge sums: for every slot k and
    runner value j_k below ell, the characters at j_k and j_k + 1 add up to
    a projective character, with signs matched along associate pairs.  For
    an H space the same happens in the single runner slot over every mu.
    """
    L = ell(space.p)
    gens = []
    if space.kind == "L":
        others_list = runner_tuples(space.p, space.d - 1)
        seen = set()
        for k in range(space.d):
            for others in others_list:
                for jk in range(L):
                    t = others[:k] + (jk,) + others[k:]
                    t2 = others[:k] + (jk + 1,) + others[k:]
                    for g in _pair_generators(
                        space, t, t2, space.is_odd(t), space.is_odd(t2)
                    ):
                        key = g.coeffs
                        if key not in seen:
                            seen.add(key)
                            gens.append(g)
    elif space.kind == "H":
        for mu in block_enum(space.rho, space.p, space.d - 1):
            for j in range(L):
                a, b = (mu, j), (mu, j + 1)
                gens.extend(
                    _pair_generators(space, a, b, space.is_odd(a), space.is_odd(b))
                )
    else:
        raise SpaceMismatch("non-maximal-support lattices live on L or H spaces")
    return NmvLattice(space, gens)


def phi(v: CharVector) -> Sqrt2Scalar:
    """The alternating separating functional on an L space.

    On a basis character with runner tuple (j_1, ..., j_d) the value is
    eps_rho * prod_k (-1)^{j_k} eps_{j_k} / eps of the whole tuple; it kills
    every non-maximal-support generator.
    """
    space = v.space
    if space.kind != "L":
        raise SpaceMismatch("phi is a functional on L spaces")
    v = v.refine()
    total = Sqrt2Scalar(0, 0)
    for (label, _sign), c in v.coeffs:
        e = (
            epsilon_exponent((space.rho,))
            + sum(epsilon_exponent((runner_label(space.p, j),)) for j in label)
            - space.eps_exponent(label)
        )
        value = Sqrt2Scalar.sqrt2_power(e)
        if sum(label) % 2:
            value = -value
        total = total + c * value
    return total


# ---------------------------------------------------------------------------
# closed-form RoCK multiplicities


def hyp_coeffs(rho: Partition, p: int, dcomp) -> CharVector:
    """The closed-form block character with quotient sizes dcomp:
    coefficient of lambda is
      eps_(rho,dcomp) / eps_lambda * 2^((|lam0| - h(lam0))/2) * K(lambda),
    checked to be a positive integer."""
    rho = as_strict(rho)
    dcomp = tuple(int(x) for x in dcomp)
    d = sum(dcomp)
    if not is_rouquier(rho, p, d):
        raise DomainError(f"{rho} is not a {d}-Rouquier core for p={p}")
    space = CharSpace.block(rho, p, d)
    e_tuple = epsilon_exponent(
        (rho,) + tuple(runner_label(p, j) for j in range(len(dcomp)) for _ in range(dcomp[j]))
    )
    out = {}
    for lam in block_enum(rho, p, d, dcomp):
        q0 = quotient(lam, p).q0
        e = e_tuple - epsilon_exponent((lam,)) + sum(q0) - len(q0)
        coeff = Sqrt2Scalar.sqrt2_power(e) * k_product(lam, p)
        if not coeff.is_nonneg_integer() or coeff.a <= 0:
            raise AssertionError(f"coefficient {coeff} at {lam} is not a positive integer")
        out[lam] = coeff
    return CharVector.make(space, out)


# ---------------------------------------------------------------------------
# named checks


@dataclass
class CheckReport:
    name: str
    params: dict
    passed: bool
    lhs: object = None
    rhs: object = None
    witness: object = None

    def describe(self) -> str:
        state = "pass" if self.passed else "fail"
        extra = "" if self.passed else f"; witness={self.witness!r}"
        return f"check {self.name} {self.params}: {state}{extra}"

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
    if isinstance(x, CharVector):
        return x.rows()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def check_dim_sqd(n: int) -> CheckReport:
    lhs_ord = sum(path_count(lam, ORDINARY) ** 2 for lam in enumerate_partitions(n, ORDINARY))
    lhs_strict = sum(
        2 ** (n - len(lam)) * path_count(lam, STRICT) ** 2
        for lam in enumerate_partitions(n, STRICT)
    )
    rhs = factorial(n)
    passed = lhs_ord == rhs == lhs_strict
    return CheckReport(
        "dim-sqd", {"n": n}, passed,
        {"ordinary": lhs_ord, "strict": lhs_strict}, rhs,
        None if passed else {"ordinary": lhs_ord, "strict": lhs_strict, "expected": rhs},
    )


def check_dim_reduced(rho, p: int, dcomp) -> CheckReport:
    rho = as_strict(rho)
    dcomp = tuple(int(x) for x in dcomp)
    d = sum(dcomp)
    total = 0
    for lam in block_enum(rho, p, d, dcomp):
        q0 = quotient(lam, p).q0
        total += 2 ** (sum(q0) - len(q0)) * k_product(lam, p) ** 2
    rhs = 1
    for x in dcomp:
        rhs *= factorial(x)
    passed = total == rhs
    return CheckReport(
        "dim-reduced", {"rho": rho, "p": p, "dcomp": dcomp}, passed, total, rhs,
        None if passed else {"lhs": total, "rhs": rhs},
    )


def check_block_count(rho, p: int, d: int) -> CheckReport:
    rho = as_strict(rho)
    L = ell(p)
    whole = block_enum(rho, p, d)
    union = []
    failures = []
    census = {}
    for dcomp in compositions(d, L + 1):
        part = block_enum(rho, p, d, dcomp)
        union.extend(part)
        expected = len(enumerate_partitions(dcomp[0], STRICT))
        for x in dcomp[1:]:
            expected *= len(enumerate_partitions(x, ORDINARY))
        census[dcomp] = (len(part), expected)
        if len(part) != expected:
            failures.append({"dcomp": dcomp, "count": len(part), "expected": expected})
    if sorted(union) != sorted(whole) or len(union) != len(set(union)):
        failures.append({"union": len(union), "block": len(whole)})
    passed = not failures
    return CheckReport(
        "block-count", {"rho": rho, "p": p, "d": d}, passed,
        {str(k): v[0] for k, v in census.items()},
        {str(k): v[1] for k, v in census.items()},
        failures or None,
    )


def check_htog_adjoint(rho, p: int, d: int) -> CheckReport:
    """eps_lam^2 * induce coefficient == eps_(mu,j)^2 * restrict coefficient
    for every branch pair in the block."""
    rho = as_strict(rho)
    L = ell(p)
    block_space = CharSpace.block(rho, p, d)
    failures = []
    restrictions = {
        lam: rock_branch(lam, p, direction="restrict") for lam in block_space.labels()
    }
    h_space = CharSpace.h_space(rho, p, d)
    for mu in block_enum(rho, p, d - 1):
        for j in range(L + 1):
            up = rock_branch(mu, p, j, "induce")
            e_mu_j = h_space.eps_exponent((mu, j))
            for lam in block_space.labels():
                a = up.coefficient(lam)
                b = restrictions[lam].coefficient((mu, j))
                lhs = Sqrt2Scalar.sqrt2_power(2 * block_space.eps_exponent(lam)) * a
                rhs = Sqrt2Scalar.sqrt2_power(2 * e_mu_j) * b
                if lhs != rhs:
                    failures.append(
                        {"mu": mu, "j": j, "lam": lam, "lhs": _jsonable(lhs), "rhs": _jsonable(rhs)}
                    )
    return CheckReport(
        "htog-adjoint", {"rho": rho, "p": p, "d": d}, not failures,
        None, None, failures or None,
    )


def htoj_sides(lam, p: int) -> tuple[CharVector, CharVector]:
    """Both sides of the one-bar restriction congruence: the M action applied
    to the full restriction, and the single-runner closed form."""
    lam = as_strict(lam)
    restricted = rock_branch(lam, p, direction="restrict")
    lhs = m_action(restricted)
    space = restricted.space
    L = ell(p)
    out = {}
    for j in range(L + 1):
        ej = epsilon_exponent((runner_label(p, j),))
        for mu in neighbors(lam, p, j, "remove"):
            coeff = eps_ratio(
                (epsilon_exponent((mu, lam)), epsilon_exponent((lam, runner_label(p, j)))),
                (epsilon_exponent((mu,)), ej),
            )
            key = (mu, j)
            out[key] = out.get(key, Sqrt2Scalar(0, 0)) + coeff
    rhs = CharVector.make(space, out)
    return lhs, rhs


def check_htoj(lam, p: int, lattice: NmvLattice | None = None, oracle: bool = False) -> CheckReport:
    lam = as_strict(lam)
    lhs, rhs = htoj_sides(lam, p)
    diff = lhs - rhs
    if lattice is None:
        lattice = nmv_basis(lhs.space)
    ok = lattice.member(diff)
    if oracle:
        oracle_ok = lattice.member_oracle(diff)
        if oracle_ok != ok:
            return CheckReport(
                "htoj", {"lam": lam, "p": p}, False, lhs, rhs,
                {"disagreement": {"hnf": ok, "oracle": oracle_ok}},
            )
    return CheckReport(
        "htoj", {"lam": lam, "p": p}, ok, lhs, rhs,
        None if ok else {"difference": _jsonable(diff)},
    )


def restrict_recursion_sides(lam, p: int) -> dict:
    """Per-runner-slot aggregation of the one-bar restriction.

    For every runner k with a nonempty quotient component the weighted sum
    over removals on runner k of  2^((|mu0|-h(mu0))/2) K(mu)  must collapse
    by the tableau-count recursion to  eps_lam 2^((|lam0|-h(lam0))/2) K(lam).
    """
    lam = as_strict(lam)
    L = ell(p)
    q = quotient(lam, p)
    e_lam = epsilon_exponent((lam,))
    q0 = q.q0
    rhs = Sqrt2Scalar.sqrt2_power(e_lam + sum(q0) - len(q0)) * k_product(lam, p)
    sides = {}
    for k in range(L + 1):
        if sum(q.component(k)) == 0:
            continue
        total = Sqrt2Scalar(0, 0)
        for mu in neighbors(lam, p, k, "remove"):
            mu_q0 = quotient(mu, p).q0
            e = (
                epsilon_exponent((mu, lam))
                + epsilon_exponent((lam, runner_label(p, k)))
                + epsilon_exponent((mu, runner_label(p, k)))
                - epsilon_exponent((mu,))
                - epsilon_exponent((runner_label(p, k),))
                + sum(mu_q0)
                - len(mu_q0)
            )
            total = total + Sqrt2Scalar.sqrt2_power(e) * k_product(mu, p)
        sides[k] = (total, rhs)
    return sides


def check_restrict_recursion(rho, p: int, d: int) -> CheckReport:
    rho = as_strict(rho)
    if not is_rouquier(rho, p, d):
        raise DomainError(f"{rho} is not a {d}-Rouquier core for p={p}")
    failures = []
    for lam in block_enum(rho, p, d):
        for k, (lhs, rhs) in restrict_recursion_sides(lam, p).items():
            if lhs != rhs:
                failures.append(
                    {"lam": lam, "runner": k, "lhs": _jsonable(lhs), "rhs": _jsonable(rhs)}
                )
    return CheckReport(
        "restrict-recursion", {"rho": rho, "p": p, "d": d}, not failures,
        None, None, failures or None,
    )


def check_hyp_nonneg(rho, p: int, d: int) -> CheckReport:
    rho = as_strict(rho)
    L = ell(p)
    failures = []
    totals = {}
    for dcomp in compositions(d, L + 1):
        try:
            vec = hyp_coeffs(rho, p, dcomp)
        except AssertionError as exc:
            failures.append({"dcomp": dcomp, "error": str(exc)})
            continue
        totals[str(dcomp)] = _jsonable(vec)
    return CheckReport(
        "hyp-nonneg", {"rho": rho, "p": p, "d": d}, not failures,
        totals, None, failures or None,
    )


def check_core_order(p: int, max_n: int = 14, samples: int = 40, orders: int = 50,
                     seed: int = 20260810) -> CheckReport:
    """Bar-cores are independent of the removal order (randomized replay)."""
    import random

    from .abacus import core_weight

    rng = random.Random(seed)
    pool = [
        lam for n in range(1, max_n + 1) for lam in enumerate_partitions(n, STRICT)
    ]
    failures = []
    for lam in rng.sample(pool, min(samples, len(pool))):
        expected = core_weight(lam, p)
        for _ in range(orders):
            got = core_weight(lam, p, rng=rng)
            if got != expected:
                failures.append({"lam": lam, "expected": expected, "got": got})
                break
    return CheckReport(
        "core-order", {"p": p, "max_n": max_n, "samples": samples, "orders": orders},
        not failures, None, None, failures or None,
    )


def check_stembridge_cross(rho, p: int, d: int) -> CheckReport:
    """Tableau-enumerated induction projected to the block equals the
    abacus closed form, coefficient for coefficient."""
    from .stembridge import induce

    rho = as_strict(rho)
    L = ell(p)
    block = block_enum(rho, p, d)
    space = CharSpace.block(rho, p, d)
    failures = []
    for mu in block_enum(rho, p, d - 1):
        for j in range(L + 1):
            tableau_route = CharVector.make(
                space, induce(mu, runner_label(p, j), support=block).as_dict()
            )
            abacus_route = rock_branch(mu, p, j, "induce")
            if tableau_route.as_dict() != abacus_route.as_dict():
                failures.append(
                    {
                        "mu": mu,
                        "j": j,
                        "tableaux": _jsonable(tableau_route),
                        "abacus": _jsonable(abacus_route),
                    }
                )
    return CheckReport(
        "stembridge-cross", {"rho": rho, "p": p, "d": d}, not failures,
        None, None, failures or None,
    )


def check_tree_suite(p: int, count: int = 3) -> CheckReport:
    """Walk periodicity plus weight-one edge sums against the
    non-maximal-support generators, for generated cores of both parities."""
    from . import trees
    from .rouquier import generate, rho_extension

    L = ell(p)
    failures = []
    for kind, period in (("B", 4 * L), ("A", 2 * L)):
        tree = trees.build(kind, L)
        start = trees.walk(tree).nodes[0]
        for n in range(period):
            if trees.heller(tree, start, n + period) != trees.heller(tree, start, n):
                failures.append({"kind": kind, "n": n})
    for parity in ("even", "odd"):
        for rho in generate(p, 1, parity, count):
            wt = trees.weight_one_map(rho, p)
            runner_of = {rho_extension(rho, p, j): (j,) for j in range(L + 1)}
            edges = {
                tuple(sorted((runner_of[lam], s) for lam, s in edge))
                for edge in wt.edge_sums()
            }
            space = CharSpace.l_space(rho, p, 1)
            gens = {
                tuple(sorted(label for label, _ in g.coeffs))
                for g in nmv_basis(space).generators
            }
            if edges != gens:
                failures.append({"rho": rho, "edges": sorted(map(str, edges))})
    return CheckReport(
        "tree-suite", {"p": p, "count": count}, not failures, None, None,
        failures or None,
    )


def check_phi_kernel(rho, p: int, d: int) -> CheckReport:
    """phi vanishes on every non-maximal-support generator of the L space."""
    rho = as_strict(rho)
    space = CharSpace.l_space(rho, p, d)
    lattice = nmv_basis(space)
    failures = []
    for g in lattice.generators:
        value = phi(g)
        if value != 0:
            failures.append({"generator": _jsonable(g), "phi": _jsonable(value)})
    return CheckReport(
        "phi-kernel", {"rho": rho, "p": p, "d": d}, not failures,
        len(lattice.generators), 0, failures or None,
    )


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


def run_check(name: str, strict: bool = False, **params) -> CheckReport:
    """Run a named check; with strict=True a failing report is raised as a
    CheckFailure carrying the offending labels and both sides."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; have {sorted(CHECKS)}")
    report = CHECKS[name](**params)
    if strict and not report.passed:
        raise CheckFailure(report)
    return report
