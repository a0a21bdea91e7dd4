"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass lines and timings.
"""

import random
import time
from math import factorial

from spinblocks import abacus
from spinblocks.abacus import block_enum, core_weight, ell, quotient
from spinblocks.chars import CharSpace, CharVector
from spinblocks.partitions import (
    ORDINARY,
    STRICT,
    box_moves,
    contains,
    enumerate_partitions,
    path_count,
)
from spinblocks.rouquier import generate, rho_extension
from spinblocks.sqrt2 import Sqrt2Scalar
from spinblocks.stembridge import _induce_pairs, f_coeff, rock_branch
from spinblocks.trees import build, heller, walk, weight_one_map
from spinblocks.verify import (
    Weight,
    check_htoj,
    compositions,
    hyp_coeffs,
    nmv_basis,
    phi,
    restrict_recursion_sides,
)


class Criterion:
    def __init__(self, number, title, limit_seconds):
        self.number = number
        self.title = title
        self.limit = limit_seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.title}): {verdict} in {elapsed:.2f}s")
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_1_counting_identities():
    with Criterion(1, "counting identities", 5.0):
        for n in range(11):
            ordinary = sum(
                path_count(lam, ORDINARY) ** 2
                for lam in enumerate_partitions(n, ORDINARY)
            )
            strict = sum(
                2 ** (n - len(lam)) * path_count(lam, STRICT) ** 2
                for lam in enumerate_partitions(n, STRICT)
            )
            assert ordinary == factorial(n) == strict
        for kind in (ORDINARY, STRICT):
            for n in range(1, 11):
                for lam in enumerate_partitions(n, kind):
                    assert path_count(lam, kind) == sum(
                        path_count(mu, kind)
                        for mu in box_moves(lam, kind, "remove")
                    )


def test_criterion_2_core_quotient_soundness():
    with Criterion(2, "core/quotient soundness", 30.0):
        rng = random.Random(20260810)
        pool = [
            lam
            for n in range(1, 15)
            for lam in enumerate_partitions(n, STRICT)
        ]
        for p in (3, 5, 7):
            for lam in rng.sample(pool, 60):
                expected = core_weight(lam, p)
                for _ in range(100):
                    assert abacus._walk(lam, p, rng, {}) == expected
        for parity in ("even", "odd"):
            for d in (1, 2, 3):
                rho = generate(5, d, parity, 1)[0]
                whole = block_enum(rho, 5, d)
                union = []
                for dcomp in compositions(d, 3):
                    fiber = block_enum(rho, 5, d, dcomp)
                    expected = len(enumerate_partitions(dcomp[0], STRICT))
                    for x in dcomp[1:]:
                        expected *= len(enumerate_partitions(x, ORDINARY))
                    assert len(fiber) == expected, (parity, d, dcomp)
                    union.extend(fiber)
                assert sorted(union) == sorted(whole)
                assert len(union) == len(set(union))


def _tableau_route_on_block(mu, nu, rho, p, d):
    """Stembridge coefficients by tableau enumeration, projected to the
    block: the expansion is diagonal in lambda, so the projection is the
    coefficient list over the block labels."""
    support = [lam for lam in block_enum(rho, p, d) if contains(lam, mu)]
    return CharVector.from_pairs(CharSpace.block(rho, p, d), _induce_pairs(mu, nu, support))


def test_criterion_3_stembridge_cross_oracle():
    with Criterion(3, "Stembridge cross-oracle", 60.0):
        for p in (3, 5, 7):
            L = ell(p)
            for parity in ("even", "odd"):
                for d in (1, 2):
                    rho = generate(p, d, parity, 1)[0]
                    for mu in block_enum(rho, p, d - 1):
                        for j in range(L + 1):
                            nu = (p - j, j) if j else (p,)
                            tableau_route = _tableau_route_on_block(
                                mu, nu, rho, p, d
                            )
                            abacus_route = rock_branch(mu, p, j, "induce")
                            assert (
                                tableau_route.as_dict() == abacus_route.as_dict()
                            ), (p, parity, d, mu, j)
                rho = generate(p, 1, parity, 1)[0]
                for i in range(L + 1):
                    lam = rho_extension(rho, p, i)
                    for j in range(L + 1):
                        nu = (p - j, j) if j else (p,)
                        assert f_coeff(lam, rho, nu) == (1 if i + j <= L else 0)


def test_criterion_4_adjointness():
    with Criterion(4, "adjointness", 60.0):
        for p in (3, 5, 7):
            L = ell(p)
            for parity in ("even", "odd"):
                for d in (1, 2):
                    rho = generate(p, d, parity, 1)[0]
                    h_space = CharSpace.h_space(rho, p, d)
                    block_space = CharSpace.block(rho, p, d)
                    downs = {
                        lam: rock_branch(lam, p, direction="restrict")
                        for lam in block_space.labels()
                    }
                    for mu in block_enum(rho, p, d - 1):
                        for j in range(L + 1):
                            up = rock_branch(mu, p, j, "induce")
                            for lam in block_space.labels():
                                a = up.coefficient(lam)
                                b = downs[lam].coefficient((mu, j))
                                lhs = Sqrt2Scalar.sqrt2_power(
                                    2 * block_space.eps_exponent(lam)
                                ) * a
                                rhs = Sqrt2Scalar.sqrt2_power(
                                    2 * h_space.eps_exponent((mu, j))
                                ) * b
                                assert lhs == rhs, (p, parity, d, mu, j, lam)


def test_criterion_5_lattice_suite():
    with Criterion(5, "lattice suite", 60.0):
        for p in (3, 5, 7):
            for parity in ("even", "odd"):
                for d in (1, 2, 3):
                    rho = generate(p, d, parity, 1)[0]
                    space = CharSpace.l_space(rho, p, d)
                    for g in nmv_basis(space).generators:
                        assert phi(g) == 0
        for parity in ("even", "odd"):
            for d in (1, 2):
                rho = generate(5, d, parity, 1)[0]
                with Weight(rho, 5, d):
                    for lam in block_enum(rho, 5, d):
                        report = check_htoj(lam, 5, oracle=True)
                        assert report.passed, report.to_json()


def test_criterion_6_rock_closed_form():
    with Criterion(6, "RoCK closed form", 120.0):
        for parity in ("even", "odd"):
            for d in (1, 2, 3):
                rho = generate(5, d, parity, 1)[0]
                for lam in block_enum(rho, 5, d):
                    for runner, (lhs, rhs) in restrict_recursion_sides(lam, 5).items():
                        assert lhs == rhs, (parity, d, lam, runner)
            rho = generate(5, 1, parity, 1)[0]
            for i in range(3):
                dcomp = tuple(1 if j == i else 0 for j in range(3))
                vec = hyp_coeffs(rho, 5, dcomp)
                assert vec.as_dict() == {
                    rho_extension(rho, 5, i): Sqrt2Scalar(1, 0)
                }, (parity, i)


def test_criterion_7_dimension_identity():
    with Criterion(7, "dimension identity, degree-free form", 60.0):
        for parity in ("even", "odd"):
            for d in (1, 2, 3):
                rho = generate(5, d, parity, 1)[0]
                for dcomp in compositions(d, 3):
                    total = 0
                    for lam in block_enum(rho, 5, d, dcomp):
                        q0 = quotient(lam, 5).q0
                        total += (
                            2 ** (sum(q0) - len(q0))
                            * run_k(lam)
                            ** 2
                        )
                    expected = 1
                    for x in dcomp:
                        expected *= factorial(x)
                    assert total == expected, (parity, d, dcomp)


def run_k(lam):
    from spinblocks.abacus import k_product

    return k_product(lam, 5)


def test_criterion_8_brauer_trees():
    with Criterion(8, "Brauer trees", 5.0):
        for L in range(1, 6):
            for kind, period in (("B", 4 * L), ("A", 2 * L)):
                tree = build(kind, L)
                starts = list(dict.fromkeys(walk(tree).nodes))
                for start in starts:
                    for n in (0, 1, L, period - 1):
                        assert heller(tree, start, n + period) == heller(tree, start, n)
            btree = build("B", L)
            for n in range(4 * L):
                got = heller(btree, f"{L}+", n)
                if n <= L - 1:
                    expected = [(f"{L - n}+",)]
                elif n == L:
                    expected = [("0",)]
                elif n <= 2 * L:
                    expected = [(f"{n - L}-",)]
                elif n <= 3 * L - 1:
                    expected = [(f"{3 * L - n}-",)]
                elif n == 3 * L:
                    expected = [("0",)]
                else:
                    expected = [(f"{n - 3 * L}+",)]
                assert got == expected
            for i in range(1, L):
                for sign in "+-":
                    assert set(heller(btree, f"{i}{sign}", 3 * L)) == {
                        (f"{L - i}+",), (f"{L - i}-",),
                    }
            assert heller(btree, f"{L}+", 3 * L) == [("0",)]
            assert set(heller(btree, "0", 3 * L)) == {(f"{L}+",), (f"{L}-",)}
            atree = build("A", L)
            for n in range(2 * L):
                got = heller(atree, str(L), n)
                if n <= L - 1:
                    expected = [(str(L - n),)]
                elif n == L:
                    expected = [("0+", "0-")]
                else:
                    expected = [(str(n - L),)]
                assert got == expected
            for i in range(1, L):
                want = [("0+", "0-")] if i == L else [(str(L - i),)]
                assert heller(atree, str(i), L) == want
            assert heller(atree, "0", L) == [(str(L),)]
        for parity in ("even", "odd"):
            for rho in generate(5, 1, parity, 3):
                wt = weight_one_map(rho, 5)
                runner_of = {rho_extension(rho, 5, j): (j,) for j in range(3)}
                edges = {
                    tuple(sorted((runner_of[lam], s) for lam, s in edge))
                    for edge in wt.edge_sums()
                }
                space = CharSpace.l_space(rho, 5, 1)
                gens = {
                    tuple(sorted(label for label, _ in g.coeffs))
                    for g in nmv_basis(space).generators
                }
                assert edges == gens, rho
