from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from spinblocks.hnf import (
    fold_columns,
    fold_solves,
    integral_solution_exists,
    lattice_member,
    reduce_against,
    row_echelon_basis,
)


def rational_solution_exists(columns, target) -> bool:
    """Third route, for tests only: exact Gauss-Jordan over Q, then a scan of
    the free-variable residues modulo the common denominator."""
    if not columns:
        return not any(target)
    ncols = len(columns)
    nrows = len(columns[0])
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
        for i in range(nrows)
    ]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        aug[r] = [a / aug[r][c] for a in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(aug[i][ncols] != 0 for i in range(r, nrows)):
        return False
    free = [c for c in range(ncols) if c not in pivots]
    # x_pivot = const - sum coef_f * t_f over the free variables t
    exprs = [(aug[i][ncols], [aug[i][f] for f in free]) for i in range(len(pivots))]
    denoms = [e[0].denominator for e in exprs]
    for _, coefs in exprs:
        denoms.extend(x.denominator for x in coefs)
    modulus = lcm(*denoms) if denoms else 1
    assignments = [()]
    for _ in free:
        assignments = [a + (t,) for a in assignments for t in range(modulus)]
    return any(
        all(
            (const - sum(f * t for f, t in zip(coefs, assignment))).denominator == 1
            for const, coefs in exprs
        )
        for assignment in assignments
    )


def test_echelon_simple():
    basis = row_echelon_basis([[2, 0], [0, 3]])
    assert lattice_member(basis, [2, 3])
    assert lattice_member(basis, [4, -3])
    assert not lattice_member(basis, [1, 0])
    assert not lattice_member(basis, [0, 1])


def test_echelon_dependent_generators():
    # 2e1 and 3e1 together span Z e1
    basis = row_echelon_basis([[2, 0], [3, 0]])
    assert lattice_member(basis, [1, 0])
    assert not lattice_member(basis, [0, 1])


def test_empty_lattice():
    basis = row_echelon_basis([])
    assert lattice_member(basis, [0, 0])
    assert not lattice_member(basis, [1, 0])


def test_reduce_against_reports_residue():
    basis = row_echelon_basis([[2, 1]])
    assert reduce_against(basis, [2, 1]) == [0, 0]
    assert any(reduce_against(basis, [1, 1]))


def test_oracle_matches_simple_cases():
    gens = [[2, 0, 1], [0, 1, 1], [2, 1, 3]]
    basis = row_echelon_basis(gens)
    columns = [list(g) for g in gens]
    for v in ([2, 0, 1], [2, 1, 2], [4, 1, 3], [1, 0, 0], [0, 0, 1], [2, 2, 3]):
        assert lattice_member(basis, v) == integral_solution_exists(columns, v)


def test_oracle_many_free_variables():
    # 18 free variables over Q with denominator 2: a residue scan needs 2**18 steps
    assert integral_solution_exists([[2]] + [[3]] * 18, [1])
    assert not integral_solution_exists([[4]] + [[6]] * 18, [1])


small_int = st.integers(min_value=-4, max_value=4)


@settings(max_examples=150, deadline=None)
@given(
    gens=st.lists(
        st.lists(small_int, min_size=4, max_size=4), min_size=1, max_size=4
    ),
    coeffs=st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    noise=st.lists(small_int, min_size=4, max_size=4),
    use_noise=st.booleans(),
)
def test_membership_against_oracle(gens, coeffs, noise, use_noise):
    """The echelon reduction, the column Hermite oracle and the rational
    solve always agree."""
    snapshot = [list(g) for g in gens]
    basis = row_echelon_basis(gens)
    v = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(4)]
    if use_noise:
        v = [a + b for a, b in zip(v, noise)]
    member = lattice_member(basis, v)
    assert member == integral_solution_exists(gens, v)
    assert member == rational_solution_exists(gens, v)
    assert gens == snapshot  # both routes copy the generators
    if not use_noise:
        assert member  # exact integer combinations always belong


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=5), data=st.data())
def test_one_fold_answers_many_targets(n, data):
    """One fold of the columns, all-zero columns among them, answers five or
    more targets, members and perturbed members interleaved, as a fresh
    column Hermite solve and the echelon reduction do, and no substitution
    changes the fold."""
    column = st.lists(small_int, min_size=n, max_size=n)
    nonzero = data.draw(st.lists(column, max_size=4))
    gens = data.draw(st.permutations(nonzero + [[0] * n] * data.draw(st.integers(1, 2))))
    fold = fold_columns(gens)
    snapshot = {r: list(pivot) for r, pivot in fold.items()}
    basis = row_echelon_basis(gens)
    for k in range(data.draw(st.integers(min_value=5, max_value=8))):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
        target = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
        if k % 2:
            target = [a + b for a, b in zip(target, data.draw(column))]
        verdict = fold_solves(fold, target)
        assert verdict == integral_solution_exists(gens, target) == lattice_member(basis, target)
        assert verdict or k % 2  # exact integer combinations always belong
        assert fold == snapshot
