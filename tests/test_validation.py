"""Public entry points validate their partition and prime arguments
themselves; the private cores behind them trust canonical tuples."""

import pytest

from spinblocks import (
    STRICT,
    CharSpace,
    DomainError,
    block_enum,
    core_weight,
    f_coeff,
    generate,
    hyp_coeffs,
    induce,
    is_bar_core,
    is_rouquier,
    k_product,
    neighbors,
    orbit_sum,
    path_count,
    quotient,
    rho_extension,
    rock_branch,
    strip_classify,
    weight_one_map,
)
from spinblocks import verify
from spinblocks.cli import verify_all

ENTRY_POINTS = {
    "core_weight": lambda lam: core_weight(lam, 5),
    "quotient": lambda lam: quotient(lam, 5),
    "neighbors": lambda lam: neighbors(lam, 5, 0, "add"),
    "block_enum": lambda lam: block_enum(lam, 5, 1),
    "is_bar_core": lambda lam: is_bar_core(lam, 5),
    "k_product": lambda lam: k_product(lam, 5),
    "is_rouquier": lambda lam: is_rouquier(lam, 5, 1),
    "path_count": lambda lam: path_count(lam, STRICT),
    "f_coeff": lambda lam: f_coeff(lam, (), ()),
    "induce": lambda lam: induce(lam, (1,)),
    "rock_branch": lambda lam: rock_branch(lam, 5, 0, "induce"),
    "CharSpace.block": lambda lam: CharSpace.block(lam, 5, 1),
}


@pytest.mark.parametrize("bad", [(2, 2), (1, 2), (0,)])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_strict_partitions(name, bad):
    with pytest.raises(ValueError, match="parts must be"):
        ENTRY_POINTS[name](bad)


# Every public function that takes p.  The arithmetic helpers ell,
# runner_label, as_composition and runner_tuples are left out: the library
# calls them only with a p its entry points have checked.
PRIME_ENTRY_POINTS = {
    "core_weight": lambda p: core_weight((2, 1), p),
    "is_bar_core": lambda p: is_bar_core((2, 1), p),
    "neighbors": lambda p: neighbors((2, 1), p, 0, "add"),
    "quotient": lambda p: quotient((2, 1), p),
    "block_enum": lambda p: block_enum((2, 1), p, 1),
    "k_product": lambda p: k_product((2, 1), p),
    "CharSpace.block": lambda p: CharSpace.block((2, 1), p, 1),
    "CharSpace.l_space": lambda p: CharSpace.l_space((2, 1), p, 1),
    "CharSpace.h_space": lambda p: CharSpace.h_space((2, 1), p, 1),
    "orbit_sum": lambda p: orbit_sum((2, 1), p, (1, 0)),
    "is_rouquier": lambda p: is_rouquier((2, 1), p, 2),
    "generate": lambda p: generate(p, 2, "odd", 1),
    "strip_classify": lambda p: strip_classify((6, 2), (2, 1), p),
    "rho_extension": lambda p: rho_extension((2, 1), p, 0),
    "rock_branch": lambda p: rock_branch((2, 1), p, 0, "induce"),
    "weight_one_map": lambda p: weight_one_map((2, 1), p),
    "hyp_coeffs": lambda p: hyp_coeffs((2, 1), p, (1, 0)),
    "htoj_sides": lambda p: verify.htoj_sides((5, 2, 1), p),
    "restrict_recursion_sides": lambda p: verify.restrict_recursion_sides((5, 2, 1), p),
    "verify_all": lambda p: verify_all(p, 1),
    "check_dim_reduced": lambda p: verify.check_dim_reduced((2, 1), p, (1, 0)),
    "check_htoj": lambda p: verify.check_htoj((5, 2, 1), p),
    "check_core_order": lambda p: verify.check_core_order(p),
    "check_tree_suite": lambda p: verify.check_tree_suite(p),
    "check_block_count": lambda p: verify.check_block_count((2, 1), p, 1),
    "check_htog_adjoint": lambda p: verify.check_htog_adjoint((2, 1), p, 1),
    "check_restrict_recursion": lambda p: verify.check_restrict_recursion((2, 1), p, 1),
    "check_hyp_nonneg": lambda p: verify.check_hyp_nonneg((2, 1), p, 1),
    "check_stembridge_cross": lambda p: verify.check_stembridge_cross((2, 1), p, 1),
    "check_phi_kernel": lambda p: verify.check_phi_kernel((2, 1), p, 1),
}


@pytest.mark.parametrize("p", [0, 1, 4, -3])
@pytest.mark.parametrize("name", sorted(PRIME_ENTRY_POINTS))
def test_entry_points_reject_a_bad_prime(name, p):
    with pytest.raises(DomainError, match="p must be an odd prime"):
        PRIME_ENTRY_POINTS[name](p)


def test_prime_entry_points_cover_every_check_taking_p():
    takes_p = {f"check_{name.replace('-', '_')}" for name in verify.CHECKS} - {"check_dim_sqd"}
    assert takes_p <= set(PRIME_ENTRY_POINTS)


@pytest.mark.parametrize("d", [0, -1])
def test_generate_rejects_a_nonpositive_weight(d):
    with pytest.raises(ValueError, match="d must be positive"):
        generate(5, d, "odd", 1)
