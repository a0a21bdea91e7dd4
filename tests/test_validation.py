"""Public entry points validate their partition arguments themselves; the
private cores behind them trust canonical tuples."""

import pytest

from spinblocks import (
    STRICT,
    Abacus,
    CharSpace,
    block_enum,
    core_weight,
    f_coeff,
    induce,
    is_bar_core,
    is_rouquier,
    k_product,
    neighbors,
    path_count,
    quotient,
    rock_branch,
)

ENTRY_POINTS = {
    "core_weight": lambda lam: core_weight(lam, 5),
    "quotient": lambda lam: quotient(lam, 5),
    "neighbors": lambda lam: neighbors(lam, 5, 0, "add"),
    "block_enum": lambda lam: block_enum(lam, 5, 1),
    "is_bar_core": lambda lam: is_bar_core(lam, 5),
    "k_product": lambda lam: k_product(lam, 5),
    "Abacus.from_partition": lambda lam: Abacus.from_partition(lam, 5),
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
