"""Exact combinatorics and character calculus for spin symmetric group
blocks: bar-abacus displays, shifted-tableau branching, Brauer-tree walks
and integer-lattice verification of the block character identities."""

from .abacus import (
    BarQuotient,
    block_enum,
    core_weight,
    ell,
    is_bar_core,
    k_product,
    neighbors,
    quotient,
)
from .chars import CharSpace, CharVector, m_action, orbit_sum
from .exceptions import DomainError, ShapeError, SpaceMismatch
from .partitions import (
    ORDINARY,
    STRICT,
    as_partition,
    as_strict,
    box_moves,
    enumerate_partitions,
    epsilon_exponent,
    is_odd_partition,
    path_count,
)
from .rouquier import StripCertificate, generate, is_rouquier, rho_extension, strip_classify
from .sqrt2 import Sqrt2Scalar
from .stembridge import f_coeff, induce, rock_branch
from .trees import BrauerTree, GreenWalk, WeightOneTree, build, heller, walk, weight_one_map
from .verify import (
    CheckReport,
    NmvLattice,
    check_htoj,
    htoj_sides,
    hyp_coeffs,
    nmv_basis,
    phi,
    restrict_recursion_sides,
    run_check,
)

__version__ = "0.3.0"

__all__ = [
    "BarQuotient",
    "BrauerTree",
    "CharSpace",
    "CharVector",
    "CheckReport",
    "DomainError",
    "GreenWalk",
    "NmvLattice",
    "ORDINARY",
    "STRICT",
    "ShapeError",
    "SpaceMismatch",
    "Sqrt2Scalar",
    "StripCertificate",
    "WeightOneTree",
    "as_partition",
    "as_strict",
    "block_enum",
    "box_moves",
    "build",
    "check_htoj",
    "core_weight",
    "ell",
    "enumerate_partitions",
    "epsilon_exponent",
    "f_coeff",
    "generate",
    "heller",
    "htoj_sides",
    "hyp_coeffs",
    "induce",
    "is_bar_core",
    "is_odd_partition",
    "is_rouquier",
    "k_product",
    "m_action",
    "neighbors",
    "nmv_basis",
    "orbit_sum",
    "path_count",
    "phi",
    "quotient",
    "restrict_recursion_sides",
    "rho_extension",
    "rock_branch",
    "run_check",
    "strip_classify",
    "walk",
    "weight_one_map",
]
