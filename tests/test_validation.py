"""Public entry points validate their partition and prime arguments
themselves; the private cores behind them trust canonical tuples."""

import pytest

from spinblocks import (
    STRICT,
    CharSpace,
    DomainError,
    block_enum,
    box_moves,
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
from spinblocks.rouquier import rouquier_core

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
    "CharSpace.l_space": lambda lam: CharSpace.l_space(lam, 5, 1),
    "CharSpace.h_space": lambda lam: CharSpace.h_space(lam, 5, 1),
    "box_moves": lambda lam: box_moves(lam, STRICT, "add"),
    "rouquier_core": lambda lam: rouquier_core(lam, 5, 1),
    "rho_extension": lambda lam: rho_extension(lam, 5, 0),
    "strip_classify lam": lambda lam: strip_classify(lam, (2, 1), 5),
    "strip_classify mu": lambda lam: strip_classify((6, 2), lam, 5),
    "weight_one_map": lambda lam: weight_one_map(lam, 5),
    "orbit_sum": lambda lam: orbit_sum(lam, 5, (1, 0)),
    "hyp_coeffs": lambda lam: hyp_coeffs(lam, 5, (1, 0)),
    "htoj_sides": lambda lam: verify.htoj_sides(lam, 5),
    "restrict_recursion_sides": lambda lam: verify.restrict_recursion_sides(lam, 5),
    "check_htoj": lambda lam: verify.check_htoj(lam, 5),
    "check_dim_reduced": lambda lam: verify.check_dim_reduced(lam, 5, (1, 0)),
    "check_block_count": lambda lam: verify.check_block_count(lam, 5, 1),
    "check_htog_adjoint": lambda lam: verify.check_htog_adjoint(lam, 5, 1),
    "check_restrict_recursion": lambda lam: verify.check_restrict_recursion(lam, 5, 1),
    "check_hyp_nonneg": lambda lam: verify.check_hyp_nonneg(lam, 5, 1),
    "check_stembridge_cross": lambda lam: verify.check_stembridge_cross(lam, 5, 1),
    "check_phi_kernel": lambda lam: verify.check_phi_kernel(lam, 5, 1),
}


@pytest.mark.parametrize("bad", [(2, 2), (1, 2), (0,)])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_strict_partitions(name, bad):
    with pytest.raises(ValueError, match="parts must be"):
        ENTRY_POINTS[name](bad)


def test_entry_points_cover_every_check_taking_a_partition():
    takes_p = {f"check_{name.replace('-', '_')}" for name in verify.CHECKS}
    assert takes_p - {"check_dim_sqd", "check_core_order", "check_tree_suite"} <= set(ENTRY_POINTS)


# Every entry that finds a label's RoCK block, (rho, d), through the one gate
# rouquier._rock_weight
LABEL_ENTRIES = {
    "rock_branch induce": lambda lam, p: rock_branch(lam, p, 0, "induce"),
    "rock_branch restrict": lambda lam, p: rock_branch(lam, p, direction="restrict"),
    "htoj_sides": verify.htoj_sides,
    "check_htoj": verify.check_htoj,
    "restrict_recursion_sides": verify.restrict_recursion_sides,
}


@pytest.mark.parametrize("name", sorted(LABEL_ENTRIES))
def test_label_entries_refuse_a_label_off_a_rouquier_core(name):
    """(7,) at p = 7 has weight 1 over the core (), which carries no bead on
    runner 1, so it is not d-Rouquier for any d >= 1: restricting needs
    d = 1, inducing d = 2."""
    with pytest.raises(DomainError, match=r"^\(7,\) does not sit under a [12]-Rouquier core for p=7$"):
        LABEL_ENTRIES[name]((7,), 7)


@pytest.mark.parametrize("j", [3, -1])
def test_rho_extension_refuses_a_runner_outside_0_to_ell(j):
    """The runner index is checked before the extension core, so a runner
    outside 0..ell is bad input (exit 2): unchecked, runner 3 at p = 5 reads
    the pair {3, 2} and answers runner 2's (7, 1), and runner -1 inserts the
    beads 6 and -1, and a move list of another length raises AssertionError
    (exit 3)."""
    with pytest.raises(DomainError, match=rf"^runner index must lie in 0\.\.2: {j}$"):
        rho_extension((2, 1), 5, j)


def test_verify_all_validates_each_partition_argument_once(monkeypatch):
    """One cold `verify all --p 7 --dmax 4` validates at most 484 partitions.
    Its verdict keys hold 472 partition arguments (286 htoj lam, 138
    dim-reduced rho and 48 rho of the other six block checks), and tree-suite
    makes 12 public calls on its six generated cores (`weight_one_map` and
    `CharSpace.l_space`); the cores behind the checks and the loop over the
    block validate nothing again."""
    from spinblocks import abacus, partitions

    calls, real = [], partitions.as_partition
    monkeypatch.setattr(partitions, "as_partition", lambda parts: calls.append(parts) or real(parts))
    abacus._block.cache_clear()
    abacus._block_by_sizes.cache_clear()
    assert verify_all(7, 4)["summary"] == {"total": 483, "failed": 0}
    assert len(calls) <= 484


# Every library and CLI entry that takes a core; (5,) has bar-weight 1 at p = 5
CORE = (5,)
CORE_ENTRIES = {
    "block_enum": lambda: block_enum(CORE, 5, 1),
    "is_rouquier": lambda: is_rouquier(CORE, 5, 1),
    "rouquier_core": lambda: rouquier_core(CORE, 5, 1),
    "rho_extension": lambda: rho_extension(CORE, 5, 0),
    "weight_one_map": lambda: weight_one_map(CORE, 5),
    "CharSpace.block": lambda: CharSpace.block(CORE, 5, 1),
    "CharSpace.l_space": lambda: CharSpace.l_space(CORE, 5, 1),
    "CharSpace.h_space": lambda: CharSpace.h_space(CORE, 5, 1),
    "orbit_sum": lambda: orbit_sum(CORE, 5, (1, 0, 0)),
    "hyp_coeffs": lambda: hyp_coeffs(CORE, 5, (1, 0, 0)),
    "check_dim_reduced": lambda: verify.check_dim_reduced(CORE, 5, (1, 0, 0)),
    **{f"check_{name.replace('-', '_')}": (lambda name=name: verify.run_check(name, rho=CORE, p=5, d=1))
       for name in ("block-count", "htog-adjoint", "restrict-recursion", "hyp-nonneg",
                    "phi-kernel", "stembridge-cross")},
}
CORE_ARGV = [
    ["block", "--d", "1"], ["rouquier", "check", "--d", "1"], ["maction", "--j", "1"],
    ["maction", "--mu", "5", "--j", "1"], ["orbit", "--dcomp", "1,0,0"], ["hyp", "--dcomp", "1,0,0"],
    ["nmv", "--d", "1"], ["nmv", "--d", "1", "--space", "H"], ["phi", "--tuple", "1"],
    ["tree", "weight1"], ["verify", "dim-reduced", "--dcomp", "1,0,0"],
] + [["verify", name, "--d", "1"] for name in ("block-count", "htog-adjoint", "restrict-recursion",
                                                 "hyp-nonneg", "phi-kernel", "stembridge-cross")]


@pytest.mark.parametrize("name", sorted(CORE_ENTRIES))
def test_core_entries_refuse_a_partition_that_is_not_a_bar_core(name):
    with pytest.raises(DomainError, match=r"^\(5,\) is not a bar-core for p=5$"):
        CORE_ENTRIES[name]()


@pytest.mark.parametrize("argv", CORE_ARGV, ids=" ".join)
def test_core_commands_refuse_a_partition_that_is_not_a_bar_core(capsys, argv):
    from spinblocks import cli

    assert cli.main([*argv, "--p", "5", "--rho", "5"]) == 2
    assert capsys.readouterr() == ("", "error: (5,) is not a bar-core for p=5\n")


def test_the_bar_core_message_is_stated_once():
    import pathlib

    src = pathlib.Path(verify.__file__).parent
    assert sum(f.read_text().count("is not a bar-core") for f in src.glob("*.py")) == 1


def test_verify_all_checks_p_at_its_gates_and_never_for_a_space(monkeypatch):
    """A cold `verify all --p 7 --dmax 6` checks p at most 2,200 times, at
    its public gates only: a space the library builds from checked values is
    not checked again (4,311 checks, 2,060 of them from building a CharSpace,
    when every space checked its own p)."""
    import sys

    from spinblocks import abacus, chars, rouquier, stembridge

    calls, real = [], abacus._check_prime

    def spy(p):
        frame = sys._getframe(1)
        while frame and not isinstance(frame.f_locals.get("self"), CharSpace):
            frame = frame.f_back
        calls.append(frame is not None)
        return real(p)

    for module in (abacus, chars, rouquier, stembridge, verify):
        monkeypatch.setattr(module, "_check_prime", spy)
    abacus._block.cache_clear()
    abacus._block_by_sizes.cache_clear()
    assert verify_all(7, 6)["summary"] == {"total": 2113, "failed": 0}
    assert len(calls) <= 2200 and not any(calls)


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


@pytest.mark.parametrize(
    "route,expected",
    [
        (["maction", "--p", "5", "--rho", "2,1", "--mu", "2,1", "--j", "1"], 2),
        (["orbit", "--p", "5", "--rho", "2,1", "--dcomp", "1,1,0"], 1),
        (["nmv", "--p", "5", "--rho", "2,1", "--d", "2", "--space", "H"], 1),
        (lambda: CharSpace.block((2, 1), 5, 2).labels(), 1),
        (lambda: CharSpace.h_space((2, 1), 5, 2).labels(), 1),
    ],
)
def test_a_route_validates_each_partition_argument_once(monkeypatch, capsys, route, expected):
    """`maction --mu` checks mu once, where it took three; `orbit_sum` checks
    rho once, not again in `CharSpace.l_space`; and `CharSpace.labels` lists a
    block or H space's labels without validating its canonical rho again."""
    from spinblocks import cli, partitions

    calls, real = [], partitions.as_partition
    monkeypatch.setattr(partitions, "as_partition", lambda parts: calls.append(parts) or real(parts))
    if callable(route):
        route()
    else:
        assert cli.main(route) == 0
    capsys.readouterr()
    assert len(calls) == expected
