import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinblocks import abacus, cli, stembridge, verify
from spinblocks.abacus import (
    BLOCK_MAX_LABELS, D_MAX, P_MAX, SIZE_MAX, _block_size, block_enum, runner_label,
)
from spinblocks.chars import L_MAX_LABELS
from spinblocks.cli import main
from spinblocks.exceptions import DomainError
from spinblocks.partitions import (
    ENUMERATE_MAX_N, ORDINARY, PATH_COUNT_MEMO, STRICT, enumerate_partitions, epsilon_exponent,
    path_count,
)
from spinblocks.rouquier import GEN_MAX_BEADS, GEN_MAX_COUNT
from spinblocks.stembridge import FILL_MAX_BOXES, INDUCE_MAX_CANDIDATES, _count_lattice_fillings
from spinblocks.trees import ELL_MAX
from spinblocks.verify import CHECKS, DIM_SQD_MAX_N


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_core_golden(capsys):
    report = run_json(capsys, "core", "--p", "5", "--partition", "7,4,2,1")
    assert report["command"] == "core"
    assert report["outputs"] == {"core": [7, 2], "weight": 1}


def test_enumerate(capsys):
    report = run_json(capsys, "enumerate", "--n", "4", "--kind", "strict")
    assert report["outputs"]["partitions"] == [[4], [3, 1]]


def test_verify_dim_sqd(capsys):
    report = run_json(capsys, "verify", "dim-sqd", "--n", "4")
    assert report["outputs"]["verdict"] == "pass"
    assert report["outputs"]["lhs"] == {"ordinary": 24, "strict": 24}
    assert report["outputs"]["rhs"] == 24


def test_branch_golden(capsys):
    report = run_json(
        capsys, "branch", "--p", "5", "--rho", "2,1", "--j", "0", "--dir", "induce"
    )
    assert report["outputs"]["vector"] == [
        {"label": "5,2,1", "a": 1, "b": 0},
        {"label": "6,2", "a": 2, "b": 0},
        {"label": "7,1", "a": 2, "b": 0},
    ]


def test_branch_restrict(capsys):
    report = run_json(
        capsys, "branch", "--p", "5", "--lambda", "5,2,1", "--dir", "restrict"
    )
    labels = {row["label"]: row["a"] for row in report["outputs"]["vector"]}
    assert labels == {"2,1|0": 1, "2,1|1": 2, "2,1|2": 2}


def test_quotient_and_neighbors(capsys):
    report = run_json(capsys, "quotient", "--p", "5", "--lambda", "6,2")
    assert report["outputs"] == {"q0": [], "components": [[1], []]}
    report = run_json(
        capsys, "neighbors", "--p", "5", "--lambda", "2,1", "--j", "0", "--dir", "add"
    )
    assert report["outputs"]["partitions"] == [[5, 2, 1]]


def test_block_and_rouquier(capsys):
    report = run_json(capsys, "block", "--p", "5", "--rho", "2,1", "--d", "1")
    assert report["outputs"]["count"] == 3
    report = run_json(capsys, "rouquier", "check", "--p", "5", "--rho", "2,1", "--d", "1")
    assert report["outputs"] == {"rouquier": True}
    report = run_json(
        capsys, "rouquier", "gen", "--p", "5", "--d", "2", "--parity", "odd", "--count", "1"
    )
    assert report["outputs"]["cores"] == [[12, 7, 6, 2, 1]]


def test_strip_fcoeff_induce(capsys):
    report = run_json(capsys, "strip", "--p", "5", "--lambda", "6,2", "--mu", "2,1")
    assert report["outputs"]["runner"] == 1
    report = run_json(capsys, "fcoeff", "--lambda", "6,2", "--mu", "2,1", "--nu", "5")
    assert report["outputs"] == {"f": 1}
    report = run_json(capsys, "induce", "--mu", "2,1", "--nu", "5")
    assert len(report["outputs"]["vector"]) == 3


def test_induce_outputs_do_not_depend_on_the_order(capsys):
    small_first = run_json(capsys, "induce", "--mu", "5,3", "--nu", "9,6,4,2")
    large_first = run_json(capsys, "induce", "--mu", "9,6,4,2", "--nu", "5,3")
    assert small_first["inputs"] != large_first["inputs"]
    assert small_first["outputs"] == large_first["outputs"]


def test_maction_orbit_hyp_nmv_phi(capsys):
    report = run_json(capsys, "maction", "--p", "5", "--rho", "2,1", "--mu", "2,1", "--j", "0")
    assert {r["label"]: r["a"] for r in report["outputs"]["vector"]} == {
        "2,1|0": 1, "2,1|1": 2, "2,1|2": 2,
    }
    report = run_json(capsys, "orbit", "--p", "5", "--rho", "2,1", "--dcomp", "1,1,0")
    assert report["outputs"]["certificate"] == 2
    report = run_json(capsys, "hyp", "--p", "5", "--rho", "12,7,6,2,1", "--dcomp", "0,2,0")
    assert len(report["outputs"]["vector"]) == 2
    report = run_json(capsys, "nmv", "--p", "5", "--rho", "2,1", "--d", "1", "--space", "L")
    assert len(report["outputs"]["generators"]) == 2
    report = run_json(capsys, "phi", "--p", "5", "--rho", "2,1", "--tuple", "1")
    assert report["outputs"]["value"] == {"a": -2, "b": 0}


def test_orbit_lists_the_distinct_arrangements_not_the_permutations(capsys):
    """`orbit --p 3 --rho 1 --dcomp 6,6` (2^12 = 4096 labels, inside the L-space
    budget) answers with its multinomial(12; 6, 6) = 924 distinct runner tuples,
    without running through the 12! orderings of one."""
    report = run_json(capsys, "orbit", "--p", "3", "--rho", "1", "--dcomp", "6,6")
    eps_tuple = ((1,),) + (runner_label(3, 0),) * 6 + (runner_label(3, 1),) * 6
    assert report["outputs"]["certificate"] == comb(12, 6) * 2 ** epsilon_exponent(eps_tuple)
    labels = sorted(
        "|".join("1" if i in ones else "0" for i in range(12)) for ones in combinations(range(12), 6)
    )
    assert report["outputs"]["vector"] == [{"a": 1, "b": 0, "label": label} for label in labels]


def test_tree_commands(capsys):
    report = run_json(capsys, "tree", "build", "--kind", "B", "--ell", "2")
    assert report["outputs"]["path"] == ["2+", "1+", "0", "1-", "2-"]
    report = run_json(capsys, "tree", "walk", "--kind", "A", "--ell", "2")
    assert report["outputs"]["characters"] == [["2"], ["1"], ["0+", "0-"], ["1"]]
    report = run_json(
        capsys, "tree", "heller", "--kind", "B", "--ell", "2", "--start", "2+", "--n", "3"
    )
    assert report["outputs"]["constituents"] == [["1-"]]
    report = run_json(capsys, "tree", "weight1", "--p", "5", "--rho", "2,1")
    assert report["outputs"]["kind"] == "A"
    assert set(report["outputs"]["nodes"]["0"]) == {"5,2,1+", "5,2,1-"}


def test_verify_all_small(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "1", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["summary"]["failed"] == 0
    assert report["outputs"]["summary"]["total"] > 10


def test_verify_single_check_verdicts_key(capsys):
    report = run_json(capsys, "verify", "dim-sqd", "--n", "5")
    assert report["verdicts"] == {"dim-sqd": "pass"}


def test_verify_new_named_checks(capsys):
    report = run_json(capsys, "verify", "core-order", "--p", "3")
    assert report["outputs"]["verdict"] == "pass"
    report = run_json(capsys, "verify", "tree-suite", "--p", "5")
    assert report["outputs"]["verdict"] == "pass"
    report = run_json(
        capsys, "verify", "stembridge-cross", "--p", "5", "--rho", "2,1", "--d", "1"
    )
    assert report["outputs"]["verdict"] == "pass"
    report = run_json(
        capsys, "verify", "phi-kernel", "--p", "5", "--rho", "2,1", "--d", "1"
    )
    assert report["outputs"]["verdict"] == "pass"


# stdout sha256 prefixes of the cheap `verify all` rows in the ROADMAP table:
# a change that keeps them keeps the report byte for byte
VERIFY_ALL_GOLDEN = {
    "--p 5 --dmax 4": "8be5e1537f965bfe",
    "--p 7 --dmax 3": "3a6c7d10ee60f24c",
    "--p 3 --dmax 7": "84f55d4d19593db2",
    "--p 7 --dmax 3 --oracle": "853e6fc697ba164b",
    "--p 7 --dmax 4": "2a0edfa756512fc8",
    "--p 7 --dmax 4 --oracle": "6c7eba2fa902e186",
    # the oracle route at every other prime of the grid
    "--p 3 --dmax 6 --oracle": "e5229a86fd341768",
    "--p 5 --dmax 4 --oracle": "9686e249f530ee2a",
    "--p 11 --dmax 3 --oracle": "873d56893857ed2f",
}


@pytest.mark.parametrize("flags", sorted(VERIFY_ALL_GOLDEN))
def test_verify_all_stdout_is_unchanged(capsys, flags):
    code, out, err = run_cli(capsys, "verify", "all", *flags.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == VERIFY_ALL_GOLDEN[flags]


def calls_per_weight(monkeypatch, *targets) -> tuple[list, list]:
    """Spy on each (owner, name) of targets, a library function under every
    name a spinblocks module holds it by or a Weight method.  Returns every
    (name, caller) call, and the calls of each Weight block as it exits."""
    calls, seen, marks = [], [], []
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("spinblocks") and m]
    for owner, name in targets:
        real = getattr(owner, name)

        def spy(*args, name=name, real=real):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return real(*args)

        for holder in {owner, *modules}:
            if vars(holder).get(name) is real:
                monkeypatch.setattr(holder, name, spy)
    enter, leave = verify.Weight.__enter__, verify.Weight.__exit__
    monkeypatch.setattr(verify.Weight, "__enter__", lambda w: marks.append(len(calls)) or enter(w))
    monkeypatch.setattr(
        verify.Weight, "__exit__", lambda w, *exc: seen.append(calls[marks.pop():]) or leave(w, *exc)
    )
    return calls, seen


def block_sizes(p, dmax) -> list:
    """(|block(d)|, |block(d - 1)|) per weight of `verify all --p p --dmax dmax`."""
    from spinblocks.rouquier import generate

    weights = [(generate(p, d, e, 1)[0], d) for e in ("even", "odd") for d in range(1, dmax + 1)]
    return [(len(block_enum(rho, p, d)), len(block_enum(rho, p, d - 1))) for rho, d in weights]


def test_verify_all_branches_once_per_label_per_weight(monkeypatch):
    """Each weight of `verify all --p 5 --dmax 3` computes each of its
    distinct branchings once: every restriction of a weight-d label and every
    induction of a weight-(d-1) label on each runner, though htoj asks for
    each restriction a second time and stembridge-cross each induction."""
    _, seen = calls_per_weight(monkeypatch, (stembridge, "_rock_branch"))
    assert cli.verify_all(5, 3)["summary"]["failed"] == 0
    assert [len(calls) for calls in seen] == [a + 3 * b for a, b in block_sizes(5, 3)]  # 3 runners


def test_verify_all_scans_each_label_once_per_weight(monkeypatch):
    """Each weight of `verify all --p 5 --dmax 3` lists the one-bar moves of
    each of its labels once outside the block BFS: the removals of every
    weight-d label (both restrictions, htoj's closed form,
    restrict-recursion) and the additions of every weight-(d-1) label (every
    induction), so _moves runs |block(d)| + |block(d-1)| times there.  Each
    removal list is read three times (htog-adjoint's restriction, htoj's
    closed form, restrict-recursion; htoj's restriction is the shared
    branching), each addition list once per runner.  From cold block memos
    _quotient runs |block(d)| + |block(d-1)| times: once per label, by the
    block split of its weight, which the K products and restrict-recursion
    read.  No check reaches _neighbors but tree-suite, through the
    weight-one extensions' unchecked core."""
    abacus._block.cache_clear()
    abacus._block_by_sizes.cache_clear()
    calls, seen = calls_per_weight(
        monkeypatch, (abacus, "_moves"), (abacus, "_quotient"), (verify.Weight, "moves"),
        (abacus, "_neighbors"),
    )
    assert cli.verify_all(5, 3)["summary"]["failed"] == 0
    got = []
    for block in seen:
        scans = [caller for name, caller in block if name == "_moves"]
        reads, quotients = ([n for n, _ in block].count(name) for name in ("moves", "_quotient"))
        got.append((len(scans) - scans.count("_block"), reads, quotients))
    assert got == [(a + b, 3 * a + 3 * b, a + b) for a, b in block_sizes(5, 3)]  # 3 runners
    assert {caller for name, caller in calls if name == "_neighbors"} == {"_rho_extension"}


def test_verify_all_oracle_folds_each_component_once_per_weight(monkeypatch):
    """Each weight of `verify all --p 7 --dmax 3 --oracle` folds the generator
    columns of each H-lattice component, one per weight-(d-1) label, once,
    and solves every component an htoj difference touches by substitution
    over that fold: 36 folds and 182 substitutions, where one full solve
    per substitution made 182 folds."""
    from spinblocks import hnf

    calls, seen = calls_per_weight(monkeypatch, (hnf, "fold_columns"), (hnf, "fold_solves"))
    assert cli.verify_all(7, 3, oracle=True)["summary"]["failed"] == 0
    folds = [[name for name, _ in block].count("fold_columns") for block in seen]
    assert folds == [b for _, b in block_sizes(7, 3)] and sum(folds) == 36
    assert [name for name, _ in calls].count("fold_solves") == 182


# stdout sha256 prefixes of single `verify htoj` queries, whose reports print
# both sides' rows: three lambda per p, of weights 1 to 3 and both core parities
VERIFY_HTOJ_GOLDEN = {
    "--p 5 --lambda 6,2": "8baa6e251f427f7b",
    "--p 5 --lambda 6,2 --oracle": "d6dc99935186a244",
    "--p 5 --lambda 27,17,12,11,7,2,1": "581e33b651afc625",
    "--p 5 --lambda 27,17,12,11,7,2,1 --oracle": "922f23dc19807090",
    "--p 5 --lambda 37,32,22,17,12,11,7,6,5,2,1": "18ce695cf3d904a9",
    "--p 5 --lambda 37,32,22,17,12,11,7,6,5,2,1 --oracle": "655b53ba43d9cad3",
    "--p 7 --lambda 31,17,16,10,9,8,7,3,2,1": "2e26495a40b66f61",
    "--p 7 --lambda 31,17,16,10,9,8,7,3,2,1 --oracle": "d35dd5460d19139d",
    "--p 7 --lambda 59,45,38,37,31,24,23,17,16,15,10,9,8,7,3,2,1": "27f22f3efe346c89",
    "--p 7 --lambda 59,45,38,37,31,24,23,17,16,15,10,9,8,7,3,2,1 --oracle": "2e3746d914c835a5",
    "--p 7 --lambda 52,38,37,31,24,23,17,16,15,10,9,8,7,3,2,1": "3c387a6e602b73f2",
    "--p 7 --lambda 52,38,37,31,24,23,17,16,15,10,9,8,7,3,2,1 --oracle": "5cd70823e2902183",
}


@pytest.mark.parametrize("flags", sorted(VERIFY_HTOJ_GOLDEN))
def test_verify_htoj_stdout_is_unchanged(capsys, flags):
    code, out, err = run_cli(capsys, "verify", "htoj", *flags.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == VERIFY_HTOJ_GOLDEN[flags]


# `nmv` over generate(p, d, parity, 1)[0] of both parities, p in {5, 7}, d <= 3,
# digests taken before the edge rows were listed on first read
NMV_GOLDEN = {
    "--p 5 --rho 12,7,2,1 --d 1 --space H": "002920ba9c650ba1",
    "--p 5 --rho 12,7,2,1 --d 1 --space L": "c3939d0b53406148",
    "--p 5 --rho 2,1 --d 1 --space H": "6892e6f2d075f590",
    "--p 5 --rho 2,1 --d 1 --space L": "bb47da88e9f44aa6",
    "--p 5 --rho 22,17,12,7,6,2,1 --d 2 --space H": "1445397b7fb0ef6f",
    "--p 5 --rho 22,17,12,7,6,2,1 --d 2 --space L": "2fbc6b28a4bb0e20",
    "--p 5 --rho 12,7,6,2,1 --d 2 --space H": "8f2cbed121a64528",
    "--p 5 --rho 12,7,6,2,1 --d 2 --space L": "622ced4f76fdda4c",
    "--p 5 --rho 22,17,12,11,7,6,2,1 --d 3 --space H": "f3af91907609393b",
    "--p 5 --rho 22,17,12,11,7,6,2,1 --d 3 --space L": "7081758e7737b1d3",
    "--p 5 --rho 32,27,22,17,12,11,7,6,2,1 --d 3 --space H": "fdb5f3da00163ecc",
    "--p 5 --rho 32,27,22,17,12,11,7,6,2,1 --d 3 --space L": "27d9b4ffb429c1b1",
    "--p 7 --rho 10,3,2,1 --d 1 --space H": "6a15d4511e04b512",
    "--p 7 --rho 10,3,2,1 --d 1 --space L": "9e92739e53637da2",
    "--p 7 --rho 3,2,1 --d 1 --space H": "683d83775f215129",
    "--p 7 --rho 3,2,1 --d 1 --space L": "3c98b95b2f7cff7a",
    "--p 7 --rho 38,31,24,17,16,10,9,8,3,2,1 --d 2 --space H": "9d48f7ef27571e86",
    "--p 7 --rho 38,31,24,17,16,10,9,8,3,2,1 --d 2 --space L": "7fd9b35dea674eb5",
    "--p 7 --rho 24,17,16,10,9,8,3,2,1 --d 2 --space H": "71a31965a65ba8c1",
    "--p 7 --rho 24,17,16,10,9,8,3,2,1 --d 2 --space L": "1bbf0857111b19a4",
    "--p 7 --rho 52,45,38,31,30,24,23,17,16,15,10,9,8,3,2,1 --d 3 --space H": "96a9ea7e8cbebfa2",
    "--p 7 --rho 52,45,38,31,30,24,23,17,16,15,10,9,8,3,2,1 --d 3 --space L": "1f899ee167be6832",
    "--p 7 --rho 45,38,31,30,24,23,17,16,15,10,9,8,3,2,1 --d 3 --space H": "0e0fac9c4ddbe621",
    "--p 7 --rho 45,38,31,30,24,23,17,16,15,10,9,8,3,2,1 --d 3 --space L": "aa3e29f8af9923bd",
}


@pytest.mark.parametrize("flags", sorted(NMV_GOLDEN))
def test_nmv_stdout_is_unchanged(capsys, flags):
    code, out, err = run_cli(capsys, "nmv", *flags.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == NMV_GOLDEN[flags]


def test_csv_verdict_table(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "verify", "dim-sqd", "--n", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,verdict"
    assert lines[1] == "dim-sqd,pass"


def test_exit_code_usage_error(capsys):
    code, out, err = run_cli(capsys, "core", "--p", "4", "--partition", "2,1")
    assert code == 2
    assert "odd prime" in err
    # too large for a float square root; 3 divides it
    code, out, err = run_cli(capsys, "core", "--p", str(3**700), "--partition", "2,1")
    assert code == 2
    assert "odd prime" in err


def test_prime_budget_keeps_the_largest_prime_below_it(capsys):
    """9999991 is the largest prime below P_MAX: `core` answers there, and
    exits 2 from P_MAX up before any trial division."""
    assert P_MAX == 10**7
    code, out, err = run_cli(capsys, "core", "--p", "9999991", "--partition", "2,1")
    assert (code, err) == (0, "")
    assert json.loads(out)["outputs"] == {"core": [2, 1], "weight": 0}
    for p in (P_MAX, P_MAX + 19, 10**30 + 57):
        code, out, err = run_cli(capsys, "core", "--p", str(p), "--partition", "2,1")
        assert (code, out) == (2, "")
        assert err == f"error: p must be an odd prime below {P_MAX}: {p}\n"


@pytest.mark.parametrize("fmt, digest", [("json", "06f20b734a7f37a0"), ("csv", "89cd9b338c56131a")])
def test_quotient_at_the_largest_prime_keeps_its_bytes(capsys, fmt, digest):
    """`quotient` at the largest prime below P_MAX prints its ell empty
    components in both formats with the bytes they always had."""
    code, out, err = run_cli(
        capsys, "--format", fmt, "quotient", "--p", "9999991", "--lambda", "2,1"
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv, budget, name",
    [
        (["verify", "dim-sqd", "--n"], DIM_SQD_MAX_N, "n"),
        (["block", "--p", "3", "--rho", "-", "--d"], D_MAX, "weight"),
        (["tree", "walk", "--kind", "B", "--ell"], ELL_MAX, "ell"),
        (["core", "--p", "5", "--partition"], SIZE_MAX, "partition size"),
        (["quotient", "--p", "5", "--lambda"], SIZE_MAX, "partition size"),
        (["rouquier", "gen", "--p", "5", "--d", "2", "--parity", "even", "--count"],
         GEN_MAX_COUNT, "count"),
        # at p = 3 (ell = 1) one core of weight d holds d beads
        (["rouquier", "gen", "--p", "3", "--parity", "even", "--count", "1", "--d"],
         GEN_MAX_BEADS, "beads"),
    ],
)
def test_size_budgets_exit_2_just_past_the_budget(capsys, argv, budget, name):
    assert (DIM_SQD_MAX_N, D_MAX, ELL_MAX, SIZE_MAX, GEN_MAX_COUNT, GEN_MAX_BEADS) == (
        30, 24, 10**5, 10**5, 1000, 5 * 10**5
    )
    code, out, err = run_cli(capsys, *argv, str(budget + 1))
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be at most {budget}: {budget + 1}\n"


def test_block_label_budget_exits_2_before_listing(capsys, monkeypatch):
    """A block of more than BLOCK_MAX_LABELS labels exits 2 before any
    one-bar move, whether d (p = 5, d = 17) or p (ell + 1 labels at d = 1)
    drives the count; the largest blocks D_MAX lets through at p = 3 and
    at p = 5 are inside it."""
    assert BLOCK_MAX_LABELS == 30000
    assert (_block_size(3, D_MAX), _block_size(5, 16)) == (23528, 27741)

    def never(*args):
        raise AssertionError("a block was listed")

    monkeypatch.setattr(abacus, "_neighbors", never)
    monkeypatch.setattr(abacus, "_moves", never)
    for argv, labels in ((["--p", "5", "--d", "17"], 42543), (["--p", "60013", "--d", "1"], 30007),
                         (["--p", "9999991", "--d", "1"], 4999996)):
        code, out, err = run_cli(capsys, "block", "--rho", "-", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: a block has at most {BLOCK_MAX_LABELS} labels: {labels}\n"


def test_core_and_quotient_answer_at_the_size_budget(capsys):
    """A partition of size SIZE_MAX still answers; past it, the staircase
    (447, ..., 1), the costliest shape per box, exits 2 before any bar
    removal, and so does a part of 10^12."""
    report = run_json(capsys, "core", "--p", "3", "--partition", str(SIZE_MAX))
    assert report["outputs"] == {"core": [1], "weight": SIZE_MAX // 3}
    report = run_json(capsys, "quotient", "--p", "5", "--lambda", str(SIZE_MAX))
    assert report["outputs"] == {"components": [[], []], "q0": [SIZE_MAX // 5]}
    for lam in (",".join(map(str, range(447, 0, -1))), str(10**12)):
        size = sum(map(int, lam.split(",")))
        code, out, err = run_cli(capsys, "core", "--p", "5", "--partition", lam)
        assert (code, out, err) == (2, "", f"error: partition size must be at most {SIZE_MAX}: {size}\n")


def test_enumerate_budget_is_per_kind(capsys):
    """n up to 45 (89,134 ordinary partitions) or 80 (77,312 strict ones)
    lists; one more exits 2 before any partition is listed."""
    assert ENUMERATE_MAX_N == {ORDINARY: 45, STRICT: 80}
    assert len(enumerate_partitions(45, ORDINARY)) == 89134
    assert len(enumerate_partitions(80, STRICT)) == 77312
    for kind, budget in ENUMERATE_MAX_N.items():
        for n in (budget + 1, 200, 10**30):
            code, out, err = run_cli(capsys, "enumerate", "--n", str(n), "--kind", kind)
            assert (code, out, err) == (2, "", f"error: n must be at most {budget} for {kind} partitions: {n}\n")


# the largest weight of an L space within the label budget at any p (p = 3, ell + 1 = 2)
L_MAX_D = L_MAX_LABELS.bit_length() - 1


@pytest.mark.parametrize(
    "argv, base",
    [
        (["verify", "phi-kernel", "--p", "5", "--rho", "2,1", "--d"], 3),
        (["nmv", "--p", "5", "--rho", "2,1", "--space", "L", "--d"], 3),
        (["verify", "phi-kernel", "--p", "3", "--rho", "1", "--d"], 2),
        (["verify", "phi-kernel", "--p", "7", "--rho", "3,2,1", "--d"], 4),
    ],
)
def test_l_space_label_budget(capsys, argv, base):
    """(ell + 1)^d labels are counted before any is listed: at most 4096,
    which the phi-kernel rows of `verify all --p 7 --dmax 6` (4^6) and
    `--p 3 --dmax 9` need; one weight more exits 2, and so does 10^30."""
    assert (L_MAX_LABELS, L_MAX_D) == (4096, 12)
    largest = max(d for d in range(1, L_MAX_D + 1) if base**d <= L_MAX_LABELS)
    if argv[0] == "verify":
        report = run_json(capsys, *argv, str(largest))
        assert report["verdicts"] == {"phi-kernel": "pass"}
    for d in (largest + 1, 20, 10**30):
        code, out, err = run_cli(capsys, *argv, str(d))
        assert (code, out, err) == (2, "", f"error: an L space has at most 4096 labels: {base}^{d}\n")


@pytest.mark.parametrize("p, dmax, base", [
    (5, 8, 3), (7, 7, 4), (11, 5, 6), (13, 5, 7), (3, 13, 2),
    (8209, 0, 4105), (8209, 1, 4105), (9999991, 0, 4999996),
])
def test_verify_all_checks_the_l_space_budget_before_any_check(capsys, monkeypatch, p, dmax, base):
    """`verify all` builds the L space of every weight up to dmax for its
    phi-kernel rows, and the weight-1 one for tree-suite even at dmax 0, so
    a dmax or p past the label budget exits 2 before the first check runs
    (these answered in 7 to 33 s before the budget; dmax 0 at p = 8209 ran
    core-order for about 52 s and then exited 3)."""

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran before the budget was checked")

    monkeypatch.setattr(cli, "run_check", no_check)
    monkeypatch.setattr(cli, "check_htoj", no_check)
    code, out, err = run_cli(capsys, "verify", "all", "--p", str(p), "--dmax", str(dmax))
    budget = f"error: an L space has at most 4096 labels: {base}^{max(dmax, 1)}\n"
    assert (code, out, err) == (2, "", budget)


def test_tree_build_answers_at_the_ell_budget(capsys):
    report = run_json(capsys, "tree", "build", "--kind", "A", "--ell", str(ELL_MAX))
    assert len(report["outputs"]["path"]) == ELL_MAX + 1


def test_exit_code_domain_error(capsys):
    code, out, err = run_cli(capsys, "quotient", "--p", "5", "--lambda", "3")
    assert code == 2
    assert "quotient" in err


def test_fcoeff_mu_outside_lambda_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "fcoeff", "--lambda", "3", "--mu", "2,1", "--nu", "-")
    assert code == 2 and out == ""
    assert "does not fit inside" in err


def test_exit_code_internal_error(capsys, monkeypatch):
    def broken(lam, p):
        raise AssertionError("weight drifted")

    monkeypatch.setattr(cli, "quotient", broken)
    code, out, err = run_cli(capsys, "quotient", "--p", "5", "--lambda", "2,1")
    assert code == 3
    assert out == ""
    assert err == "internal error: weight drifted\n"


def test_a_library_fault_inside_a_check_exits_3(capsys, monkeypatch):
    """With runner 0 planted odd in abacus.runner_parity, `verify all` computes
    a negative sqrt(2) exponent.  No input can ask for one, so the run exits
    3, the internal-error code, not 2, the bad-input one."""
    from spinblocks import chars

    real = abacus.runner_parity
    for module in (abacus, chars, stembridge, verify):
        monkeypatch.setattr(module, "runner_parity", lambda j: 1 if j == 0 else real(j))
    code, out, err = run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "3")
    assert (code, out, verify._OPEN) == (3, "", {})
    assert err == "internal error: sqrt(2)**-2 is not in Z[sqrt(2)]\n"


def test_an_odd_branching_exponent_exits_3(capsys, monkeypatch):
    """With every exponent of the int branching core one too high, its
    integrality assertion fires: `verify all` and a single `branch` both
    exit 3 with the scalar route's message, and print nothing."""
    from spinblocks import sqrt2, stembridge

    real = sqrt2.times_sqrt2_power
    monkeypatch.setattr(stembridge, "times_sqrt2_power", lambda a, b, e: real(a, b, e + 1))
    runs = [
        run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "2"),
        run_cli(capsys, "branch", "--p", "5", "--lambda", "5,2,1", "--dir", "restrict"),
    ]
    for code, out, err in runs:
        assert (code, out) == (3, "")
        assert err.startswith("internal error: non-integral branching coefficient ")
    message = "internal error: non-integral branching coefficient 1√2 at ((2, 1), 0)\n"
    assert runs[1][2] == message


def test_a_domain_error_inside_verify_all_exits_3(capsys, monkeypatch):
    """Past its --p and --dmax checks, every label `verify all` asks about is
    the library's own, so a DomainError planted in _quotient is a library
    fault: exit 3, not the bad-input 2, and the open Weight is released.
    `verify all` reaches _quotient only through the block split, whose memo
    starts cold."""
    def planted(lam, p):
        raise DomainError("quotient not defined here")

    abacus._block_by_sizes.cache_clear()
    monkeypatch.setattr(abacus, "_quotient", planted)
    code, out, err = run_cli(capsys, "verify", "all", "--p", "3", "--dmax", "4")
    assert (code, out, err) == (3, "", "internal error: quotient not defined here\n")
    assert verify._OPEN == {}


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "1")
    _, second, _ = run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "1")
    assert first == second


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "branch", "--p", "5", "--rho", "2,1", "--j", "0",
        "--dir", "induce",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,a,b"
    assert '"5,2,1",1,0' in lines


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "kcache.tsv"
    code, _, _ = run_cli(
        capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6"
    )
    assert code == 0
    text = cache.read_text()
    assert text.startswith("spinblocks-kcache 1\n")
    assert "ordinary\t" in text and "strict\t" in text
    # a fresh process state can reload the cache
    PATH_COUNT_MEMO.clear()
    code, _, _ = run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6")
    assert code == 0


@pytest.mark.parametrize(
    "text",
    [
        "not a cache\n",
        "spinblocks-kcache 1\nstrict\t2,1\n",
        "spinblocks-kcache 1\nweird\t2,2\t5\n",
        "spinblocks-kcache 1\nordinary\t100000000\t1\n",
        "spinblocks-kcache 1\nstrict\t2,1\t1\nordinary\t2,1\t3\n",
    ],
)
def test_corrupt_cache_is_an_input_error(tmp_path, capsys, text):
    """Exit 2 with the file untouched, and the same message, line number
    included, whether or not a good file's records were checked before."""
    cache = tmp_path / "kcache.tsv"
    good = tmp_path / "good.tsv"
    errors = []
    for warm in (False, True, "again"):  # again: the same file once more, memo kept
        if warm != "again":
            cli.CACHE_FILE_MEMO.clear()
        if warm is True:
            good.write_bytes(VALID_CACHE)
            assert run_cli(capsys, "--cache", str(good), "core", "--p", "5", "--partition", "5")[0] == 0
            assert str(good) in cli.CACHE_FILE_MEMO
        cache.write_text(text)
        code, out, err = run_cli(
            capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "2,1"
        )
        assert code == 2
        assert err.startswith("error:")
        assert out == ""
        assert cache.read_text() == text
        errors.append(err)
    assert errors[0] == errors[1] == errors[2]
    if text.count("\n") > 2:
        assert f"{cache} line 3: wrong count" in errors[0]


def test_cache_size_limit_keeps_the_largest_countable_shape(tmp_path, capsys):
    """The size cap rejects only shapes no command can count: a one-row shape
    just below it loads, and path_count fails on one at the cap."""
    size = cli.CACHE_MAX_SIZE - 1
    cache = tmp_path / "kcache.tsv"
    cache.write_text(f"spinblocks-kcache 1\nordinary\t{size}\t1\n")
    code, _, _ = run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "2,1")
    assert code == 0
    assert PATH_COUNT_MEMO[(ORDINARY, (size,))] == 1
    PATH_COUNT_MEMO.clear()
    with pytest.raises(RecursionError):
        path_count((cli.CACHE_MAX_SIZE,), ORDINARY)


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["fcoeff", "--lambda", "{n}", "--mu", "-", "--nu", "{n}"], {"f": 1}),
        (["induce", "--mu", "-", "--nu", "{n}"], {"vector": [{"a": 1, "b": 0, "label": "{n}"}]}),
    ],
)
def test_fill_budget_keeps_the_largest_fillable_shape(capsys, argv, outputs):
    """The box budget rejects only shapes the one-frame-per-box fill cannot
    reach: a one-row nu just below it is counted, one at it exits 2, and the
    unchecked fill fails at the recursion limit."""
    size = FILL_MAX_BOXES - 1
    got = run_json(capsys, *(a.format(n=size) for a in argv))["outputs"]
    assert json.dumps(got) == json.dumps(outputs).replace("{n}", str(size))
    code, out, err = run_cli(capsys, *(a.format(n=size + 1) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: nu has {size + 1} boxes; the fill takes at most {size}\n"
    n = sys.getrecursionlimit()
    with pytest.raises(RecursionError):
        _count_lattice_fillings((n,), (), (n,))


@pytest.mark.parametrize("fresh_process", [True, False])
@pytest.mark.parametrize(
    "record, wrong",
    [("strict\t7,5\t132\n", "strict\t7,5\t13\n"), ("ordinary\t3,2\t5\n", "ordinary\t3,2\t6\n")],
)
def test_wrong_cache_count_is_an_input_error(tmp_path, capsys, record, wrong, fresh_process):
    """A well-formed cache with one wrong count must not reach a verdict,
    whether or not the process already holds that count, and whether or not
    it already checked the file with the right count in that line."""
    cache = tmp_path / "kcache.tsv"
    assert run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "12")[0] == 0
    text = cache.read_text()
    assert record in text
    number = text.splitlines().index(record.rstrip("\n")) + 1
    errors = []
    for warm in (False, True, "again"):  # again: the same file once more, memo kept
        if warm != "again":
            cli.CACHE_FILE_MEMO.clear()
        if warm is True:
            cache.write_text(text)
            assert run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "5")[0] == 0
            assert cli.CACHE_FILE_MEMO[str(cache)][0] == text
        cache.write_text(text.replace(record, wrong))
        before = cache.read_bytes()
        if fresh_process:
            PATH_COUNT_MEMO.clear()
        code, out, err = run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "12")
        assert code == 2
        assert err.startswith(f"error: {cache} line {number}: wrong count")
        assert out == ""
        assert cache.read_bytes() == before
        errors.append(err)
    assert errors[0] == errors[1] == errors[2]


def test_each_cache_record_line_is_checked_once_per_process(tmp_path, capsys, monkeypatch):
    """The first load of a file parses and runs the closed form once per
    record line, and later loads of the same bytes do neither; the memo of
    counts is restored from the checked file after it is cleared; a fresh
    process checks every record again."""
    PATH_COUNT_MEMO.clear()
    cache = tmp_path / "kcache.tsv"
    assert run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6")[0] == 0
    entries = dict(PATH_COUNT_MEMO)
    lines = cache.read_text().splitlines()
    cache.write_text("\n".join(lines + lines[1:3]) + "\n")  # two lines twice
    before = cache.read_bytes()
    records = len(lines) + 1  # the header is not a record; two lines come twice
    assert len(set(lines[1:])) == len(entries) > 2

    calls, parses = [], []
    real, real_validate = cli._hook_formula, cli.validate

    def counted(lam, strict):
        calls.append((lam, strict))
        return real(lam, strict)

    def counted_validate(parts, kind):
        parses.append((parts, kind))
        return real_validate(parts, kind)

    monkeypatch.setattr(cli, "_hook_formula", counted)
    monkeypatch.setattr(cli, "validate", counted_validate)
    cli.CACHE_FILE_MEMO.clear()
    assert run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "5")[0] == 0
    assert len(calls) == len(parses) == records
    for _ in range(2):
        assert run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "5")[0] == 0
    assert len(calls) == len(parses) == records
    assert cache.read_bytes() == before
    PATH_COUNT_MEMO.clear()
    assert cli.load_cache(str(cache)) == set(entries)
    assert PATH_COUNT_MEMO == entries
    assert len(calls) == len(parses) == records

    script = (
        "import sys; from spinblocks import cli; calls = []; real = cli._hook_formula\n"
        "cli._hook_formula = lambda *a: calls.append(a) or real(*a)\n"
        "code = cli.main(['--cache', sys.argv[1], 'core', '--p', '5', '--partition', '5'])\n"
        "print(code, len(calls))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(cache)], capture_output=True, env=env, text=True
    )
    assert done.stdout.splitlines()[-1] == f"0 {records}", done.stderr


def test_a_cache_file_the_process_wrote_is_not_checked_again(tmp_path, capsys, monkeypatch):
    """save_cache records the text it wrote with the memo's counts, so the
    next load of those bytes runs no closed form; once an edit changes them,
    every record line is checked again."""
    PATH_COUNT_MEMO.clear()
    cache = tmp_path / "kcache.tsv"
    assert run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6")[0] == 0
    text = cache.read_text()
    assert cli.CACHE_FILE_MEMO[str(cache)] == (text, PATH_COUNT_MEMO)
    calls = []
    real = cli._hook_formula
    monkeypatch.setattr(cli, "_hook_formula", lambda *a: calls.append(a) or real(*a))
    assert run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "5")[0] == 0
    assert calls == []
    cache.write_text(text + "ordinary\t4,4\t14\n")
    assert run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "5")[0] == 0
    assert len(calls) == text.count("\n")  # the old records and the new one


def test_same_length_cache_edit_with_its_mtime_restored_is_checked(tmp_path, capsys):
    """A count rewritten in place to a wrong value of the same length, with
    the file's old mtime restored, keeps the size, inode and mtime of the
    file a process already checked; the next load still finds it."""
    cache = tmp_path / "kcache.tsv"
    assert run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6")[0] == 0
    assert run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "5")[0] == 0
    assert str(cache) in cli.CACHE_FILE_MEMO
    text = cache.read_text()
    record = "ordinary\t3,2\t5\n"
    number = text.splitlines().index(record.rstrip("\n")) + 1
    old = cache.stat()
    with open(cache, "r+b") as fh:
        fh.seek(text.index(record) + len(record) - 2)
        fh.write(b"6")
    os.utime(cache, ns=(old.st_atime_ns, old.st_mtime_ns))
    new = cache.stat()
    assert (new.st_size, new.st_ino, new.st_mtime_ns) == (old.st_size, old.st_ino, old.st_mtime_ns)
    before = cache.read_bytes()
    assert before == text.replace(record, "ordinary\t3,2\t6\n").encode()
    code, out, err = run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cache} line {number}: wrong count for ordinary 3,2:")
    assert cache.read_bytes() == before


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_cache_os_error_is_an_input_error(tmp_path, capsys, monkeypatch, where):
    def never(args):
        raise AssertionError("the command ran on a bad cache path")

    monkeypatch.setattr(cli, "run_command", never)
    cache = tmp_path if where == "directory" else tmp_path / "missing" / "k.tsv"
    code, out, err = run_cli(
        capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "2,1"
    )
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_failed_cache_write_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    # from an empty memo, so that the --n 6 run has new records to write
    PATH_COUNT_MEMO.clear()
    cache = tmp_path / "kcache.tsv"
    assert run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "5")[0] == 0
    before = cache.read_bytes()

    class FailingWriter:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self.writes > 2 or len(text) > 64:  # the disk fills part way through
                self.fh.write(text[:64])
                raise OSError("disk full")
            self.fh.write(text)

    real_open = open

    def failing_open(file, mode="r", **kwargs):
        fh = real_open(file, mode, **kwargs)
        return FailingWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code, out, err = run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6")
    assert code == 2
    assert err == "error: disk full\n"
    assert out == ""
    assert cache.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kcache.tsv"]


def test_timing_flag(capsys):
    report = run_json(capsys, "--timing", "core", "--p", "5", "--partition", "5")
    assert "timing" in report
    _, out, _ = run_cli(capsys, "core", "--p", "5", "--partition", "5")
    assert "timing" not in json.loads(out)


def test_unchanged_cache_is_not_rewritten(tmp_path, capsys):
    PATH_COUNT_MEMO.clear()
    cache = tmp_path / "kcache.tsv"
    assert run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "5")[0] == 0
    before, inode = cache.read_bytes(), cache.stat().st_ino
    # a fresh process: every record is loaded and checked, and core adds none
    PATH_COUNT_MEMO.clear()
    assert run_cli(capsys, "--cache", str(cache), "core", "--p", "5", "--partition", "2,1")[0] == 0
    assert cache.read_bytes() == before
    assert cache.stat().st_ino == inode
    # new counts are still written
    assert run_cli(capsys, "--cache", str(cache), "verify", "dim-sqd", "--n", "6")[0] == 0
    assert cache.stat().st_ino != inode
    text = cache.read_text()
    assert "ordinary\t3,2,1\t16\n" in text and "strict\t3,2,1\t2\n" in text
    assert set(before.decode().splitlines()) < set(text.splitlines())


SESSION = [
    ["core", "--p", "5", "--partition", "7,4,2,1"],
    ["verify", "htoj", "--p", "5", "--lambda", "5,2,1", "--oracle"],
    ["core", "--p", "five", "--partition", "2,1"],
    ["--format", "csv", "branch", "--p", "5", "--rho", "2,1", "--j", "0", "--dir", "induce"],
    ["verify", "all", "--p", "3", "--dmax", "1"],
    ["nmv", "--p", "5", "--rho", "2,1", "--d", "1", "--space", "H"],
    ["enumerate", "--n", "5"],
    ["core", "--p", "5", "--partition", "7,4,2,1"],
    # subcommands that share parent parsers, a missing --lambda among them
    ["quotient", "--p", "5", "--lambda", "5,2,1"],
    ["strip", "--p", "5", "--mu", "2,1"],
    ["strip", "--p", "5", "--lambda", "5,2,1", "--mu", "2,1"],
    ["neighbors", "--p", "5", "--lambda", "2,1", "--j", "0", "--dir", "add"],
    ["tree", "walk", "--kind", "A", "--ell", "2"],
    ["tree", "heller", "--kind", "B", "--ell", "2", "--start", "0", "--n", "2"],
]


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """main reuses one parser: a run of calls in one process, usage errors
    among them, prints the bytes and exit codes of separate fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = []
    for argv in SESSION:
        done = subprocess.run(
            [sys.executable, "-m", "spinblocks.cli", *argv], capture_output=True, env=env
        )
        fresh.append((done.returncode, done.stdout.decode(), done.stderr.decode()))

    def never():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", never)
    session = []
    for argv in SESSION:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        session.append((code, out.out, out.err))
    assert session == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0]


def test_branch_induce_without_mu_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "branch", "--p", "5", "--dir", "induce", "--j", "0")
    assert (code, out, err) == (2, "", "error: branch --dir induce needs --mu\n")


@pytest.mark.parametrize(
    "argv,stray",
    [
        (["--dir", "restrict", "--lambda", "5,2,1", "--mu", "2,1", "--j", "3"], "--mu --j"),
        (["--dir", "induce", "--mu", "2,1", "--rho", "3", "--j", "0", "--lambda", "9"], "--rho --lambda"),
        (["--dir", "restrict", "--lambda", "5,2,1", "--rho", "2,1"], "--rho"),
    ],
)
def test_branch_refuses_the_flags_its_direction_does_not_read(capsys, argv, stray):
    """Induction reads --mu (or its alias --rho) and --j, restriction --lambda;
    a flag the direction would ignore is refused, named, rather than listed
    among the report's inputs."""
    direction = argv[1]
    code, out, err = run_cli(capsys, "branch", "--p", "5", *argv)
    assert (code, out, err) == (2, "", f"error: branch --dir {direction} does not read {stray}\n")


@pytest.mark.parametrize("runner_tuple", ["-1", "1,-2", "9", "3"])
def test_phi_rejects_a_tuple_off_the_runners(capsys, runner_tuple):
    code, out, err = run_cli(
        capsys, "phi", "--p", "5", "--rho", "2,1", f"--tuple={runner_tuple}"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "is not a runner tuple" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "hyp-nonneg", "--p", "0", "--rho", "2,1", "--d", "1"], "odd prime"),
        (["verify", "hyp-nonneg", "--p=-1", "--rho", "2,1", "--d", "1"], "odd prime"),
        (["rouquier", "gen", "--p", "0", "--d", "2", "--parity", "odd"], "odd prime"),
        (["rouquier", "gen", "--p", "5", "--d", "0", "--parity", "odd"], "d must be positive"),
    ],
)
def test_bad_prime_or_weight_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "phi-kernel", "--p", "5", "--rho", "2,1", "--d=-1"], "L space needs weight"),
        (["verify", "phi-kernel", "--p", "5", "--rho", "2,1", "--d", "0"], "L space needs weight"),
        (["verify", "hyp-nonneg", "--p", "5", "--rho", "2,1", "--d=-1"], "d must be positive"),
        (["nmv", "--p", "5", "--rho", "2,1", "--d=-1", "--space", "L"], "L space needs weight"),
    ],
)
def test_an_l_space_weight_below_one_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


# (2, 1) is a 1-Rouquier core for p = 5 but not a 2-Rouquier one, and () is
# not even a 1-Rouquier core: (argv, the core and weight the error names)
NOT_ROUQUIER = {
    **{check: (["verify", check, "--p", "5", "--rho", "2,1", "--d", "2"], "(2, 1)", 2)
       for check in ("htog-adjoint", "stembridge-cross", "hyp-nonneg")},
    "tree-weight1": (["tree", "weight1", "--p", "5", "--rho", "-"], "()", 1),
}


@pytest.mark.parametrize("check", list(NOT_ROUQUIER))
def test_a_core_that_is_not_d_rouquier_is_a_usage_error(capsys, check):
    argv, core, d = NOT_ROUQUIER[check]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {core} is not a {d}-Rouquier core for p=5\n"


# Each verify target with all the flags it needs, in the order its usage lists them.
VERIFY_FLAGS = [
    ("all", ["--p", "5"]),
    ("dim-sqd", ["--n", "3"]),
    ("htoj", ["--p", "5", "--lambda", "5,2,1"]),
    ("core-order", ["--p", "5"]),
    ("tree-suite", ["--p", "5"]),
    ("dim-reduced", ["--p", "5", "--rho", "2,1", "--dcomp", "1,0,0"]),
] + [
    (name, ["--p", "5", "--rho", "2,1", "--d", "1"])
    for name in (
        "block-count", "htog-adjoint", "restrict-recursion", "hyp-nonneg", "phi-kernel",
        "stembridge-cross",
    )
]


def subcommands(parser) -> dict:
    """The subparsers of `parser` by name, in the order they were added."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_verify_flag_table_covers_every_check():
    targets = set(subcommands(subcommands(cli.PARSER)["verify"]))
    assert targets == {name for name, _ in VERIFY_FLAGS} == set(CHECKS) | {"all"}


def usage_error(capsys, *argv) -> str:
    """stderr of an argv that argparse refuses, with exit 2 and no stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    return out.err


@pytest.mark.parametrize(
    "name, given, missing",
    [(name, flags[:k], flags[k]) for name, flags in VERIFY_FLAGS for k in range(0, len(flags), 2)],
)
def test_verify_names_the_first_missing_flag(capsys, name, given, missing):
    """With the first flags given and the rest left out, the usage error of
    the target names exactly the flags left out, the first one first, in the
    order of its usage."""
    left_out = dict(VERIFY_FLAGS)[name][len(given)::2]
    assert left_out[0] == missing
    err = usage_error(capsys, "verify", name, *given)
    assert err.startswith(f"usage: spinblocks verify {name} [-h] ")
    assert err.endswith(
        f"spinblocks verify {name}: error: the following arguments are required: "
        f"{', '.join(left_out)}\n"
    )


def test_verify_unknown_check(capsys):
    err = usage_error(capsys, "verify", "no-such-check", "--p", "5")
    assert "error: argument name: invalid choice: 'no-such-check' (choose from 'all', " in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "htoj", "--p", "5", "--lambda", "6,2", "--rho", "2,1"],
         "spinblocks verify htoj: error: unrecognized arguments: --rho 2,1"),
        (["verify", "dim-sqd", "--n", "3", "--p", "5"],
         "spinblocks verify dim-sqd: error: unrecognized arguments: --p 5"),
        (["verify", "--p", "5", "htoj", "--lambda", "6,2"],
         "spinblocks verify: error: argument name: invalid choice: '5' (choose from 'all', "),
    ],
)
def test_verify_refuses_a_flag_its_target_does_not_read(capsys, argv, message):
    """A flag the target does not read, or a flag before the target, is a
    usage error rather than an input the report lists and the check ignores."""
    assert message in usage_error(capsys, *argv)


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["core", "--p", "5", "--partition", "2,1", "--rho", "1"],
         "usage: spinblocks core [-h] --p P --partition PARTITION\n"),
        (["rouquier", "check", "--p", "5", "--rho", "2,1", "--d", "1", "--j", "1"],
         "usage: spinblocks rouquier check [-h] --p P --rho RHO --d D\n"),
        (["tree", "walk", "--kind", "A", "--ell", "2", "--n", "1"],
         "usage: spinblocks tree walk [-h] --kind {A,B} --ell ELL\n"),
    ],
)
def test_a_flag_a_subcommand_does_not_read_gets_its_own_usage_line(capsys, argv, usage):
    """Each subcommand, nested ones included, refuses an argument it leaves
    unread under its own usage line, not the top level's."""
    prog = usage.split(" [-h]")[0].removeprefix("usage: ")
    error = f"{prog}: error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    assert usage_error(capsys, *argv) == usage + error


def test_verify_all_refuses_a_negative_dmax(capsys):
    assert run_cli(capsys, "verify", "all", "--p", "5", "--dmax", "-3") == (
        2, "", "error: dmax must be at least 0: -3\n"
    )
    report = run_json(capsys, "verify", "all", "--p", "5", "--dmax", "0")
    assert report["outputs"]["summary"] == {"total": 11, "failed": 0}


@pytest.mark.parametrize("argv", [["--mu", "100", "--nu", "100"], ["--mu", "40,30,20,10", "--nu", "40,30,20,10"]])
def test_induce_over_the_candidate_budget_exits_2(capsys, argv):
    assert run_cli(capsys, "induce", *argv) == (
        2, "", f"error: induce fills at most {INDUCE_MAX_CANDIDATES} candidate shapes\n"
    )


def readme_names(label: str) -> list:
    """The backquoted names of the README sentence that starts with label."""
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    return re.findall(r"`([^`]+)`", text.split(label, 1)[1].split(". ", 1)[0])


def test_readme_names_every_subcommand_and_check():
    """README's `Subcommands:` sentence lists the parser's subcommands in
    order, with their nested ones, and its named checks are verify.CHECKS."""
    expected = []
    for name, parser in subcommands(cli.PARSER).items():
        if name == "verify":
            expected.append("verify all|<check>")
        elif any(isinstance(a, argparse._SubParsersAction) for a in parser._actions):
            expected.append(f"{name} {'|'.join(subcommands(parser))}")
        else:
            expected.append(name)
    assert readme_names("Subcommands:") == expected
    assert readme_names("Named checks for `verify`:") == list(CHECKS)


# Flag values for the exit-code fuzz: p <= 7, d and dmax <= 2, n <= 8, at
# most 12 boxes per partition.  Every flag gets a small value, valid or not;
# in half the draws one of them is then replaced by a malformed string.
def joined(values):
    return values.map(lambda xs: ",".join(map(str, xs)))


P = st.sampled_from(["3", "5", "7", "0", "1", "4", "-3"])
D = st.sampled_from(["1", "2", "0", "-1"])
N = st.integers(-2, 8).map(str)
J = st.sampled_from(["0", "1", "2", "3", "-1"])
# small Rouquier cores for p = 3, 5, 7, members of their weight-one blocks,
# and arbitrary lists, strict or not
KNOWN = st.sampled_from(["1", "4,1", "2,1", "3,2,1", "-", "4", "3,1", "7,1", "6,2", "5,2,1"])
PART = st.one_of(
    KNOWN,
    KNOWN,
    joined(
        st.one_of(
            st.sets(st.integers(1, 9), max_size=4).map(lambda xs: sorted(xs, reverse=True)),
            st.lists(st.integers(-1, 9), max_size=4),
        ).filter(lambda xs: sum(map(abs, xs)) <= 12)
    ),
)
COMP = joined(
    st.lists(st.integers(-1, 2), min_size=1, max_size=4).filter(lambda xs: sum(map(abs, xs)) <= 2)
)
MALFORMED = st.sampled_from(["", "x", "1.5", "-", "1,,2", ","])
VERIFY_VALUES = {"--n": N, "--p": P, "--rho": PART, "--d": D, "--dcomp": COMP, "--lambda": PART}
TREE = {"--kind": st.sampled_from(["A", "B"]), "--ell": st.sampled_from(["1", "2", "3", "0", "-1"])}


def maybe(values):
    return st.one_of(st.none(), values)


COMMANDS = {
    ("enumerate",): {"--n": N, "--kind": st.sampled_from(["ordinary", "strict"])},
    ("core",): {"--p": P, "--partition": PART},
    ("quotient",): {"--p": P, "--lambda": PART},
    ("neighbors",): {"--p": P, "--lambda": PART, "--j": J, "--dir": st.sampled_from(["add", "remove"])},
    ("block",): {"--p": P, "--rho": PART, "--d": D, "--dcomp": maybe(COMP)},
    ("rouquier", "check"): {"--p": P, "--rho": PART, "--d": D},
    ("rouquier", "gen"): {
        "--p": P, "--d": D, "--parity": st.sampled_from(["even", "odd"]),
        "--count": maybe(st.sampled_from(["1", "3", "0", "-1"])),
    },
    ("strip",): {"--p": P, "--lambda": PART, "--mu": PART},
    ("fcoeff",): {"--lambda": PART, "--mu": PART, "--nu": PART},
    ("induce",): {"--mu": PART, "--nu": PART},
    ("branch",): {
        "--p": P, "--dir": st.sampled_from(["induce", "restrict"]), "--mu": maybe(PART),
        "--lambda": maybe(PART), "--rho": maybe(PART), "--j": maybe(J),
    },
    ("maction",): {"--p": P, "--rho": PART, "--mu": maybe(PART), "--j": J},
    ("orbit",): {"--p": P, "--rho": PART, "--dcomp": COMP},
    ("hyp",): {"--p": P, "--rho": PART, "--dcomp": COMP},
    ("nmv",): {"--p": P, "--rho": PART, "--d": D, "--space": maybe(st.sampled_from(["L", "H"]))},
    ("phi",): {
        "--p": P, "--rho": PART,
        "--tuple": joined(st.lists(st.integers(-1, 3), min_size=1, max_size=2)),
        "--sign": maybe(st.sampled_from(["+", "-", "0"])),
    },
    # each verify target with its own flags, then the two every target takes
    **{
        ("verify", name): {
            **{flag: VERIFY_VALUES[flag] for flag in flags[::2]},
            "--dmax": maybe(D), "--oracle": maybe(st.just(True)),
        }
        for name, flags in VERIFY_FLAGS
    },
    ("tree", "build"): TREE,
    ("tree", "walk"): TREE,
    ("tree", "heller"): {
        **TREE, "--start": st.sampled_from(["0", "3", "2+", "1-", "x"]), "--n": N,
    },
    ("tree", "weight1"): {"--p": P, "--rho": PART},
}


def command_argv(command, values) -> list:
    argv = list(command)
    for flag, value in values.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")
    return argv


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    values = {flag: draw(strategy) for flag, strategy in COMMANDS[command].items()}
    given = [flag for flag, value in values.items() if isinstance(value, str)]
    if draw(st.booleans()):
        values[draw(st.sampled_from(given))] = draw(MALFORMED)
    fmt = draw(st.sampled_from(["--format=json", "--format=csv"]))
    return [fmt, *command_argv(command, values)]


# fcoeff and induce with a nu at or over the fill budget: a large first part
# and a few small ones, beside any lambda and mu
OVER_BUDGET_NU = st.tuples(
    st.integers(FILL_MAX_BOXES, 10**30), st.sets(st.integers(1, 9), max_size=3)
).map(lambda t: ",".join(map(str, (t[0], *sorted(t[1], reverse=True)))))


# every command that reads --p, the verify targets among them
P_COMMANDS = sorted(command for command, flags in COMMANDS.items() if "--p" in flags)


def past(budget):
    return st.integers(budget + 1, 10**30).map(str)


# a partition past the size budget: one large part, or a staircase of 447 parts or more
OVER_BUDGET_PARTITION = st.one_of(
    past(SIZE_MAX), st.integers(447, 2000).map(lambda n: ",".join(map(str, range(n, 0, -1))))
)


# commands with a size flag past its budget: (command, other flags, flag, its values)
SIZE_BUDGETS = [
    (("verify", "dim-sqd"), {}, "--n", past(DIM_SQD_MAX_N)),
    (("block",), COMMANDS[("block",)], "--d", past(D_MAX)),
    # a block past the label budget: weight 17 to D_MAX at p = 5, or a p whose
    # ell + 1 labels of weight one are already over it
    (("block",), {"--p": st.just("5"), "--rho": st.just("-")}, "--d",
     st.integers(17, D_MAX).map(str)),
    (("block",), {"--rho": st.just("-"), "--d": st.sampled_from(["1", "2", "3"])}, "--p",
     st.sampled_from(["60013", "99991", "9999991"])),
    *[(command, COMMANDS[command], "--ell", past(ELL_MAX))
      for command in (("tree", "build"), ("tree", "walk"), ("tree", "heller"))],
    (("core",), COMMANDS[("core",)], "--partition", OVER_BUDGET_PARTITION),
    (("quotient",), COMMANDS[("quotient",)], "--lambda", OVER_BUDGET_PARTITION),
    (("rouquier", "gen"), COMMANDS[("rouquier", "gen")], "--count", past(GEN_MAX_COUNT)),
    # every core holds at least d beads, so a d past the bead budget is over it at any count
    (("rouquier", "gen"), COMMANDS[("rouquier", "gen")], "--d", past(GEN_MAX_BEADS)),
    *[(("enumerate",), {"--kind": st.just(kind)}, "--n", past(budget))
      for kind, budget in ENUMERATE_MAX_N.items()],
    # an L space of weight past L_MAX_D is over the label budget at every p
    (("nmv",), {**COMMANDS[("nmv",)], "--space": st.just("L")}, "--d", past(L_MAX_D)),
    (("verify", "phi-kernel"), {"--p": P, "--rho": PART}, "--d", past(L_MAX_D)),
    (("verify", "all"), {"--p": P}, "--dmax", past(L_MAX_D)),
    # an induce past the candidate budget: mu and nu of one part each, at least
    # 100 boxes, list a candidate for each strict partition of up to 100 boxes
    (("induce",), {"--mu": st.integers(100, FILL_MAX_BOXES - 1).map(str)}, "--nu",
     st.integers(100, FILL_MAX_BOXES - 1).map(str)),
    (("phi",), COMMANDS[("phi",)], "--tuple",
     joined(st.lists(st.integers(0, 3), min_size=L_MAX_D + 1, max_size=40))),
]


@st.composite
def over_budget_argvs(draw):
    branch = draw(st.sampled_from(["p", "size", "nu"]))
    if branch == "size":
        # one size flag past its budget, with small values for the rest
        command, flags, flag, over = draw(st.sampled_from(SIZE_BUDGETS))
        values = {f: draw(strategy) for f, strategy in flags.items()}
        values[flag] = draw(over)
        return command_argv(command, values)
    if branch == "p":
        # a p at or over the prime budget, with small values for the rest
        command = draw(st.sampled_from(P_COMMANDS))
        values = {flag: draw(strategy) for flag, strategy in COMMANDS[command].items()}
        values["--p"] = str(draw(st.integers(P_MAX, 10**30)))
        return command_argv(command, values)
    nu = draw(OVER_BUDGET_NU)
    if draw(st.booleans()):
        lam = draw(st.one_of(PART, st.just(nu)))
        return ["fcoeff", f"--lambda={lam}", f"--mu={draw(PART)}", f"--nu={nu}"]
    return ["induce", f"--mu={draw(PART)}", f"--nu={nu}"]


VALID_CACHE = b"spinblocks-kcache 1\nstrict\t2,1\t1\nordinary\t2,1\t2\n"
CACHES = st.one_of(
    st.sampled_from([None, "absent", VALID_CACHE]),
    st.sampled_from([None, "absent", VALID_CACHE]),
    st.binary(max_size=48),
    st.just(VALID_CACHE.replace(b"\t2\n", b"\t3\n")),
)


@settings(max_examples=260, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), cache=CACHES, over_budget=st.one_of(*[st.none()] * 3, over_budget_argvs()))
@example(argv=["branch", "--p=5", "--dir=induce", "--j=0"], cache=None, over_budget=None)
@example(argv=["phi", "--p=5", "--rho=2,1", "--tuple=-1"], cache=None, over_budget=None)
@example(argv=["verify", "hyp-nonneg", "--p=0", "--rho=2,1", "--d=1"], cache=None, over_budget=None)
@example(argv=["verify", "phi-kernel", "--p=5", "--rho=2,1", "--d=-1"], cache=None, over_budget=None)
@example(argv=["verify", "hyp-nonneg", "--p=5", "--rho=2,1", "--d=-1"], cache=None, over_budget=None)
@example(argv=["nmv", "--p=5", "--rho=2,1", "--d=-1", "--space=L"], cache=None, over_budget=None)
@example(argv=["fcoeff", "--lambda=3", "--mu=2,1", "--nu=-"], cache=None, over_budget=None)
@example(argv=[], cache=None, over_budget=["fcoeff", "--lambda=1100", "--mu=-", "--nu=1100"])
@example(argv=[], cache=None, over_budget=["induce", "--mu=-", "--nu=1100"])
@example(argv=[], cache=None, over_budget=["core", f"--p={10**30 + 57}", "--partition=2,1"])
@example(argv=[], cache=None, over_budget=["verify", "dim-sqd", "--n=1000000000000"])
@example(argv=[], cache=None, over_budget=["tree", "build", "--kind=A", "--ell=100000000"])
@example(argv=[], cache=None, over_budget=["block", "--p=5", "--rho=-", f"--d={10**30}"])
@example(argv=[], cache=None, over_budget=["block", "--p=9999991", "--rho=-", "--d=1"])
@example(argv=[], cache=None, over_budget=["core", "--p=5", "--partition=1000000000000"])
@example(argv=[], cache=None, over_budget=["verify", "phi-kernel", "--p=5", "--rho=2,1", "--d=12"])
@example(argv=[], cache=None, over_budget=["nmv", "--p=5", "--rho=2,1", "--d=20", "--space=L"])
@example(argv=[], cache=None,
         over_budget=["rouquier", "gen", "--p=5", "--d=2", "--parity=even", f"--count={10**30}"])
@example(argv=[], cache=None,
         over_budget=["rouquier", "gen", "--p=10007", "--d=2", "--parity=even", "--count=1"])
@example(argv=[], cache=None, over_budget=["enumerate", f"--n={10**30}", "--kind=strict"])
@example(argv=[], cache=None, over_budget=["enumerate", "--n=200", "--kind=ordinary"])
@example(argv=[], cache=None, over_budget=["verify", "all", "--p=5", "--dmax=8"])
@example(argv=[], cache=None, over_budget=["induce", "--mu=100", "--nu=100"])
@example(argv=[], cache=None, over_budget=["induce", "--mu=40,30,20,10", "--nu=40,30,20,10"])
@example(argv=["verify", "no-such-check", "--p=5"], cache=None, over_budget=None)
@example(argv=["verify", "htoj", "--p=5", "--lambda=6,2", "--rho=2,1"], cache=None, over_budget=None)
@example(argv=["verify", "all", "--p=5", "--dmax=-3"], cache=None, over_budget=None)
def test_exit_code_contract(argv, cache, over_budget):
    """Exit 0, 1 or 2 on any argv and cache bytes: 1 only from verify, never
    a traceback, and an exit-2 run leaves the cache file as it was.  Exit 0
    or 1 prints one report, and it is 1 exactly when a verdict it prints is
    "fail".  A quarter of the draws replace argv by one over a size budget,
    which must exit 2.  No run leaves a Weight open."""
    argv = over_budget or argv
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kcache.tsv"
        if cache is not None:
            argv = [f"--cache={path}", *argv]
            if cache != "absent":
                path.write_bytes(cache)
        before = path.read_bytes() if path.exists() else None
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        after = path.read_bytes() if path.exists() else None
    assert verify._OPEN == {}, argv
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert code != 1 or "verify" in argv, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 2 or not over_budget, (argv, code)
    if code == 2:
        assert after == before
    elif "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        verdicts = [verdict for _, verdict in rows[1:]] if rows[0] == ["check", "verdict"] else []
        assert code == ("fail" in verdicts), (argv, code)
    else:
        assert out.getvalue().count("\n") == 1, argv
        report = json.loads(out.getvalue())
        assert code == ("fail" in report.get("verdicts", {}).values()), (argv, code)


# sha256 of argparse's bytes on every parser path at 80 columns: each path's
# `--help` (stdout, exit 0) and its usage error with no flags (stderr, exit 2),
# plus a bad choice, a bad type, a bad tree kind and an unknown verify target.  Python 3.11's layout.
PARSER_GOLDEN = {
    "": "08fbee7116dd95b8020f9c6ae3e1559aac9a5447d340821f67d2090e8a44fd62",
    "--help": "e93cd099ea9f4223be1de501ffe37f02e581769545233cf86305e9d0b8ceef41",
    "block": "8940cbc0100d632e5f3ca73ae519c03c21daf11fe55e77b9f367d726df9350dd",
    "block --help": "0a7068b10643eb6fd850eb011ee6cb4dd9c28ad220e50df471939d368f3a0b86",
    "branch": "f8b34348a00048533ab994a10d5e8673e335e67f63d0e4d631a1058421727027",
    "branch --help": "b866894e494bb9b71df14d54a5a6b7d6257d75238ab9a931fbdb2c5decc8f827",
    "core": "79b729596b0aeb979f0486406d64455123154dbadf726fb5893ae88690bb492c",
    "core --help": "996f4518ef3b7fce3fe043345ad09e87ffe65f3da4fad15226c64b418b184f48",
    "core --p x": "8a82fd912c068db0bf6cdad62369c6275e395dbfc48969478f3ab00e689f9531",
    "enumerate": "a869766237c3f6b80fc9270bdda80dc64577faffe46e04662cd47d04b6fa9ad6",
    "enumerate --help": "9ead28c72456cdf2b2550747a1e2075098d4592feed1dce444fe1d677f568b94",
    "fcoeff": "eefb47aa1bd651d6eaa9020a1aeadc877ac6cacf2b4b8835786604105cacd481",
    "fcoeff --help": "3adefb44c5fe7892ffe64112b1d490d61996610ccef05705bfd67fd384edad82",
    "hyp": "a90773d76de5d6d9e4978a7357a60263c4a5e3af2ed19f1b2e85e86fbc32b938",
    "hyp --help": "08395575f307902dc2eaefc6a239dfde66d4ffd6e793930d78b8734dfa984d7d",
    "induce": "438ca8cb2ae476cbce5be9c26c9c80ac8675f0e520bec0494f5f102dbf680f94",
    "induce --help": "5becd3bbbcba7c744190b8b31631ba9557a60ad0a92eee6c1f57252111c900d8",
    "maction": "3d5902ac9557d4d22937de75bceed95c939cede22a83a2c92488ecb18040ed36",
    "maction --help": "76926814614a27d7715216776c1422dfec9da87f3a7b7b2ab45928e94ff1cccb",
    "neighbors": "2b9aef729b94c8f3b116e0a73d82cbf25425fe3aa6331e1efd9f6521d20f5b9f",
    "neighbors --dir up": "845985f1c3295edfad00ff6554ee692040f8515218a5fdd05c4c1198b9c873b7",
    "neighbors --help": "c805e9a1d46a8fc61b3a14e3145a46492c8f9017d8d08a8ce3c42d1503ba4f32",
    "nmv": "146e7beb7349160db9584ca1ae39576609f9b38d40bc49908d81f84f4003e530",
    "nmv --help": "3ad7b74d753e70d85d17bd9869f9d61d621d9598809f4b4df928e7706964f64a",
    "orbit": "ca840b5319d6bf89d08a561fb0e7d511cb42b07f2f98ca20d7febf4e16b252f5",
    "orbit --help": "5205351802496601cfb0d86d3060afaf230455ee0b2b4a3a190ef32174da132d",
    "phi": "dbd43f14ade5aaed94b6b0958c8940f333339ba718a0b4baf9118d9a7cee31f0",
    "phi --help": "33961f7cc2678c197f11e26f772d0064f35e27fb2facbdef380081a93b6da6f5",
    "quotient": "4c0e5c025b8dcee3a8be1bf2e2dc8bb0662e9ebe6ff5f2b4883633b730bc6198",
    "quotient --help": "88d84410daa57ddd0a497f2b95f7df79fa2755fc8daed6fdc0b346ab0845833a",
    "rouquier": "6f92d977a144c778d8842fcb4e477e4d1cead3e5741ffd31f3f9c8d968fe0935",
    "rouquier --help": "669a885058025e0736322fa8dd878f7d5d771c5e39d30c34328d79a331f3ac4e",
    "rouquier check": "8f55280088bdd541d54a647fd76460afd25f28ed0725927c00b687a70a60ed3f",
    "rouquier check --help": "12da8b388317f4d390fdc92a0b3a86df185195c24a944e8bd413c6e81a4a0aec",
    "rouquier gen": "4cd54848ff24dd99ec2f133fbdfc3ec99ccebb5badddedd319b54aa3ca5b02f3",
    "rouquier gen --help": "c7a4f9955657213684c27da6fc5ca94aff7be31875320df8dd310dff8fc58323",
    "strip": "44e0819736fde0fd4f5515ff422c5fcea0f3cb67f262e42e1e59d8a3a2893cc8",
    "strip --help": "69f2737ded5c8e6ed8c188616135907d6074333ccd5d3a39b522ba7fbf701876",
    "tree": "de7cbda67fc1de2c2258afa194fafaccd38d4ff536b462f1575a696c0c3f9cd9",
    "tree --help": "0eb00e07915b32e68df4513b6c30d9b12337479c1b9d7967c187cef392402cef",
    "tree build": "fe35b027a86d475d21d192762d8adcafbf67dedaca32d62064600c5e288ade93",
    "tree build --help": "078f393bdf684a7bce0c0e4f8d635c8e3c6d063e9d2702213423b0648c1ef956",
    "tree build --kind C": "1c7b1c6c879f521bd87804516ffe0cff4e5f3a2751d6b8f3f19d8f46988a1596",
    "tree heller": "bc85275afc97ceb826a3804b9127bf18abe27f3cd7ae31ccb270abe34525ca73",
    "tree heller --help": "c25ac6bdfeb4116098305d2b1c9c31033f4fcb82e0315cb46803a9b9e48c6bd8",
    "tree walk": "b1220175959469108aa2317ceb5d2d1e5bb5ea9589966358583a3478d9c79289",
    "tree walk --help": "aa1dc68e1662ed4cfd58b937cf3f1d1eb095a208414ccb4886a46b7c216cfdf0",
    "tree weight1": "ecd41c0d50dc0ad0ba0b8aa60185f1a7e0d80d619af3acd79ea57c0fed0eeaf3",
    "tree weight1 --help": "393a85cf7bcdd03d1649761213a5933d6015aff7911319e9a17bfaa065574fde",
    "verify": "d28d6286c1bd0b1e7eb346c6d30d10dec644a70422cf49b702f66ebfbebf2bca",
    "verify --help": "d694aa1fe654a8f1e1fe344b4c37ac60bd071c9bacb769074e66ddfbe737e3cb",
    "verify all": "fcab81fcecbb593a8cee48c0890c7fd2d33b40601b4ac7eecc371b53d6bc1c19",
    "verify all --help": "5be895c7408dadb2d71824db645e757347e11a4bd4da265404a0443a7c101f6c",
    "verify block-count": "f4e9fc70aaa07e4a15c5da548c917aabd1a0cf9d308813daf349d2e06d4bab6d",
    "verify block-count --help": "2d244c83459f302c95dcb403c6891c9333411777cfa3634e0b739758757b6901",
    "verify core-order": "f4f990c7fb9c56bd768f778db45f0fbf2fa8607a96507b12890e4e2713b0f206",
    "verify core-order --help": "6f8963d1f1abe54602cbbcc7dce15c28375d7d2c4ab4e4cbab2f1e9465ec112c",
    "verify dim-reduced": "314324a808cc769c3a66b917c8c669138b5f17e622585efd7102c7e18cac3d88",
    "verify dim-reduced --help": "a150596f2bfb267f9e67566f5f8154ca3046a27aa41216396b38833d50e53188",
    "verify dim-sqd": "9fce5af7863153d46d23c944af1bc0af47a4877e9cf35e5ed0a6920dadfb9179",
    "verify dim-sqd --help": "3725a129377ff8ddf1b0753c3287f2d56085043b0be6cef5dab00db752437d19",
    "verify htog-adjoint": "578c4110934f7ab932f35e6266cececc8843cb684061aeccf372878b93d3e4e7",
    "verify htog-adjoint --help": "bee5be73185eaedc7a801336fa31a09a42c17f56f2b93f12b26af111043c6987",
    "verify htoj": "fe49e500308488ea41a72dbc0e8179c062ea57a3c5d3b7a93a116dbb1a6ffec2",
    "verify htoj --help": "40e73f30f7ffb5622a9ce7603f4070ae070f361ff01ff91a4138c01e0358ac1d",
    "verify hyp-nonneg": "1f86cf04067974b6c7cbcd805d24f4eec0ff9df2bbd7e804d134bed68c9dfac4",
    "verify hyp-nonneg --help": "1a8cfc8069729c576b3a5680f664bfd8b393b1dad91a928bdbfa207db4ad30cd",
    "verify no-such-check": "45ae9ae633590865e92f3defb4d3d15807fb60357de43da7e7b98719e630294b",
    "verify phi-kernel": "f3d78d37a62624d4ccaca313d9850c01c8304d005b1f8ec2d051cf04aba625e9",
    "verify phi-kernel --help": "e37e2a48303d45db623a8e853fbd99636e657fee72c06ba9d366692deb71537f",
    "verify restrict-recursion": "079b1dfba8b3d637170b5304595e1f3a502aa6eca5427e018a56e11140e72d44",
    "verify restrict-recursion --help": "c19d3b35a866ca6cf866917dc02deac03e481511dde2e00fdc8f0435d074e2ec",
    "verify stembridge-cross": "0c3f1b013d06f0a655ef7756c623a60bfb8a7cc45dc06ace28a37734e461e800",
    "verify stembridge-cross --help": "46038ef64e715515236009777606b77aa7d93db963d0007add1e2d94248c6d48",
    "verify tree-suite": "8f3b67952791ed53d99c56fa93066016a549d95b549674c77929c3ce56a730a5",
    "verify tree-suite --help": "26345c412665f589ca222160c4b114fb993451f7d1f58c1b57e21b5dc1c242dc",
}
BAD_VALUES = ["core --p x", "neighbors --dir up", "tree build --kind C", "verify no-such-check"]


def test_parser_golden_covers_every_parser_path():
    paths = {" ".join(command[:k]) for command in COMMANDS for k in range(len(command) + 1)}
    assert len(paths) == 36
    expected = {f"{path} --help".lstrip() for path in paths} | paths | set(BAD_VALUES)
    assert set(PARSER_GOLDEN) == expected


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's layout varies by Python")
@pytest.mark.parametrize("argv", sorted(PARSER_GOLDEN))
def test_parser_help_and_usage_errors_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out = capsys.readouterr()
    asks_help = argv.endswith("--help")
    assert exc.value.code == (0 if asks_help else 2)
    assert (out.err if asks_help else out.out) == ""
    assert hashlib.sha256((out.out + out.err).encode()).hexdigest() == PARSER_GOLDEN[argv]
