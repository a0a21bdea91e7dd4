"""A fixed differential corpus over the public surface.

Every row is one call: a library entry point with its arguments, or one
`cli.main` argv list.  A library row renders as its result or as its
exception type and message; a CLI row as its exit code, stdout and stderr.
The rows of one entry point hash to one sha256, and `corpus_digests.json`
pins them, so a refactor that changes any result, error message or exit
code shows as the entry points whose digest moved.

Regenerate with `PYTHONPATH=src python tests/make_corpus.py` (it prints the
entries that changed; `--write` records them, `--show NAME` prints the rows).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from itertools import product

from spinblocks import (
    ORDINARY,
    STRICT,
    CharSpace,
    CharVector,
    CheckReport,
    NmvLattice,
    Sqrt2Scalar,
    block_enum,
    box_moves,
    build,
    core_weight,
    enumerate_partitions,
    f_coeff,
    generate,
    heller,
    hyp_coeffs,
    induce,
    is_bar_core,
    is_rouquier,
    k_product,
    m_action,
    neighbors,
    nmv_basis,
    orbit_sum,
    path_count,
    phi,
    quotient,
    rho_extension,
    rock_branch,
    run_check,
    strip_classify,
    walk,
    weight_one_map,
)
from spinblocks import abacus, cli, verify
from spinblocks.rouquier import rouquier_core

# Strict partitions (the first eleven), then three that are not strict.
PARTS = [(), (1,), (2, 1), (3,), (4, 1), (5,), (5, 2, 1), (6, 2), (7,), (7, 1), (8, 5, 2),
         (2, 2), (1, 2), (0,)]
# Odd primes, then a composite of each parity, 1, a negative and P_MAX.
PRIMES = [3, 5, 7, 4, 9, 1, -3, 10**7]
# The first generated d-Rouquier core of each parity, d in {1, 2}, p in {3, 5, 7}.
CORES = [(1,), (4, 1), (10, 7, 4, 1), (12, 7, 2, 1), (2, 1), (22, 17, 12, 7, 6, 2, 1),
         (12, 7, 6, 2, 1), (10, 3, 2, 1), (3, 2, 1), (24, 17, 16, 10, 9, 8, 3, 2, 1)]
# Labels of weight 1 and 2 over those cores, for the entries that find a label's block.
LABELS = PARTS + [(10, 2, 1), (8, 3, 2), (22, 7, 6, 2, 1), (17, 7, 6, 5, 2, 1), (7, 4, 1)]
DCOMPS = [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0), (0, 0, 0, 1), (-1, 2, 0), (2,)]
SMALL_PRIMES = [3, 5, 7, 4]
WEIGHTS = [-1, 0, 1, 2, 25]


def _space(kind, rho, p, d):
    return {"block": CharSpace.block, "L": CharSpace.l_space, "H": CharSpace.h_space}[kind](rho, p, d)


def _unit(kind, rho, p, d, label, basis="super"):
    return CharVector.make(_space(kind, rho, p, d), {label: 1}, basis)


def _labels_of(kind, rho, p, d):
    return _space(kind, rho, p, d).labels()


def _member(kind, rho, p, d, mapping, oracle=False):
    lattice = nmv_basis(_space(kind, rho, p, d))
    v = CharVector.make(lattice.space, mapping)
    return lattice.member_oracle(v) if oracle else lattice.member(v)


def _heller(kind, ell, start, n):
    return heller(build(kind, ell), start, n)


# entry point -> (function, argument tuples)
LIBRARY = {
    "core_weight": (core_weight, list(product(PARTS + [(100001,)], PRIMES))),
    "quotient": (quotient, list(product(PARTS + [(100001,)], PRIMES))),
    "neighbors": (neighbors, list(product(PARTS, [5], [0, 1, 2, 3, -1], ["add", "remove"]))
                  + [((2, 1), p, 0, "add") for p in PRIMES] + [((2, 1), 5, 0, "up")]),
    "block_enum": (block_enum, list(product(PARTS, PRIMES, WEIGHTS))
                   + [((2, 1), 5, 1, c) for c in DCOMPS]
                   + [((12, 7, 6, 2, 1), 5, 2, c) for c in [(0, 2, 0), (0, 1, 1), (2, 0, 0)]]
                   + [((), 1009, 3), ((), 5, 16, (16, 0)), ((2, 1), 5, 25, (25, 0, 0)),
                      ((2, 1), 5, 25, (1, 0, 0))]),
    "is_bar_core": (is_bar_core, list(product(PARTS, PRIMES))),
    "k_product": (k_product, list(product(PARTS, PRIMES))),
    "is_rouquier": (is_rouquier, list(product(PARTS + CORES, PRIMES, [0, 1, 2, 3]))),
    "path_count": (path_count, list(product(PARTS, [STRICT, ORDINARY, "shifted"]))),
    "f_coeff": (f_coeff, [(lam, (), ()) for lam in PARTS]
                + [((3, 1), (2,), (2,)), ((4, 2, 1), (3, 1), (2, 1)), ((3,), (2,), (2,)),
                   ((2,), (3,), ()), ((950,), (), (950,))]),
    "induce": (induce, [(lam, (1,)) for lam in PARTS] + [((2, 1), (2,)), ((100,), (100,))]),
    "rock_branch": (rock_branch, list(product(
        LABELS + CORES, [5, 7, 4], [0, 1, None, 3], ["induce", "restrict", "sideways"]))),
    "CharSpace.block": (CharSpace.block, list(product(PARTS + CORES, PRIMES, [0, 1, 2]))),
    "CharSpace.l_space": (CharSpace.l_space, list(product(PARTS + CORES, PRIMES, [0, 1, 2]))
                          + [((2, 1), 5, 8), ((2, 1), 5, 7)]),
    "CharSpace.h_space": (CharSpace.h_space, list(product(PARTS + CORES, PRIMES, [0, 1, 2]))),
    "CharSpace.labels": (_labels_of, list(product(
        ["block", "L", "H"], [(2, 1), (5,), (), (12, 7, 6, 2, 1)], [5, 7], [1, 2]))),
    "CharSpace.validate_label": (
        lambda kind, rho, p, d, label: _space(kind, rho, p, d).validate_label(label),
        [("L", (2, 1), 5, 2, t) for t in [(0, 1), (2, 2), (0, 3), (1,), ("1", 0)]]
        + [("H", (2, 1), 5, 2, lab) for lab in [((7, 1), 2), ((7, 1), 3), ((2, 1), 0),
                                                  ((2, 2), 0), ((6, 2), "1")]]
        + [("block", (2, 1), 5, 1, (7, 1))]),
    "box_moves": (box_moves, list(product(PARTS, [STRICT, ORDINARY, "x"], ["add", "remove", "x"]))),
    "rouquier_core": (rouquier_core, list(product(PARTS + CORES, PRIMES, [0, 1, 2, 3]))),
    "rho_extension": (rho_extension, list(product(PARTS + CORES, PRIMES, [0, 1, 3, -1]))),
    "strip_classify lam": (strip_classify, list(product(LABELS, [(2, 1)], [5, 7, 4]))),
    "strip_classify mu": (strip_classify, list(product([(6, 2), (10, 2, 1)], LABELS, [5, 7, 4]))),
    "weight_one_map": (weight_one_map, list(product(PARTS + CORES, PRIMES))),
    "orbit_sum": (orbit_sum, list(product(PARTS + CORES, SMALL_PRIMES, DCOMPS))
                  + [((2, 1), 5, (8, 0, 0)), ((2, 1), 5, (7, 0, 0))]),
    "hyp_coeffs": (hyp_coeffs, list(product(PARTS + CORES, SMALL_PRIMES, DCOMPS))
                   + [((12, 7, 6, 2, 1), 5, c) for c in [(0, 2, 0), (1, 0, 1), (2, 0, 0)]]),
    "htoj_sides": (verify.htoj_sides, list(product(LABELS, PRIMES))),
    "restrict_recursion_sides": (verify.restrict_recursion_sides, list(product(LABELS, PRIMES))),
    "check_htoj": (verify.check_htoj, list(product(LABELS, PRIMES))
                   + [(lam, p, True) for lam, p in [((5, 2, 1), 5), ((22, 7, 6, 2, 1), 5),
                                                    ((10, 2, 1), 7), ((7, 4, 1), 3)]]),
    "check_dim_reduced": (verify.check_dim_reduced, list(product(PARTS + CORES, SMALL_PRIMES, DCOMPS))),
    "check_phi_kernel": (verify.check_phi_kernel, list(product(PARTS + CORES, PRIMES, [0, 1, 2]))
                         + [((2, 1), 5, 8)]),
    "generate": (generate, list(product(PRIMES, [0, 1, 2], ["even", "odd", "both"], [1]))
                 + [(5, 2, "odd", c) for c in [0, 3, 1001]] + [(999983, 2, "even", 1)]),
    "verify_all": (cli.verify_all, [(5, 1), (3, 2), (5, -1), (4, 1), (8209, 0), (7, 1), (5, 9)]),
    "check_dim_sqd": (verify.check_dim_sqd, [(n,) for n in [0, 1, 4, 7, 31]]),
    "check_core_order": (verify.check_core_order, [(p,) for p in PRIMES]),
    "check_tree_suite": (verify.check_tree_suite, [(p,) for p in PRIMES]),
    "run_check": (lambda name, params: run_check(name, **params),
                  [("dim-sqd", {"n": 3}), ("no-such-check", {}), ("htoj", {"lam": (7, 1), "p": 5}),
                   ("block-count", {"rho": (2, 1), "p": 5})]),
    "run_command": (lambda command: cli.run_command(argparse.Namespace(command=command)), [("nope",)]),
    "enumerate_partitions": (enumerate_partitions, list(product([-1, 0, 5, 46, 81], [STRICT, ORDINARY, "x"]))),
    "trees": (_heller, [("B", 2, "0", 1), ("A", 2, "0", 3), ("B", 2, 3, 0), ("B", 2, 99, 0),
                        ("A", 2, "zz", 1), ("A", 2, "0", -1), ("A", 0, "0", 1), ("C", 2, "0", 1),
                        ("A", 100001, "0", 1)]),
    "walk": (lambda kind, ell: walk(build(kind, ell)), [("A", 3), ("B", 3)]),
    "node_characters": (lambda kind, node: build(kind, 2).node_characters(node),
                        [("A", "0"), ("B", "0"), ("B", "1+"), ("A", "9")]),
    "phi": (lambda kind, rho, p, d, label, basis: phi(_unit(kind, rho, p, d, label, basis)),
            [("L", (2, 1), 5, 2, t, "super") for t in [(0, 0), (0, 1), (2, 1)]]
            + [("L", (2, 1), 5, 1, ((1,), 1), "refined"), ("H", (2, 1), 5, 1, ((), 0), "super")]),
    "m_action": (lambda kind, rho, p, d, label: m_action(_unit(kind, rho, p, d, label)),
                 [("L", (2, 1), 5, 1, (j,)) for j in range(3)]
                 + [("H", (2, 1), 5, 2, ((7, 1), j)) for j in range(3)]
                 + [("L", (2, 1), 5, 2, (0, 1)), ("block", (2, 1), 5, 1, (7, 1))]),
    "nmv_basis": (lambda kind, rho, p, d: nmv_basis(_space(kind, rho, p, d)),
                  [("L", (2, 1), 5, 1), ("H", (2, 1), 5, 2), ("L", (1,), 3, 2),
                   ("block", (2, 1), 5, 1), ("H", (5,), 5, 1)]),
    "NmvLattice.member": (_member, [
        ("H", (2, 1), 5, 1, {((2, 1), 0): 1, ((2, 1), 1): 1}),
        ("H", (2, 1), 5, 1, {((2, 1), 0): 1}),
        ("H", (12, 7, 2, 1), 5, 1, {((12, 7, 2, 1), 0): 1, ((12, 7, 2, 1), 1): -1}),
        ("L", (2, 1), 5, 2, {(0, 0): 2, (0, 1): 1}),
        ("L", (2, 1), 5, 2, {(0, 0): Sqrt2Scalar(0, 1)}),
        ("L", (2, 1), 5, 1, {(3,): 1, (0,): 0}),
        ("L", (2, 1), 5, 1, {(0,): 1, (1,): 1}, True),
        ("H", (2, 1), 5, 1, {((2, 1), 0): 1, ((9,), 0): 1}, True),
        ("H", (2, 1), 5, 1, {((2, 1), 1): 1, ((2, 1), 2): 1}, True),
    ]),
}
# The checks that take (rho, p, d) share one grid.
for _name in ("block_count", "htog_adjoint", "restrict_recursion", "hyp_nonneg", "stembridge_cross"):
    LIBRARY[f"check_{_name}"] = (getattr(verify, f"check_{_name}"),
                                 list(product(PARTS + CORES, PRIMES, [0, 1, 2])))

CORE5 = ["--p", "5", "--rho", "5"]  # (5,) has bar-weight 1 at p = 5: not a core
CLI = [
    [], ["nope"], ["--format", "csv", "core", "--p", "5", "--partition", "5,2,1"],
    ["enumerate", "--n", "4", "--kind", "strict"], ["enumerate", "--n", "-1", "--kind", "strict"],
    ["enumerate", "--n", "81", "--kind", "strict"], ["enumerate", "--n", "3", "--kind", "x"],
    ["core", "--p", "5", "--partition", "5,2,1"], ["core", "--p", "4", "--partition", "1"],
    ["core", "--p", "5", "--partition", "2,2"], ["core", "--p", "5", "--partition", "100001"],
    ["core", "--p", "5", "--partition", "x"], ["core", "--p", "5"],
    ["quotient", "--p", "5", "--lambda", "5,2,1"], ["quotient", "--p", "5", "--lambda", "4"],
    ["neighbors", "--p", "5", "--lambda", "2,1", "--j", "0", "--dir", "add"],
    ["neighbors", "--p", "5", "--lambda", "7,1", "--j", "1", "--dir", "remove"],
    ["neighbors", "--p", "5", "--lambda", "2,1", "--j", "3", "--dir", "add"],
    ["block", "--p", "5", "--rho", "2,1", "--d", "1"],
    ["block", "--p", "5", "--rho", "2,1", "--d", "1", "--dcomp", "0,1,0"],
    ["block", "--p", "5", "--rho", "2,1", "--d", "1", "--dcomp", "1,1,0"],
    ["block", "--p", "5", "--rho", "2,1", "--d", "25"], ["block", *CORE5, "--d", "1"],
    ["block", *CORE5, "--d", "25"], ["block", "--p", "5", "--rho", "2,1", "--d", "-1"],
    ["block", "--p", "1009", "--rho", "-", "--d", "3"],
    ["rouquier", "check", "--p", "5", "--rho", "2,1", "--d", "1"],
    ["rouquier", "check", *CORE5, "--d", "1"], ["rouquier", "check", "--p", "5", "--rho", "2,1", "--d", "0"],
    ["rouquier", "gen", "--p", "5", "--d", "2", "--parity", "even", "--count", "2"],
    ["rouquier", "gen", "--p", "5", "--d", "2", "--parity", "odd", "--count", "1001"],
    ["rouquier", "gen", "--p", "999983", "--d", "2", "--parity", "odd"],
    ["strip", "--p", "5", "--lambda", "6,2", "--mu", "2,1"],
    ["strip", "--p", "5", "--lambda", "3", "--mu", "2,1"],
    ["fcoeff", "--lambda", "3,1", "--mu", "2", "--nu", "2"],
    ["fcoeff", "--lambda", "3", "--mu", "2", "--nu", "2"],
    ["fcoeff", "--lambda", "950", "--mu", "-", "--nu", "950"],
    ["induce", "--mu", "2", "--nu", "1"], ["induce", "--mu", "100", "--nu", "100"],
    ["branch", "--p", "5", "--dir", "induce", "--mu", "2,1", "--j", "0"],
    ["branch", "--p", "5", "--dir", "induce", "--rho", "2,1", "--j", "1"],
    ["branch", "--p", "5", "--dir", "restrict", "--lambda", "5,2,1"],
    ["branch", "--p", "5", "--dir", "induce", "--j", "0"],
    ["branch", "--p", "5", "--dir", "induce", "--mu", "2,1"],
    ["branch", "--p", "5", "--dir", "restrict"],
    ["branch", "--p", "7", "--dir", "restrict", "--lambda", "7"],
    ["branch", "--p", "5", "--dir", "restrict", "--lambda", "5,2,1", "--mu", "2,1", "--j", "3"],
    ["branch", "--p", "5", "--dir", "induce", "--mu", "2,1", "--rho", "3", "--j", "0", "--lambda", "9"],
    ["branch", "--p", "5", "--dir", "induce", "--mu", "2,1", "--j", "0", "--lambda", "5,2,1"],
    ["branch", "--p", "5", "--dir", "restrict", "--lambda", "5,2,1", "--rho", "2,1"],
    ["maction", "--p", "5", "--rho", "2,1", "--j", "1"],
    ["maction", "--p", "5", "--rho", "2,1", "--mu", "2,1", "--j", "1"],
    ["maction", "--p", "5", "--rho", "2,1", "--mu", "7,1", "--j", "2"],
    ["maction", "--p", "5", "--rho", "2,1", "--j", "3"], ["maction", *CORE5, "--j", "1"],
    ["maction", *CORE5, "--mu", "5", "--j", "1"], ["maction", *CORE5, "--mu", "10", "--j", "1"],
    ["orbit", "--p", "5", "--rho", "2,1", "--dcomp", "1,1,0"], ["orbit", *CORE5, "--dcomp", "1,0,0"],
    ["orbit", "--p", "5", "--rho", "2,1", "--dcomp", "1,1"],
    ["hyp", "--p", "5", "--rho", "2,1", "--dcomp", "1,0,0"], ["hyp", *CORE5, "--dcomp", "1,0,0"],
    ["hyp", "--p", "5", "--rho", "-", "--dcomp", "1,0,0"],
    ["nmv", "--p", "5", "--rho", "2,1", "--d", "1"], ["nmv", "--p", "5", "--rho", "2,1", "--d", "1", "--space", "H"],
    ["nmv", *CORE5, "--d", "1"], ["nmv", *CORE5, "--d", "1", "--space", "H"],
    ["nmv", "--p", "5", "--rho", "2,1", "--d", "8"],
    ["phi", "--p", "5", "--rho", "2,1", "--tuple", "0,1"],
    ["phi", "--p", "5", "--rho", "2,1", "--tuple", "0,1", "--sign", "-"],
    ["phi", "--p", "5", "--rho", "12,7,2,1", "--tuple", "0", "--sign", "+"],
    ["phi", "--p", "5", "--rho", "2,1", "--tuple", "0,3"], ["phi", *CORE5, "--tuple", "1"],
    ["tree", "build", "--kind", "A", "--ell", "2"], ["tree", "walk", "--kind", "B", "--ell", "2"],
    ["tree", "heller", "--kind", "B", "--ell", "2", "--start", "0", "--n", "1"],
    ["tree", "heller", "--kind", "B", "--ell", "2", "--start", "zz", "--n", "1"],
    ["tree", "heller", "--kind", "A", "--ell", "2", "--start", "99", "--n", "1"],
    ["tree", "build", "--kind", "A", "--ell", "0"], ["tree", "build", "--kind", "A", "--ell", "100001"],
    ["tree", "weight1", "--p", "5", "--rho", "2,1"], ["tree", "weight1", *CORE5],
    ["verify", "all", "--p", "5", "--dmax", "1"], ["verify", "all", "--p", "5", "--dmax", "-1"],
    ["verify", "all", "--p", "4"], ["verify", "all", "--p", "5", "--dmax", "9"],
    ["verify", "dim-sqd", "--n", "4"], ["verify", "dim-sqd", "--n", "31"],
    ["verify", "htoj", "--p", "5", "--lambda", "5,2,1", "--oracle"],
    ["verify", "htoj", "--p", "7", "--lambda", "7"], ["verify", "htoj", "--p", "5", "--rho", "2,1"],
    ["verify", "core-order", "--p", "5"], ["verify", "tree-suite", "--p", "5"],
    ["verify", "nope", "--p", "5"],
    ["verify", "dim-reduced", "--p", "5", "--rho", "2,1", "--dcomp", "0,1,0"],
    ["verify", "dim-reduced", *CORE5, "--dcomp", "0,1,0"],
] + [
    ["verify", name, *args, "--d", d]
    for name in ("block-count", "htog-adjoint", "restrict-recursion", "hyp-nonneg", "phi-kernel",
                 "stembridge-cross")
    for args in (["--p", "5", "--rho", "2,1"], CORE5, ["--p", "4", "--rho", "2,1"])
    for d in ("1", "0")
]


@contextlib.contextmanager
def _planted(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def _fail_quotient(lam, p):
    raise AssertionError(f"planted fault at {lam}")


# (module, name, stand-in, argv): a failed check exits 1, an internal fault 3
PLANTED = [
    (verify, "factorial", lambda n: 7, ["verify", "dim-sqd", "--n", "3"]),
    (abacus, "_quotient", _fail_quotient, ["quotient", "--p", "5", "--lambda", "5,2,1"]),
]

# K-file texts, each read by `--cache k.cache` in an empty directory
CACHES = [
    None,
    "spinblocks-kcache 1\nstrict\t2,1\t1\n",
    "not a cache\n",
    "spinblocks-kcache 1\nstrict\t2,1\n",
    "spinblocks-kcache 1\nstrict\t500\t1\n",
    "spinblocks-kcache 1\nstrict\t2,1\t5\n",
]


def render(x):
    """A result as JSON-ready data: a report as `to_json`, a vector as its
    space and rows, a lattice as its space and edge rows, any other value
    object by its repr."""
    if isinstance(x, CheckReport):
        return x.to_json()
    if isinstance(x, CharVector):
        return {"space": repr(x.space), "basis": x.basis, "rows": x.rows()}
    if isinstance(x, NmvLattice):
        return {"space": repr(x.space), "edge_rows": render(x.edge_rows)}
    if isinstance(x, dict):
        return [[render(k), render(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [render(v) for v in x]
    if isinstance(x, Sqrt2Scalar) or dataclasses.is_dataclass(x):
        return repr(x)
    return x


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


def library_rows(name: str) -> list[str]:
    fn, calls = LIBRARY[name]
    rows = []
    for args in calls:
        try:
            out = ["ok", render(fn(*args))]
        except Exception as exc:  # the corpus pins every outcome, faults included
            out = [type(exc).__name__, str(exc)]
        rows.append(f"{args!r} -> {_dump(out)}")
    return rows


def run_cli(argv: list) -> list:
    """[exit code, stdout, stderr] of one `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def cli_entry(argv: list) -> str:
    """The entry point of an argv list: `cli`, then its command words."""
    while argv[:1] in (["--format"], ["--cache"]):
        argv = argv[2:]
    words = argv[:2] if argv[:1] in (["rouquier"], ["tree"], ["verify"]) else argv[:1]
    return " ".join(["cli", *words])


def cli_rows() -> dict:
    """{entry: rows} over CLI, then the planted and cache rows."""
    rows = {}
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to this width
    try:
        for argv in CLI:
            rows.setdefault(cli_entry(argv), []).append(f"{argv!r} -> {_dump(run_cli(argv))}")
        for module, name, value, argv in PLANTED:
            with _planted(module, name, value):
                rows.setdefault("cli planted", []).append(f"{name} {argv!r} -> {_dump(run_cli(argv))}")
        rows["cli --cache"] = _cache_rows()
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old
    return rows


def _cache_rows() -> list[str]:
    rows, here = [], os.getcwd()
    argv = ["--cache", "k.cache", "core", "--p", "5", "--partition", "5,2,1"]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for text in CACHES:
                if text is not None:
                    with open("k.cache", "w", encoding="utf-8") as fh:
                        fh.write(text)
                rows.append(f"{text!r} -> {_dump(run_cli(argv))}")
            rows.append(f"missing dir -> {_dump(run_cli(['--cache', 'no-such-dir/k.cache', 'core', '--p', '5', '--partition', '1']))}")
        finally:
            os.chdir(here)
    return rows


def all_rows() -> dict:
    """{entry point: its rendered rows}, library entries first."""
    rows = {name: library_rows(name) for name in LIBRARY}
    rows.update(cli_rows())
    return rows


def digest(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus_digests.json")


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
