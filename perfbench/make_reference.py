"""Record ``reference.json``: the input universes of the seeded workloads and
the digest of every operation's canonical output.

Run from the repository root, only when the program's output is meant to
change (the benchmark then reports every changed operation as failed):

    PYTHONPATH=src python3 perfbench/make_reference.py

It takes about ten minutes, most of it counting the work of every input
under ``sys.settrace``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    REFERENCE,
    SWEEP_ARGV,
    digest,
    reset_memos,
    run_query,
    run_sweep,
    vector_text,
)

from spinblocks.abacus import block_enum, ell, neighbors  # noqa: E402
from spinblocks.chars import CharSpace  # noqa: E402
from spinblocks.partitions import STRICT, enumerate_partitions  # noqa: E402
from spinblocks.rouquier import generate  # noqa: E402
from spinblocks.stembridge import induce  # noqa: E402
from spinblocks.verify import compositions  # noqa: E402

INDUCE_TOTAL = 20
SESSION_PRIMES = (5, 7)
SESSION_WEIGHTS = (1, 2, 3)
DIM_SQD_MAX = 12


def fmt(parts) -> str:
    return ",".join(map(str, parts)) if parts else "-"


def sweeps() -> dict:
    out = {}
    for name, sizes in SWEEP_ARGV.items():
        out[name] = {}
        for size, argv in sizes.items():
            reset_memos()
            code, text, checks = run_sweep(argv, contextlib.nullcontext)
            if code != 0:
                raise SystemExit(f"{name} {size}: exit {code}")
            out[name][size] = {
                "report": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "checks": [digest(c) for c in checks],
            }
    return out


def lines_run(func, *args):
    """(result, Python lines executed) of func(*args) from cold memos: the
    work of one input, which does not depend on the machine."""
    lines = [0]

    def local(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return local

    reset_memos()
    sys.settrace(lambda frame, event, arg: local)
    try:
        result = func(*args)
    finally:
        sys.settrace(None)
    return result, lines[0]


def induce_pairs() -> list:
    """Every pair of strict partitions with |mu| + |nu| = INDUCE_TOTAL, with
    its work and its digest."""
    rows = []
    for a in range(INDUCE_TOTAL + 1):
        for mu in enumerate_partitions(a, STRICT):
            for nu in enumerate_partitions(INDUCE_TOTAL - a, STRICT):
                v, work = lines_run(induce, mu, nu)
                rows.append([list(mu), list(nu), work, digest(vector_text(v))])
    return rows


def session_queries() -> dict:
    """Single queries over the blocks p in SESSION_PRIMES, d in
    SESSION_WEIGHTS, both core parities, grouped by kind, each with its work
    (cold memos, no cache file) and its digest."""
    kinds = {k: [] for k in (
        "core", "quotient", "branch-induce", "branch-restrict", "hyp", "phi",
        "fcoeff", "htoj", "dim-sqd",
    )}
    for p in SESSION_PRIMES:
        L = ell(p)
        bars = enumerate_partitions(p, STRICT)
        for parity in ("even", "odd"):
            for d in SESSION_WEIGHTS:
                rho = generate(p, d, parity, 1)[0]
                P, R = str(p), fmt(rho)
                for lam in block_enum(rho, p, d):
                    kinds["core"].append(["core", "--p", P, "--partition", fmt(lam)])
                    kinds["quotient"].append(["quotient", "--p", P, "--lambda", fmt(lam)])
                    kinds["branch-restrict"].append(
                        ["branch", "--p", P, "--dir", "restrict", "--lambda", fmt(lam)]
                    )
                    kinds["htoj"].append(["verify", "htoj", "--p", P, "--lambda", fmt(lam)])
                    for j in range(L + 1):
                        for mu in neighbors(lam, p, j, "remove"):
                            for nu in bars:
                                kinds["fcoeff"].append(
                                    ["fcoeff", "--lambda", fmt(lam), "--mu", fmt(mu), "--nu", fmt(nu)]
                                )
                for mu in block_enum(rho, p, d - 1):
                    for j in range(L + 1):
                        kinds["branch-induce"].append(
                            ["branch", "--p", P, "--dir", "induce", "--mu", fmt(mu), "--j", str(j)]
                        )
                for dcomp in compositions(d, L + 1):
                    kinds["hyp"].append(["hyp", "--p", P, "--rho", R, "--dcomp", fmt(dcomp)])
                space = CharSpace.l_space(rho, p, d)
                for t in space.labels():
                    signs = ("0", "+", "-") if space.is_odd(t) else ("0",)
                    for sign in signs:
                        kinds["phi"].append(
                            ["phi", "--p", P, "--rho", R, "--tuple", fmt(t), "--sign", sign]
                        )
    for n in range(DIM_SQD_MAX + 1):
        kinds["dim-sqd"].append(["verify", "dim-sqd", "--n", str(n)])

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "kcache.tsv")
        for kind, queries in kinds.items():
            out[kind] = []
            for argv in queries:
                if os.path.exists(cache):
                    os.remove(cache)
                text, work = lines_run(run_query, argv, cache, contextlib.nullcontext)
                if not text.startswith("exit 0\n"):
                    raise SystemExit(f"query {argv} failed: {text}")
                out[kind].append([argv, work, digest(text)])
    return out


def main():
    reference = sweeps()
    reference["induce-grid"] = {"total": INDUCE_TOTAL, "pairs": induce_pairs()}
    reference["cli-session"] = {"queries": session_queries()}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    sizes = {k: len(v) for k, v in reference["cli-session"]["queries"].items()}
    print(f"wrote {REFERENCE}: {len(reference['induce-grid']['pairs'])} pairs, queries {sizes}")


if __name__ == "__main__":
    main()
