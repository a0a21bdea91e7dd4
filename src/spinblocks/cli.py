"""Command-line surface: every library operation behind one subcommand,
deterministic JSON (default) or CSV on stdout.

Exit codes: 0 success or all checks passed, 1 at least one check failed,
2 bad input (a usage, domain or file error), 3 internal error (any other
exception, such as a failed consistency assertion; no report is printed).
Output is byte-deterministic unless --timing is requested.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import trees
from .abacus import _block, block_enum, core_weight, ell, neighbors, quotient
from .chars import SIGN_SUFFIX, CharSpace, CharVector, _check_l_labels, m_action, orbit_sum
from .exceptions import DomainError
from .partitions import PATH_COUNT_MEMO, STRICT, _hook_formula, enumerate_partitions, validate
from .rouquier import generate, is_rouquier, strip_classify
from .stembridge import f_coeff, induce, rock_branch
from .verify import Weight, check_htoj, compositions, hyp_coeffs, nmv_basis, phi, run_check

CACHE_HEADER = "spinblocks-kcache 1"
# path_count recurses through two frames per box, so under Python's default
# recursion limit no command counts a shape of 500 boxes from an empty memo;
# a larger record is rejected before its closed form, which grows with |lam|
# (seconds at 500 boxes of one column, far longer for a corrupt 10^8).
CACHE_MAX_SIZE = 500
# The last text at each path that passed every check or that save_cache wrote,
# with its entries: a process re-checks a K-file only when its bytes change.
# Compared in full, so no edit can hide behind an unchanged size or mtime.
CACHE_FILE_MEMO: dict = {}


def parse_partition(text: str) -> tuple:
    if text in ("", "-"):
        return ()
    return tuple(int(x) for x in text.split(","))


def parse_comp(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def vector_payload(v: CharVector) -> list:
    return sorted(v.rows(), key=lambda r: r["label"])


def load_cache(path: str) -> set | None:
    """Check and load every record, unless this process checked or wrote these
    exact bytes at this path; returns their keys, None if no file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        if os.path.isdir(os.path.dirname(path) or "."):
            return  # a new cache; save_cache can write it
        raise
    checked_text, entries = CACHE_FILE_MEMO.get(path, (None, None))
    if text != checked_text:
        entries = _check_cache(path, text)
        CACHE_FILE_MEMO[path] = text, entries
    PATH_COUNT_MEMO.update(entries)
    return set(entries)


def _check_cache(path: str, text: str) -> dict:
    """Every record of a K-file's text, each checked against its closed form."""
    lines = text.splitlines()
    if not lines or lines[0] != CACHE_HEADER:
        raise DomainError(f"{path} is not a spinblocks K-cache")
    entries = {}
    for number, line in enumerate(lines[1:], 2):
        try:
            kind, parts, value = line.split("\t")
            key = (kind, validate(parts.split(",") if parts else (), kind))
            count = int(value)
        except ValueError as exc:
            raise DomainError(f"{path} line {number}: bad record {line!r}: {exc}") from None
        if sum(key[1]) >= CACHE_MAX_SIZE:
            raise DomainError(f"{path} line {number}: shape too large: {line!r}")
        if count != _hook_formula(key[1], kind == STRICT):
            raise DomainError(f"{path} line {number}: wrong count for {kind} {parts}: {line!r}")
        entries[key] = count
    return entries


def save_cache(path: str, loaded: set | None):
    """Write the memo, unless it holds no key beyond those `loaded` from the file."""
    if loaded is not None and PATH_COUNT_MEMO.keys() <= loaded:
        return
    entries = dict(PATH_COUNT_MEMO)
    rows = sorted((kind, ",".join(map(str, lam)), str(v)) for (kind, lam), v in entries.items())
    text = CACHE_HEADER + "\n" + "".join("\t".join(row) + "\n" for row in rows)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    CACHE_FILE_MEMO[path] = text, entries


def emit(report: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    outputs = report.get("outputs")
    if isinstance(outputs, dict) and isinstance(outputs.get("vector"), list):
        writer.writerow(["label", "a", "b"])
        for row in outputs["vector"]:
            writer.writerow([row["label"], row["a"], row["b"]])
    elif "verdicts" in report:
        writer.writerow(["check", "verdict"])
        for name, verdict in sorted(report["verdicts"].items()):
            writer.writerow([name, verdict])
    else:
        writer.writerow(["key", "value"])
        for key, value in sorted(report.get("outputs", {}).items()):
            writer.writerow([key, json.dumps(value, sort_keys=True)])
    sys.stdout.write(buf.getvalue())


class _SubcommandParser(argparse.ArgumentParser):
    """Refuses what it leaves unread under its own usage line, not the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="spinblocks", description=__doc__)
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--cache", help="path of the on-disk tableau-count cache")
    top.add_argument("--timing", action="store_true", help="include elapsed time")
    # nested subparsers take the class of their parent parser
    sub = top.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    # one parent parser per required flag that several subcommands share, and
    # the two optional flags every `verify` target takes
    p, rho, lam, mu, nu, d, dcomp, n, tree, checks = (
        argparse.ArgumentParser(add_help=False) for _ in range(10)
    )
    p.add_argument("--p", type=int, required=True)
    rho.add_argument("--rho", required=True)
    lam.add_argument("--lambda", dest="lam", required=True)
    mu.add_argument("--mu", required=True)
    nu.add_argument("--nu", required=True)
    d.add_argument("--d", type=int, required=True)
    dcomp.add_argument("--dcomp", required=True)
    n.add_argument("--n", type=int, required=True)
    tree.add_argument("--kind", choices=("A", "B"), required=True)
    tree.add_argument("--ell", type=int, required=True)
    checks.add_argument("--dmax", type=int, default=2)
    checks.add_argument("--oracle", action="store_true", help="cross-check lattice membership")

    add = sub.add_parser
    sp = add("enumerate", parents=[n])
    sp.add_argument("--kind", choices=("ordinary", "strict"), required=True)

    sp = add("core", parents=[p])
    sp.add_argument("--partition", required=True)

    add("quotient", parents=[p, lam])

    sp = add("neighbors", parents=[p, lam])
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--dir", choices=("add", "remove"), required=True)

    sp = add("block", parents=[p, rho, d])
    sp.add_argument("--dcomp")

    rsub = add("rouquier").add_subparsers(dest="action", required=True)
    rsub.add_parser("check", parents=[p, rho, d])
    rg = rsub.add_parser("gen", parents=[p, d])
    rg.add_argument("--parity", choices=("even", "odd"), required=True)
    rg.add_argument("--count", type=int, default=1)

    add("strip", parents=[p, lam, mu])
    add("fcoeff", parents=[lam, mu, nu])
    add("induce", parents=[mu, nu])

    sp = add("branch", parents=[p])
    sp.add_argument("--dir", choices=("induce", "restrict"), required=True)
    sp.add_argument("--mu")
    sp.add_argument("--lambda", dest="lam")
    sp.add_argument("--rho")
    sp.add_argument("--j", type=int)

    sp = add("maction", parents=[p, rho])
    sp.add_argument("--mu")
    sp.add_argument("--j", type=int, required=True)

    add("orbit", parents=[p, rho, dcomp])
    add("hyp", parents=[p, rho, dcomp])

    sp = add("nmv", parents=[p, rho, d])
    sp.add_argument("--space", choices=("L", "H"), default="L")

    sp = add("phi", parents=[p, rho])
    sp.add_argument("--tuple", dest="runner_tuple", required=True)
    sp.add_argument("--sign", choices=("+", "-", "0"), default="0")

    vsub = add("verify").add_subparsers(dest="name", required=True)
    targets = {
        "all": [p], "dim-sqd": [n], "dim-reduced": [p, rho, dcomp], "block-count": [p, rho, d],
        "htog-adjoint": [p, rho, d], "htoj": [p, lam], "restrict-recursion": [p, rho, d],
        "hyp-nonneg": [p, rho, d], "phi-kernel": [p, rho, d], "core-order": [p],
        "stembridge-cross": [p, rho, d], "tree-suite": [p],
    }
    for name, parents in targets.items():
        vsub.add_parser(name, parents=[*parents, checks])

    tsub = add("tree").add_subparsers(dest="action", required=True)
    tsub.add_parser("build", parents=[tree])
    tsub.add_parser("walk", parents=[tree])
    th = tsub.add_parser("heller", parents=[tree])
    th.add_argument("--start", required=True, help="node name or walk index")
    th.add_argument("--n", type=int, required=True)
    tsub.add_parser("weight1", parents=[p, rho])
    return top


def run_command(args) -> dict:
    """The command's outputs, or the verdict payload of `verify`."""
    cmd = args.command
    if cmd == "enumerate":
        parts = enumerate_partitions(args.n, args.kind)
        return {"partitions": [list(x) for x in parts], "count": len(parts)}
    if cmd == "core":
        core, wt = core_weight(parse_partition(args.partition), args.p)
        return {"core": list(core), "weight": wt}
    if cmd == "quotient":
        q = quotient(parse_partition(args.lam), args.p)
        return {"q0": q.q0, "components": q.qs}
    if cmd == "neighbors":
        out = neighbors(parse_partition(args.lam), args.p, args.j, args.dir)
        return {"partitions": [list(x) for x in out]}
    if cmd == "block":
        dcomp = parse_comp(args.dcomp) if args.dcomp else None
        out = block_enum(parse_partition(args.rho), args.p, args.d, dcomp)
        return {"partitions": [list(x) for x in out], "count": len(out)}
    if cmd == "rouquier":
        if args.action == "check":
            ok = is_rouquier(parse_partition(args.rho), args.p, args.d)
            return {"rouquier": ok}
        cores = generate(args.p, args.d, args.parity, args.count)
        return {"cores": [list(x) for x in cores]}
    if cmd == "strip":
        cert = strip_classify(parse_partition(args.lam), parse_partition(args.mu), args.p)
        return {"runner": cert.runner, "boxes": [list(b) for b in cert.boxes]}
    if cmd == "fcoeff":
        value = f_coeff(
            parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu)
        )
        return {"f": value}
    if cmd == "induce":
        v = induce(parse_partition(args.mu), parse_partition(args.nu))
        return {"vector": vector_payload(v)}
    if cmd == "branch":  # induce reads --mu (or its alias --rho) and --j, restrict --lambda
        given = {"--mu": args.mu, "--rho": args.rho, "--j": args.j, "--lambda": args.lam}
        mu = "--rho" if args.mu is None and args.rho is not None else "--mu"
        reads = (mu, "--j") if args.dir == "induce" else ("--lambda",)
        for flag in reads:
            if given[flag] is None:
                raise DomainError(f"branch --dir {args.dir} needs {flag}")
        if stray := [flag for flag, v in given.items() if v is not None and flag not in reads]:
            raise DomainError(f"branch --dir {args.dir} does not read {' '.join(stray)}")
        if args.dir == "induce":
            v = rock_branch(parse_partition(given[mu]), args.p, args.j, "induce")
        else:
            v = rock_branch(parse_partition(args.lam), args.p, direction="restrict")
        return {"vector": vector_payload(v)}
    if cmd == "maction":
        rho = parse_partition(args.rho)
        if args.mu is not None:
            mu = parse_partition(args.mu)
            _, wt = core_weight(mu, args.p)
            space = CharSpace.h_space(rho, args.p, wt + 1)
            label = space._h_label(mu, args.j)
        else:
            space = CharSpace.l_space(rho, args.p, 1)
            label = space.validate_label((args.j,))
        v = CharVector.unit(space, label)
        return {"vector": vector_payload(m_action(v))}
    if cmd == "orbit":
        v, certificate = orbit_sum(parse_partition(args.rho), args.p, parse_comp(args.dcomp))
        return {"vector": vector_payload(v), "certificate": certificate}
    if cmd == "hyp":
        v = hyp_coeffs(parse_partition(args.rho), args.p, parse_comp(args.dcomp))
        return {"vector": vector_payload(v)}
    if cmd == "nmv":
        rho = parse_partition(args.rho)
        space = (CharSpace.l_space if args.space == "L" else CharSpace.h_space)(rho, args.p, args.d)
        lattice = nmv_basis(space)
        return {"generators": [vector_payload(g) for g in lattice.generators]}
    if cmd == "phi":
        rho = parse_partition(args.rho)
        t = parse_comp(args.runner_tuple)
        space = CharSpace.l_space(rho, args.p, len(t))
        t = space.validate_label(t)
        sign = {"+": 1, "-": -1, "0": 0}[args.sign]
        if sign and not space.is_odd(t):
            raise DomainError(f"{t} labels an even character; drop --sign")
        unit = CharVector.make(space, {(t, sign): 1}, "refined") if sign else CharVector.unit(space, t)
        value = phi(unit)
        return {"value": {"a": value.a, "b": value.b}}
    if cmd == "tree":
        if args.action == "build":
            t = trees.build(args.kind, args.ell)
            return {"path": list(t.path), "exceptional": [n for n in t.path if t.multiplicity(n) > 1]}
        if args.action == "walk":
            w = trees.walk(trees.build(args.kind, args.ell))
            return {"nodes": list(w.nodes), "characters": [list(c) for c in w.characters()]}
        if args.action == "heller":
            t = trees.build(args.kind, args.ell)
            if args.start in t.path:
                start = args.start
            elif args.start.isdigit():
                start = int(args.start)
            else:
                raise DomainError(f"{args.start!r} is neither a node nor a walk index")
            out = trees.heller(t, start, args.n)
            return {"constituents": [list(c) for c in out]}
        wt = trees.weight_one_map(parse_partition(args.rho), args.p)
        nodes = {
            node: [",".join(map(str, lam)) + SIGN_SUFFIX[s] for lam, s in chars]
            for node, chars in wt.node_chars
        }
        return {"kind": wt.tree.kind, "nodes": nodes}
    if cmd == "verify":
        return run_verify(args)
    raise DomainError(f"unhandled command {cmd}")


TOP_FLAGS = ("command", "format", "cache", "timing")  # what no report lists among its inputs


def run_verify(args) -> dict:
    """`verify all`, or the named check on the flags its target reads: the
    parser gave each target exactly its own, each named as the check's
    keyword argument."""
    if args.name == "all":
        return verify_all(args.p, args.dmax, oracle=args.oracle)
    params = {k: v for k, v in vars(args).items() if k not in (*TOP_FLAGS, "name", "dmax", "oracle")}
    for key, parse in (("rho", parse_partition), ("lam", parse_partition), ("dcomp", parse_comp)):
        if key in params:
            params[key] = parse(params[key])
    if args.name == "htoj":
        params["oracle"] = args.oracle
    return run_check(args.name, **params).to_json()


def verify_all(p: int, dmax: int, oracle: bool = False) -> dict:
    """Aggregate suite over the first generated core of each parity.  Its
    tree-suite and phi-kernel count the L spaces of weights 1 to dmax, so that
    budget is checked for max(dmax, 1) before any check runs.  The checks of
    one weight share its `Weight`, released when they are done."""
    if dmax < 0:
        raise DomainError(f"dmax must be at least 0: {dmax}")
    _check_l_labels(p, max(dmax, 1))  # checks p first
    verdicts = {}
    failures = []

    def record(report):
        key = report.name + " " + json.dumps(report.params, sort_keys=True)
        verdicts[key] = "pass" if report.passed else "fail"
        if not report.passed:
            failures.append(report.to_json())

    try:
        for n in range(0, 9):
            record(run_check("dim-sqd", n=n))
        record(run_check("core-order", p=p))
        record(run_check("tree-suite", p=p))
        for parity in ("even", "odd"):
            for d in range(1, dmax + 1):
                rho = generate(p, d, parity, 1)[0]
                with Weight(rho, p, d):
                    for name in ("block-count", "htog-adjoint", "restrict-recursion",
                                 "hyp-nonneg", "phi-kernel", "stembridge-cross"):
                        record(run_check(name, rho=rho, p=p, d=d))
                    for dcomp in compositions(d, ell(p) + 1):
                        record(run_check("dim-reduced", rho=rho, p=p, dcomp=dcomp))
                    for lam in _block(rho, p, d):
                        record(check_htoj(lam, p, oracle=oracle))
    except ValueError as exc:  # every label past the budget check is the library's own
        raise RuntimeError(exc) from exc
    return {
        "verdicts": verdicts,
        "failures": failures,
        "summary": {"total": len(verdicts), "failed": len(failures)},
    }


PARSER = build_parser()  # built once; parse_args keeps no state between calls


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    started = time.monotonic()
    inputs = {k: v for k, v in vars(args).items() if k not in TOP_FLAGS and v is not None}
    try:
        loaded = load_cache(args.cache) if args.cache else None
        outputs = run_command(args)
        if args.cache:
            save_cache(args.cache, loaded)
    except (ValueError, OSError) as exc:  # DomainError, ShapeError, SpaceMismatch among them
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    report = {"command": args.command, "inputs": inputs, "outputs": outputs}
    if "verdicts" in outputs:
        report["verdicts"] = outputs["verdicts"]
    elif args.command == "verify":
        report["verdicts"] = {outputs["check"]: outputs["verdict"]}
    if args.timing:
        report["timing"] = {"seconds": round(time.monotonic() - started, 6)}
    emit(report, args.format)
    return 1 if "fail" in report.get("verdicts", {}).values() else 0


if __name__ == "__main__":
    sys.exit(main())
