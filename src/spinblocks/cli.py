"""Command-line surface: every library operation behind one subcommand,
deterministic JSON (default) or CSV on stdout.

Exit codes: 0 success or all checks passed, 1 at least one check failed,
2 usage or domain error.  Output is byte-deterministic unless --timing is
requested.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import trees
from .abacus import block_enum, core_weight, ell, neighbors, quotient
from .chars import SIGN_SUFFIX, CharSpace, CharVector, m_action, orbit_sum
from .exceptions import DomainError, ShapeError, SpaceMismatch
from .partitions import PATH_COUNT_MEMO, enumerate_partitions, validate
from .rouquier import generate, is_rouquier, strip_classify
from .stembridge import f_coeff, induce, rock_branch
from .verify import (
    CHECKS,
    _jsonable,
    check_htoj,
    compositions,
    hyp_coeffs,
    nmv_basis,
    phi,
    run_check,
)

CACHE_HEADER = "spinblocks-kcache 1"


def parse_partition(text: str) -> tuple:
    if text in ("", "-"):
        return ()
    return tuple(int(x) for x in text.split(","))


def parse_comp(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def vector_payload(v: CharVector) -> list:
    return sorted(v.rows(), key=lambda r: r["label"])


def load_cache(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return
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
        if count < 1:
            raise DomainError(f"{path} line {number}: count must be positive: {line!r}")
        entries[key] = count
    PATH_COUNT_MEMO.update(entries)


def save_cache(path: str):
    rows = sorted(
        (kind, ",".join(map(str, lam)), str(v))
        for (kind, lam), v in PATH_COUNT_MEMO.items()
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CACHE_HEADER + "\n")
        for kind, parts, value in rows:
            fh.write(f"{kind}\t{parts}\t{value}\n")


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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="spinblocks", description=__doc__)
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--cache", help="path of the on-disk tableau-count cache")
    top.add_argument("--timing", action="store_true", help="include elapsed time")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        return sp

    sp = add("enumerate")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kind", choices=("ordinary", "strict"), required=True)

    sp = add("core")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--partition", required=True)

    sp = add("quotient")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True)

    sp = add("neighbors")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--dir", choices=("add", "remove"), required=True)

    sp = add("block")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--rho", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--dcomp")

    sp = add("rouquier")
    rsub = sp.add_subparsers(dest="action", required=True)
    rc = rsub.add_parser("check")
    rc.add_argument("--p", type=int, required=True)
    rc.add_argument("--rho", required=True)
    rc.add_argument("--d", type=int, required=True)
    rg = rsub.add_parser("gen")
    rg.add_argument("--p", type=int, required=True)
    rg.add_argument("--d", type=int, required=True)
    rg.add_argument("--parity", choices=("even", "odd"), required=True)
    rg.add_argument("--count", type=int, default=1)

    sp = add("strip")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--mu", required=True)

    sp = add("fcoeff")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--mu", required=True)
    sp.add_argument("--nu", required=True)

    sp = add("induce")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--nu", required=True)

    sp = add("branch")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--dir", choices=("induce", "restrict"), required=True)
    sp.add_argument("--mu")
    sp.add_argument("--lambda", dest="lam")
    sp.add_argument("--rho")
    sp.add_argument("--j", type=int)

    sp = add("maction")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--rho", required=True)
    sp.add_argument("--mu")
    sp.add_argument("--j", type=int, required=True)

    sp = add("orbit")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--rho", required=True)
    sp.add_argument("--dcomp", required=True)

    sp = add("hyp")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--rho", required=True)
    sp.add_argument("--dcomp", required=True)

    sp = add("nmv")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--rho", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--space", choices=("L", "H"), default="L")

    sp = add("phi")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--rho", required=True)
    sp.add_argument("--tuple", dest="runner_tuple", required=True)
    sp.add_argument("--sign", choices=("+", "-", "0"), default="0")

    sp = add("verify")
    sp.add_argument("name", help="check name or 'all'")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--rho")
    sp.add_argument("--d", type=int)
    sp.add_argument("--dcomp")
    sp.add_argument("--lambda", dest="lam")
    sp.add_argument("--dmax", type=int, default=2)
    sp.add_argument("--oracle", action="store_true", help="cross-check lattice membership")

    sp = add("tree")
    tsub = sp.add_subparsers(dest="action", required=True)
    tb = tsub.add_parser("build")
    tb.add_argument("--kind", choices=("A", "B"), required=True)
    tb.add_argument("--ell", type=int, required=True)
    tw = tsub.add_parser("walk")
    tw.add_argument("--kind", choices=("A", "B"), required=True)
    tw.add_argument("--ell", type=int, required=True)
    th = tsub.add_parser("heller")
    th.add_argument("--kind", choices=("A", "B"), required=True)
    th.add_argument("--ell", type=int, required=True)
    th.add_argument("--start", required=True, help="node name or walk index")
    th.add_argument("--n", type=int, required=True)
    t1 = tsub.add_parser("weight1")
    t1.add_argument("--p", type=int, required=True)
    t1.add_argument("--rho", required=True)
    return top


def run_command(args) -> tuple[dict, int]:
    """Returns (outputs or verdict payload, exit code)."""
    cmd = args.command
    if cmd == "enumerate":
        parts = enumerate_partitions(args.n, args.kind)
        return {"partitions": [list(x) for x in parts], "count": len(parts)}, 0
    if cmd == "core":
        core, wt = core_weight(parse_partition(args.partition), args.p)
        return {"core": list(core), "weight": wt}, 0
    if cmd == "quotient":
        q = quotient(parse_partition(args.lam), args.p)
        return {"q0": list(q.q0), "components": [list(c) for c in q.qs]}, 0
    if cmd == "neighbors":
        out = neighbors(parse_partition(args.lam), args.p, args.j, args.dir)
        return {"partitions": [list(x) for x in out]}, 0
    if cmd == "block":
        dcomp = parse_comp(args.dcomp) if args.dcomp else None
        out = block_enum(parse_partition(args.rho), args.p, args.d, dcomp)
        return {"partitions": [list(x) for x in out], "count": len(out)}, 0
    if cmd == "rouquier":
        if args.action == "check":
            ok = is_rouquier(parse_partition(args.rho), args.p, args.d)
            return {"rouquier": ok}, 0
        cores = generate(args.p, args.d, args.parity, args.count)
        return {"cores": [list(x) for x in cores]}, 0
    if cmd == "strip":
        cert = strip_classify(parse_partition(args.lam), parse_partition(args.mu), args.p)
        return {"runner": cert.runner, "boxes": [list(b) for b in cert.boxes]}, 0
    if cmd == "fcoeff":
        value = f_coeff(
            parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu)
        )
        return {"f": value}, 0
    if cmd == "induce":
        v = induce(parse_partition(args.mu), parse_partition(args.nu))
        return {"vector": vector_payload(v)}, 0
    if cmd == "branch":
        if args.dir == "induce":
            mu = parse_partition(args.mu if args.mu is not None else args.rho)
            if args.j is None:
                raise DomainError("branch --dir induce needs --j")
            v = rock_branch(mu, args.p, args.j, "induce")
        else:
            if args.lam is None:
                raise DomainError("branch --dir restrict needs --lambda")
            v = rock_branch(parse_partition(args.lam), args.p, direction="restrict")
        return {"vector": vector_payload(v)}, 0
    if cmd == "maction":
        rho = parse_partition(args.rho)
        if args.mu is not None:
            mu = parse_partition(args.mu)
            _, wt = core_weight(mu, args.p)
            space = CharSpace.h_space(rho, args.p, wt + 1)
            label = space.validate_label((mu, args.j))
        else:
            space = CharSpace.l_space(rho, args.p, 1)
            label = space.validate_label((args.j,))
        v = CharVector.unit(space, label)
        return {"vector": vector_payload(m_action(v))}, 0
    if cmd == "orbit":
        v, certificate = orbit_sum(parse_partition(args.rho), args.p, parse_comp(args.dcomp))
        return {"vector": vector_payload(v), "certificate": certificate}, 0
    if cmd == "hyp":
        v = hyp_coeffs(parse_partition(args.rho), args.p, parse_comp(args.dcomp))
        return {"vector": vector_payload(v)}, 0
    if cmd == "nmv":
        rho = parse_partition(args.rho)
        space = (
            CharSpace.l_space(rho, args.p, args.d)
            if args.space == "L"
            else CharSpace.h_space(rho, args.p, args.d)
        )
        lattice = nmv_basis(space)
        return {"generators": [vector_payload(g) for g in lattice.generators]}, 0
    if cmd == "phi":
        rho = parse_partition(args.rho)
        t = parse_comp(args.runner_tuple)
        space = CharSpace.l_space(rho, args.p, len(t))
        sign = {"+": 1, "-": -1, "0": 0}[args.sign]
        if sign == 0:
            v = CharVector.unit(space, t).refine()
        else:
            if not space.is_odd(t):
                raise DomainError(f"{t} labels an even character; drop --sign")
            v = CharVector.make(space, {(t, sign): 1}, "refined")
        value = phi(v)
        return {"value": {"a": value.a, "b": value.b}}, 0
    if cmd == "tree":
        if args.action == "build":
            t = trees.build(args.kind, args.ell)
            return {"path": list(t.path), "exceptional": [n for n in t.path if t.multiplicity(n) > 1]}, 0
        if args.action == "walk":
            w = trees.walk(trees.build(args.kind, args.ell))
            return {"nodes": list(w.nodes), "characters": [list(c) for c in w.characters()]}, 0
        if args.action == "heller":
            t = trees.build(args.kind, args.ell)
            if args.start in t.path:
                start = args.start
            elif args.start.isdigit():
                start = int(args.start)
            else:
                raise DomainError(f"{args.start!r} is neither a node nor a walk index")
            out = trees.heller(t, start, args.n)
            return {"constituents": [list(c) for c in out]}, 0
        wt = trees.weight_one_map(parse_partition(args.rho), args.p)
        nodes = {
            node: [",".join(map(str, lam)) + SIGN_SUFFIX[s] for lam, s in chars]
            for node, chars in wt.node_chars
        }
        return {"kind": wt.tree.kind, "nodes": nodes}, 0
    if cmd == "verify":
        return run_verify(args)
    raise DomainError(f"unhandled command {cmd}")


def run_verify(args) -> tuple[dict, int]:
    if args.name == "all":
        if args.p is None:
            raise DomainError("verify all needs --p")
        return verify_all(args.p, args.dmax, oracle=args.oracle)
    if args.name not in CHECKS:
        raise DomainError(f"unknown check {args.name!r}; have {sorted(CHECKS)} or 'all'")
    params = {}
    if args.name == "dim-sqd":
        if args.n is None:
            raise DomainError("dim-sqd needs --n")
        params["n"] = args.n
    else:
        if args.p is None:
            raise DomainError(f"{args.name} needs --p")
        params["p"] = args.p
        if args.name == "htoj":
            if args.lam is None:
                raise DomainError("htoj needs --lambda")
            params["lam"] = parse_partition(args.lam)
            params["oracle"] = args.oracle
        elif args.name in ("core-order", "tree-suite"):
            pass
        else:
            if args.rho is None:
                raise DomainError(f"{args.name} needs --rho")
            params["rho"] = parse_partition(args.rho)
            if args.name == "dim-reduced":
                if args.dcomp is None:
                    raise DomainError("dim-reduced needs --dcomp")
                params["dcomp"] = parse_comp(args.dcomp)
            else:
                if args.d is None:
                    raise DomainError(f"{args.name} needs --d")
                params["d"] = args.d
    report = run_check(args.name, **params)
    payload = report.to_json()
    return payload, 0 if report.passed else 1


def verify_all(p: int, dmax: int, oracle: bool = False) -> tuple[dict, int]:
    """Aggregate suite over the first generated core of each parity."""
    verdicts = {}
    failures = []

    def record(report):
        key = report.name + " " + json.dumps(_jsonable(report.params), sort_keys=True)
        verdicts[key] = "pass" if report.passed else "fail"
        if not report.passed:
            failures.append(report.to_json())

    for n in range(0, 9):
        record(run_check("dim-sqd", n=n))
    record(run_check("core-order", p=p))
    record(run_check("tree-suite", p=p))
    for parity in ("even", "odd"):
        for d in range(1, dmax + 1):
            rho = generate(p, d, parity, 1)[0]
            record(run_check("block-count", rho=rho, p=p, d=d))
            record(run_check("htog-adjoint", rho=rho, p=p, d=d))
            record(run_check("restrict-recursion", rho=rho, p=p, d=d))
            record(run_check("hyp-nonneg", rho=rho, p=p, d=d))
            record(run_check("phi-kernel", rho=rho, p=p, d=d))
            record(run_check("stembridge-cross", rho=rho, p=p, d=d))
            for dcomp in compositions(d, ell(p) + 1):
                record(run_check("dim-reduced", rho=rho, p=p, dcomp=dcomp))
            lattice = nmv_basis(CharSpace.h_space(rho, p, d))
            for lam in block_enum(rho, p, d):
                record(check_htoj(lam, p, lattice=lattice, oracle=oracle))
    passed = not failures
    payload = {
        "verdicts": verdicts,
        "failures": failures,
        "summary": {"total": len(verdicts), "failed": len(failures)},
    }
    return payload, 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    inputs = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "format", "cache", "timing") and v is not None
    }
    try:
        if args.cache:
            load_cache(args.cache)
        outputs, code = run_command(args)
    except (DomainError, ShapeError, SpaceMismatch, ValueError, IndexError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.cache:
        save_cache(args.cache)
    report = {"command": args.command, "inputs": _jsonable(inputs), "outputs": outputs}
    if "verdicts" in outputs:
        report["verdicts"] = outputs["verdicts"]
    elif args.command == "verify":
        report["verdicts"] = {outputs["check"]: outputs["verdict"]}
    if args.timing:
        report["timing"] = {"seconds": round(time.monotonic() - started, 6)}
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
