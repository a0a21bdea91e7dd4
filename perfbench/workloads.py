"""The four benchmark workloads: their inputs, one pass of operations, and
the canonical output of each operation.

A pass is a fixed list of operations that starts from cold memos, so every
pass of a run does the same work and passes can be compared position by
position.  Each operation yields one canonical output string; its digest is
checked against ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

NAMES = ("verify-sweep", "oracle-sweep", "induce-grid", "cli-session")

# The sweeps are the CLI's fixed grids; the seed does not change them.
SWEEP_ARGV = {
    "verify-sweep": {
        "full": ["verify", "all", "--p", "7", "--dmax", "4"],
        "tiny": ["verify", "all", "--p", "5", "--dmax", "2"],
    },
    "oracle-sweep": {
        "full": ["verify", "all", "--p", "7", "--dmax", "3", "--oracle"],
        "tiny": ["verify", "all", "--p", "5", "--dmax", "1", "--oracle"],
    },
}
INDUCE_PAIRS = {"full": 100, "tiny": 4}
QUERIES_PER_KIND = {"full": 37, "tiny": 2}


def digest(text: str) -> str:
    """First 16 hex digits of the sha256 of the text's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reset_memos():
    """Empty every memo of the library so the next pass starts cold: each
    functools cache in a spinblocks module and each module-level dict whose
    name ends in MEMO."""
    import sys

    for name, module in list(sys.modules.items()):
        if not name.startswith("spinblocks") or module is None:
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                value.cache_clear()
            elif attr.endswith("MEMO") and isinstance(value, dict):
                value.clear()


# ---------------------------------------------------------------------------
# inputs


def stratified(rows: list, count: int, rng: random.Random) -> list:
    """One row from each of `count` strata of `rows`, in a seeded order.

    Rows carry their work (Python lines executed from cold memos, recorded
    with the reference; it does not depend on the machine) in position -2.
    Sorted by work, the rows are cut into `count` runs of consecutive rows
    and the draw takes one row of each run.  So every seed gets the same
    spread of cheap and costly inputs: a plain random draw of 100 induction
    pairs varies by about 14% in total cost from seed to seed.
    """
    ranked = sorted(rows, key=lambda row: (row[-2], canonical(row)))
    n = len(ranked)
    drawn = []
    for i in range(count):
        lo = i * n // count
        drawn.append(rng.choice(ranked[lo:max((i + 1) * n // count, lo + 1)]))
    rng.shuffle(drawn)
    return drawn


def draw_induce_pairs(pairs: list, seed: int, count: int) -> list:
    return stratified(pairs, count, random.Random(seed))


def draw_queries(queries: dict, seed: int, per_kind: int) -> list:
    """`per_kind` queries of every kind, stratified by work within the kind,
    interleaved in a seeded order."""
    rng = random.Random(seed)
    drawn = []
    for kind in sorted(queries):
        drawn.extend(stratified(queries[kind], per_kind, rng))
    rng.shuffle(drawn)
    return drawn


def run_sweep(argv: list, timer) -> tuple:
    """Run `spinblocks <argv>` in process; each check is one operation.

    Returns the exit code, the report text and the canonical JSON of every
    check report in call order."""
    from spinblocks import cli

    reports = []

    def hooked(func):
        def call(*args, **kwargs):
            with timer():
                report = func(*args, **kwargs)
            reports.append(report)
            return report

        return call

    saved = cli.run_check, cli.check_htoj
    cli.run_check, cli.check_htoj = hooked(cli.run_check), hooked(cli.check_htoj)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        cli.run_check, cli.check_htoj = saved
    return code, out.getvalue(), [canonical(r.to_json()) for r in reports]


def vector_text(v) -> str:
    return canonical(sorted([list(label), c.a, c.b] for label, c in v.coeffs))


def run_query(argv: list, cache: str, timer) -> str:
    """One `spinblocks --cache <cache> <argv>` call: exit code plus stdout."""
    from spinblocks import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with timer():
            try:
                code = cli.main(["--cache", cache] + list(argv))
            except SystemExit as exc:
                code = exc.code
    return f"exit {code}\n{out.getvalue()}"


class Workload:
    """Inputs of one workload plus the reference digest of each operation.

    `run_pass(timer)` runs one pass and returns the canonical outputs, one
    per operation; `timer` is a context manager factory entered around each
    operation, and nothing the benchmark does for checking runs inside it.
    """

    def __init__(self, name: str, seed: int, size: str, reference: dict, workdir: str = "."):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; have {', '.join(NAMES)}")
        self.name = name
        self.workdir = workdir
        self.cache_bytes = 0
        ref = reference[name]
        if name in SWEEP_ARGV:
            self.argv = SWEEP_ARGV[name][size]
            self.expected = ref[size]["checks"]
            self.expected_report = ref[size]["report"]
        elif name == "induce-grid":
            self.pairs = draw_induce_pairs(ref["pairs"], seed, INDUCE_PAIRS[size])
            self.expected = [row[-1] for row in self.pairs]
        else:
            self.queries = draw_queries(ref["queries"], seed, QUERIES_PER_KIND[size])
            self.expected = [row[-1] for row in self.queries]

    def run_pass(self, timer) -> list:
        if self.name in SWEEP_ARGV:
            return self._sweep(timer)
        if self.name == "induce-grid":
            return self._induce(timer)
        return self._session(timer)

    def _sweep(self, timer) -> list:
        code, text, outputs = run_sweep(self.argv, timer)
        self.last_report = (code, text)
        return outputs

    def _induce(self, timer) -> list:
        from spinblocks.stembridge import induce

        results = []
        for mu, nu, _work, _digest in self.pairs:
            with timer():
                v = induce(tuple(mu), tuple(nu))
            results.append(v)
        return [vector_text(v) for v in results]

    def _session(self, timer) -> list:
        cache = os.path.join(self.workdir, "kcache.tsv")
        if os.path.exists(cache):
            os.remove(cache)
        outputs = [run_query(argv, cache, timer) for argv, _work, _digest in self.queries]
        self.cache_bytes = os.path.getsize(cache) if os.path.exists(cache) else 0
        return outputs

    def check(self, outputs: list) -> list:
        """Positions of operations whose output is not the reference."""
        bad = [
            i for i, (got, want) in enumerate(zip(outputs, self.expected))
            if digest(got) != want
        ]
        if len(outputs) != len(self.expected):
            bad.extend(range(min(len(outputs), len(self.expected)), max(len(outputs), len(self.expected))))
        return bad

    def report_ok(self) -> bool:
        """For the sweeps: the whole report is the reference and exits 0."""
        if self.name not in SWEEP_ARGV:
            return True
        code, text = self.last_report
        return code == 0 and hashlib.sha256(text.encode("utf-8")).hexdigest() == self.expected_report
