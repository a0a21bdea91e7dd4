"""Per-layer spans installed from outside the library.

Each span wraps one public function of a spinblocks module.  The wrapper
replaces the function under every name a spinblocks module imported it as
(and in the ``verify.CHECKS`` table), so calls between layers pass through
it.  A span records calls, total seconds and self seconds (total minus the
time of the spans it called).  ``sqrt2`` has no span: its operations are too
fine-grained.  ``trees`` has none either; its time counts under the span of
the check that calls it, ``verify.tree-suite``.
"""

from __future__ import annotations

import sys
import time

LAYERS = ("partitions", "abacus", "rouquier", "stembridge", "chars", "verify", "hnf", "cli")

# (module, attribute) of every wrapped function; the span is "module.attribute".
SPANS = (
    ("partitions", "as_strict"),
    ("partitions", "as_partition"),
    ("partitions", "path_count"),
    ("partitions", "enumerate_partitions"),
    ("abacus", "block_enum"),
    ("abacus", "quotient"),
    ("abacus", "core_weight"),
    ("abacus", "neighbors"),
    ("abacus", "k_product"),
    ("rouquier", "is_rouquier"),
    ("rouquier", "generate"),
    ("stembridge", "f_coeff"),
    ("stembridge", "induce"),
    ("stembridge", "rock_branch"),
    ("chars", "m_action"),
    ("hnf", "row_echelon_basis"),
    ("hnf", "lattice_member"),
    ("hnf", "integral_solution_exists"),
    ("verify", "nmv_basis"),
    ("verify", "hyp_coeffs"),
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "load_cache"),
    ("cli", "save_cache"),
    ("cli", "emit"),
)

CHECK_NAMES = (
    "dim-sqd", "dim-reduced", "block-count", "htog-adjoint", "htoj",
    "restrict-recursion", "hyp-nonneg", "phi-kernel", "core-order",
    "stembridge-cross", "tree-suite",
)

# Per-layer metrics reported by a traced run: name -> unit.
CALLS_AND_SELF = (
    "partitions.path_count", "abacus.block_enum", "abacus.quotient",
    "abacus.core_weight", "abacus.neighbors", "abacus.k_product",
    "rouquier.is_rouquier", "stembridge.f_coeff", "stembridge.induce",
    "stembridge.rock_branch", "chars.CharSpace.labels", "chars.m_action",
    "hnf.row_echelon_basis", "hnf.lattice_member", "hnf.integral_solution_exists",
    "cli.load_cache", "cli.save_cache",
) + tuple(f"verify.{c}" for c in CHECK_NAMES)
CALLS_ONLY = ("partitions.as_strict", "partitions.as_partition")
SELF_ONLY = (
    "partitions.enumerate_partitions", "rouquier.generate", "verify.nmv_basis",
    "verify.hyp_coeffs", "cli.build_parser", "cli.emit",
)
COUNTERS = {
    "partitions.memo_entries": "count",
    "abacus.block_enum.labels_out": "count",
    "abacus.block_enum.distinct_ratio": "ratio",
    "stembridge.f_coeff.nonzero_ratio": "ratio",
    "stembridge.f_cache.hit_ratio": "ratio",
    "chars.space_labels.hit_ratio": "ratio",
    "hnf.row_echelon_basis.rank": "count",
    "hnf.row_echelon_basis.cols": "count",
    "cli.cache_bytes": "B",
    "trace.overhead_s": "s",
}


def metric_units() -> dict:
    units = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        units[name + ".calls"] = "count"
    for name in CALLS_AND_SELF + SELF_ONLY:
        units[name + ".self_s"] = "s"
    units.update(COUNTERS)
    for layer in LAYERS:
        units[f"layer.{layer}.share"] = "ratio"
    return units


def _replace(old, new):
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "spinblocks" or name.startswith("spinblocks.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


class Tracer:
    """Spans and counters for one traced run; `begin_pass`/`end_pass`
    bracket each pass so counts are reported per pass."""

    def __init__(self):
        self.stats = {}  # span -> [calls, total_s, self_s]
        self.stack = [0.0]
        self.count = {
            "labels_out": 0, "nonzero": 0, "rank": 0, "cols": 0, "distinct": 0,
            "f_hits": 0, "f_misses": 0, "l_hits": 0, "l_misses": 0,
            "memo_entries": 0, "cache_bytes": 0,
        }
        self.passes = 0
        self._seen = set()

    def wrap(self, name, func, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return span

    def install(self):
        import importlib

        from spinblocks import chars, verify

        observers = {
            "abacus.block_enum": self._block_enum,
            "stembridge.f_coeff": self._f_coeff,
            "hnf.row_echelon_basis": self._echelon,
        }
        for module_name, attr in SPANS:
            module = importlib.import_module(f"spinblocks.{module_name}")
            name = f"{module_name}.{attr}"
            old = getattr(module, attr)
            _replace(old, self.wrap(name, old, observers.get(name)))
        labels = chars.CharSpace.__dict__["labels"]
        chars.CharSpace.labels = self.wrap("chars.CharSpace.labels", labels)
        for check in CHECK_NAMES:
            old = verify.CHECKS[check]
            new = self.wrap(f"verify.{check}", old)
            verify.CHECKS[check] = new
            _replace(old, new)

    def _block_enum(self, args, kwargs, result):
        self.count["labels_out"] += len(result)
        key = repr((args, sorted(kwargs.items())))
        if key not in self._seen:
            self._seen.add(key)
            self.count["distinct"] += 1

    def _f_coeff(self, args, kwargs, result):
        self.count["nonzero"] += result != 0

    def _echelon(self, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        self.count["rank"] += len(result)
        self.count["cols"] += len(rows[0]) if rows else 0

    def begin_pass(self):
        self._seen = set()

    def end_pass(self, cache_bytes: int = 0):
        """Read the memo sizes before the next pass empties them."""
        from spinblocks import chars, partitions, stembridge

        self.passes += 1
        self.count["memo_entries"] += len(partitions.PATH_COUNT_MEMO)
        self.count["cache_bytes"] += cache_bytes
        for prefix, cached in (("f", getattr(stembridge, "_f_coeff_cached", None)),
                               ("l", getattr(chars, "_space_labels", None))):
            if cached is not None:
                info = cached.cache_info()
                self.count[prefix + "_hits"] += info.hits
                self.count[prefix + "_misses"] += info.misses

    def metrics(self, overhead_s: float) -> dict:
        """Per-pass averages of every per-layer metric."""
        n = max(self.passes, 1)
        c = self.count

        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in CALLS_AND_SELF + CALLS_ONLY:
            out[name + ".calls"] = calls(name) / n
        for name in CALLS_AND_SELF + SELF_ONLY:
            out[name + ".self_s"] = self.stats.get(name, [0, 0.0, 0.0])[2] / n
        echelon = calls("hnf.row_echelon_basis")
        out.update({
            "partitions.memo_entries": c["memo_entries"] / n,
            "abacus.block_enum.labels_out": c["labels_out"] / n,
            "abacus.block_enum.distinct_ratio": ratio(c["distinct"], calls("abacus.block_enum")),
            "stembridge.f_coeff.nonzero_ratio": ratio(c["nonzero"], calls("stembridge.f_coeff")),
            "stembridge.f_cache.hit_ratio": ratio(c["f_hits"], c["f_hits"] + c["f_misses"]),
            "chars.space_labels.hit_ratio": ratio(c["l_hits"], c["l_hits"] + c["l_misses"]),
            "hnf.row_echelon_basis.rank": ratio(c["rank"], echelon),
            "hnf.row_echelon_basis.cols": ratio(c["cols"], echelon),
            "cli.cache_bytes": c["cache_bytes"] / n,
            "trace.overhead_s": overhead_s,
        })
        spanned = self.stack[0]
        for layer in LAYERS:
            own = sum(s[2] for name, s in self.stats.items() if name.split(".")[0] == layer)
            out[f"layer.{layer}.share"] = ratio(own, spanned)
        return out
