"""One benchmark run of one workload, in a fresh single-threaded interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--setup-only]

Prints one JSON object on stdout.  ``run.py`` starts this script; it is not
meant to be called by hand except when debugging the benchmark.

Speed normalisation: the sandbox this benchmark was written for changes
speed by up to 40% for tens of seconds at a time (other tenants), which
shows alike in wall and CPU time.  Before every operation the worker times
a small fixed pure-Python probe; each operation's time is scaled by
PROBE_REF_S / (median probe time around it).  Reported times are therefore
"seconds at the speed where the probe takes PROBE_REF_S"; the raw times are
reported next to them.
"""

_T0 = __import__("time").perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Probe time in the fast state of a 2-vCPU sandbox under Python 3.11.
PROBE_REF_S = 0.0001
PROBE_WINDOW = 10  # probes on each side of an operation


def _probe_work():
    table = {}
    for i in range(400):
        key = (i, i & 7)
        table[key] = table.get(key, 0) + len(key)


def probe() -> float:
    """Seconds the probe takes once its code and data are in cache, so the
    operation that ran before it does not change its time."""
    _probe_work()
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def speed_factor(samples: list) -> float:
    return PROBE_REF_S / statistics.median(samples)


class OpTimer:
    """Context manager entered around each operation: runs one probe first
    (outside the timed span), then times the operation."""

    def __init__(self):
        self.ops = []
        self.probes = []

    def __call__(self):
        return self

    def __enter__(self):
        self.probes.append(probe())
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ops.append(time.perf_counter() - self._start)
        return False


def tail_index(n: int) -> int:
    """Index in sorted order of the highest percentile with at least ten
    samples beyond it (the maximum when there are fewer than eleven)."""
    return n - 11 if n >= 11 else n - 1


def summarize(passes: list) -> dict:
    """Normalised end-to-end figures of a list of passes.

    Every pass runs the same operations in the same order, so each
    operation's time is the median of its (scaled) times over the passes;
    a pass's wall time is the sum of those plus the median time spent
    between operations.  A stall that hits one pass then moves no figure.
    """
    rows, glue, cpus = [], [], []
    for p in passes:
        ops, probes = p["ops"], p["probes"]
        scaled = [
            r * speed_factor(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i, r in enumerate(ops)
        ]
        raw_ops = sum(ops)
        factor = sum(scaled) / raw_ops if raw_ops > 0 else 1.0
        probe_s = sum(probes)
        rows.append(scaled)
        glue.append((p["wall_raw"] - probe_s - raw_ops) * factor)
        cpus.append((p["cpu_raw"] - probe_s) * factor)
    per_op = sorted(statistics.median(col) for col in zip(*rows))
    n = len(per_op)
    wall = sum(per_op) + statistics.median(glue)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "items_per_s": n / wall if wall > 0 else 0.0,
        "item_p50_ms": 1000 * statistics.median(per_op) if n else 0.0,
        "item_tail_ms": 1000 * per_op[tail_index(n)] if n else 0.0,
        "tail_percentile": 100 * (n - 10) / n if n >= 11 else 100.0,
        "items_per_pass": n,
        "wall_raw_s": statistics.median(p["wall_raw"] for p in passes),
        "cpu_raw_s": statistics.median(p["cpu_raw"] for p in passes),
        "speed_factor": statistics.median(
            speed_factor(p["probes"]) for p in passes if p["probes"]
        ) if any(p["probes"] for p in passes) else 1.0,
    }


def run_passes(wl, seconds: float, tracer=None) -> list:
    """Passes until `seconds` have gone by; at least one, and never a pass cut short."""
    from workloads import reset_memos

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        reset_memos()
        gc.collect()
        timer = OpTimer()
        if tracer is not None:
            tracer.begin_pass()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs = wl.run_pass(timer)
            error = None
        except Exception:  # an operation raised: the pass fails, the run reports it
            outputs, error = [], traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.end_pass(wl.cache_bytes)
        bad = wl.check(outputs)
        passes.append({
            "ops": timer.ops, "probes": timer.probes, "wall_raw": wall, "cpu_raw": cpu,
            "attempted": len(wl.expected), "failed": len(bad),
            "report_ok": error is None and wl.report_ok(), "error": error,
        })
        if error is not None:
            sys.stderr.write(error)
            break
        if time.perf_counter() >= deadline:
            break
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import spinblocks  # noqa: F401
    import spinblocks.cli  # noqa: F401
    from workloads import Workload, load_reference

    wl = Workload(args.workload, args.seed, args.size, load_reference(), args.workdir)
    setup_raw = time.perf_counter() - _T0
    setup = setup_raw * speed_factor([probe() for _ in range(41)])
    result = {"setup_s": setup, "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if not args.trace:
        passes = run_passes(wl, args.seconds)
        result.update(summarize(passes))
    else:
        from spans import Tracer

        untraced = run_passes(wl, 0.0)
        tracer = Tracer()
        tracer.install()
        passes = run_passes(wl, max(args.seconds - untraced[0]["wall_raw"], 0.0), tracer)
        traced = summarize(passes)
        result.update(traced)
        result["layers"] = tracer.metrics(traced["wall_s"] - summarize(untraced)["wall_s"])
        passes = untraced + passes
    result.update({
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "reports_ok": all(p["report_ok"] for p in passes),
        "errors": [p["error"] for p in passes if p["error"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
