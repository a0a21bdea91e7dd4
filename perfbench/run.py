"""spinblocks benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: verify-sweep, oracle-sweep,
induce-grid, cli-session (see perfbench/README.md).  The workload runs in a
fresh interpreter (perfbench/worker.py) against the sources in src/; set-up
is measured in further fresh interpreters.  Every operation's output is
checked against perfbench/reference.json.

Output: human-readable lines with the run environment and every figure,
then, as the last line, one JSON object
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  Exit code 0 when the run completed, 2 on a usage or
environment error (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench-work")
SETUP_SAMPLES = 7  # set-up probes per run, besides the worker's own set-up
WORKER_TIMEOUT_S = 170

sys.path.insert(0, HERE)

from spans import metric_units  # noqa: E402
from workloads import NAMES  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def git_rev() -> str:
    """The commit of the checkout, read from .git without running git (the
    benchmark may run in an exported tree, which has no .git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(args, *extra) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", WORKDIR, *extra,
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spinblocks benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few operations per pass, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinblocks", "__init__.py")):
        sys.stderr.write(f"error: no spinblocks sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(WORKDIR, exist_ok=True)

    env = {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }
    setups = []
    if not args.trace:
        setups = [worker(args, "--setup-only") for _ in range(SETUP_SAMPLES)]
    run = worker(args)
    setups.append(run)
    env["loadavg_after"] = list(os.getloadavg())

    figures = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        **{k: run[k] for k in (
            "wall_s", "cpu_s", "items_per_s", "item_p50_ms", "item_tail_ms",
            "peak_rss_mb", "wall_raw_s", "cpu_raw_s", "speed_factor",
        )},
        "fail_ratio": run["failed"] / run["attempted"],
    }
    correct = run["failed"] == 0 and run["reports_ok"] and not run["errors"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env,
        "passes": run["passes"], "items_per_pass": run["items_per_pass"],
        "tail": {"percentile": run["tail_percentile"], "samples": run["items_per_pass"]},
        "correct": correct, "figures": figures,
    }
    print("record " + json.dumps(record, sort_keys=True))
    units = dict(END_TO_END, fail_ratio="ratio")
    for name in units:
        if args.trace and name == "setup_s":
            continue
        note = ""
        if name == "item_tail_ms":
            note = f"  (p{record['tail']['percentile']:.1f} of {record['tail']['samples']} per pass)"
        print(f"{args.workload:>13} {name:<14} {figures[name]:>14.6f} {units[name]}{note}")

    if args.trace:
        layer_units = metric_units()
        metrics = {k: {"value": run["layers"][k], "unit": u} for k, u in layer_units.items()}
    else:
        metrics = {k: {"value": figures[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
