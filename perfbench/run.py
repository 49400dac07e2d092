#!/usr/bin/env python3
"""mdmfso benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_paired --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --all            # every workload, one report

--trace 0 measures the end-to-end metrics:
    setup_s      median wall time of SETUP_SAMPLES fresh processes that
                 import mdmfso and build the default ModalCoupler (s)
    units_per_s  median over the calls of work units per second of the
                 workload's entry-point call, its own cold set-up included
    peak_rss_mb  peak resident memory of the process making the calls (MB)
and prints failed_frac (failed / attempted work units) beside them.
--trace 1 makes one untraced and one traced call, each in a fresh
process, and reports per-layer calls, total_s and self_s,
trace.overhead_s (traced minus untraced wall time) and the workload
separation checks. Spans are written to perfbench/out/.

Every child runs with BLAS_THREADS BLAS threads and src/ first on
PYTHONPATH. The last stdout line is one JSON object: correct, attempted,
failed and metrics. Exits 2 without a result when src/mdmfso is missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS, named here because importing that
# module imports mdmfso
WORKLOADS = ("mc_paired", "sweep_rx", "stats_screens")
SETUP_SAMPLES = 3
BLAS_THREADS = 1
RUN_BUDGET_S = 170.0  # one run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, deadline):
    """Run worker.py with args; returns (wall seconds, parsed last stdout line)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            timeout=max(deadline - time.monotonic(), 1.0),
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker {' '.join(args)} ran past the run budget") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return wall, (json.loads(lines[-1]) if lines else None)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(seed, library):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **library,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics of one run (tracing off)."""
    setup = [run_child(["setup"], deadline)[0] for _ in range(SETUP_SAMPLES)]
    _, out = run_child(["calls", workload, str(seed), str(seconds)], deadline)
    samples = out["samples"]
    rates = [s["units"] / s["wall_s"] for s in samples if s["error"] is None]
    attempted = sum(s["units"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("units_per_s", statistics.median(rates) if rates else 0.0, "units/s", len(rates)),
        ("peak_rss_mb", out["peak_rss_mb"], "MB", 1),
        ("failed_frac", failed / attempted, "ratio", attempted),
    ]
    return rows, attempted, failed, [], out["facts"]


def measure_traced(workload, seed, deadline):
    """Per-layer metrics of one traced call and the untraced call it pairs with."""
    (HERE / "out").mkdir(exist_ok=True)
    spans = HERE / "out" / f"spans_{workload}_{seed}.jsonl"
    _, plain = run_child(["calls", workload, str(seed), "0"], deadline)
    _, traced = run_child(["calls", workload, str(seed), "0", str(spans)], deadline)
    layers = traced["layers"]
    layers["trace.overhead_s"] = (
        traced["samples"][0]["wall_s"] - plain["samples"][0]["wall_s"]
    )
    broken = traced["separation_failures"]
    samples = plain["samples"] + traced["samples"]
    attempted = sum(s["units"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    rows = [(name, value, layer_unit(name), 1) for name, value in layers.items()]
    return rows, attempted, failed, broken, traced["facts"]


def layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".mb_computed"):
        return "MB"
    return "s"


def print_rows(workload, seed, rows, trace):
    print(f"== {workload} (seed {seed}, trace {trace})")
    if trace:
        print(f"  {'layer function':36} {'calls':>6} {'total_s':>10} {'self_s':>10}")
        values = {name: value for name, value, _, _ in rows}
        for name in sorted({n.rsplit('.', 1)[0] for n in values if n.endswith('.calls')}):
            print(
                f"  {name:36} {values[name + '.calls']:>6} "
                f"{values[name + '.total_s']:>10.4f} {values[name + '.self_s']:>10.4f}"
            )
        for name in sorted(n for n in values if not n.endswith(("calls", "total_s", "self_s"))):
            print(f"  {name:36} {values[name]:.4f} {layer_unit(name)}")
    else:
        for name, value, unit, n in rows:
            print(f"  {name:12} {value:12.4f} {unit:8} n={n}")


def run_one(workload, seed, seconds, trace, deadline):
    if trace:
        rows, attempted, failed, broken, library = measure_traced(workload, seed, deadline)
    else:
        rows, attempted, failed, broken, library = measure(workload, seed, seconds, deadline)
    print_rows(workload, seed, rows, trace)
    for problem in broken:
        print(f"  separation check failed: {problem}")
    print("  facts " + json.dumps(machine_facts(seed, library)))
    return {
        "correct": failed == 0 and not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, value, unit, _ in rows
            if name != "failed_frac"
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=WORKLOADS)
    group.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mdmfso" / "__init__.py").is_file():
        print(f"error: no mdmfso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.all else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            deadline = time.monotonic() + RUN_BUDGET_S
            results[workload] = run_one(workload, args.seed, args.seconds, args.trace, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.all:
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
