#!/usr/bin/env python3
"""Record the reference observations the benchmark checks against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_refs.py WORKLOAD [FIRST LAST]

Runs the workload for config seeds FIRST..LAST (default 0..REF_SEEDS-1)
and merges them into perfbench/refs/WORKLOAD.json. Re-record only when a
change to the program alters its results on purpose, and say so where
the change is described.
"""

import json
import sys

import workloads


def main(argv):
    workload = argv[0]
    first, last = (int(a) for a in argv[1:3]) if len(argv) == 3 else (0, workloads.REF_SEEDS - 1)
    spec = workloads.WORKLOADS[workload]
    path = workloads.REF_DIR / f"{workload}.json"
    data = {"sizes": spec.sizes, "seeds": {}}
    if path.exists():
        with open(path) as fh:
            data = json.load(fh)
        if data["sizes"] != spec.sizes:
            data = {"sizes": spec.sizes, "seeds": {}}
    for seed in range(first, last + 1):
        data["seeds"][str(seed)] = spec.run(seed)
        print(f"{workload} seed {seed} recorded", flush=True)
    workloads.REF_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
