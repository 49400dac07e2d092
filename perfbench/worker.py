"""Child process of the benchmark; run.py starts a fresh one for each
set-up sample and one for the calls of a run.

    worker.py setup
        Import mdmfso and build the default ModalCoupler, then exit: the
        parent times the whole process as one cold set-up.
    worker.py calls WORKLOAD SEED SECONDS [SPANS_FILE]
        Call the workload's entry point on the config made from the
        benchmark SEED, check each call against the reference, and repeat
        until SECONDS have passed (at least once). With SPANS_FILE, make
        exactly one call under the tracer, write its spans there and
        check the workload's separation counts. Prints one JSON line with
        the per-call samples, the layer metrics when traced, the
        process's peak RSS and the library versions.
"""

import json
import resource
import sys
import time
import traceback


def setup():
    from mdmfso import harness
    from tracing import coupler_class

    coupler_class()(harness.ExperimentConfig())


def library_facts():
    import mdmfso
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "mdmfso_file": mdmfso.__file__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def calls(workload, seed, seconds, spans_file=None):
    import workloads
    from tracing import Tracer

    spec = workloads.WORKLOADS[workload]
    seed = workloads.config_seed(seed)
    ref = workloads.load_reference(workload, seed)
    tracer = None
    if spans_file is not None:
        tracer = Tracer(spec.unit_roots)
        tracer.install()
    samples = []
    start = time.perf_counter()
    while True:
        error = None
        t0 = time.perf_counter()
        try:
            obs = spec.run(seed)
        except Exception:
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        if error is None:
            failed = workloads.count_failed(obs, ref, spec.units)
        else:
            failed = spec.units
            print(error, file=sys.stderr)
        samples.append(
            {"wall_s": wall, "units": spec.units, "failed": failed, "error": error}
        )
        if tracer is not None or time.perf_counter() - start >= seconds:
            break
    result = {
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "facts": library_facts(),
    }
    if tracer is not None:
        tracer.uninstall()
        layers = result["layers"] = tracer.layer_metrics()
        result["separation_failures"] = [
            f"{metric} is {layers[metric]}, expected {want}"
            for metric, want in spec.separation.items()
            if layers[metric] != want
        ]
        with open(spans_file, "w") as fh:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))


def main(argv):
    if argv[:1] == ["setup"]:
        setup()
    elif argv[:1] == ["calls"] and len(argv) in (4, 5):
        calls(argv[1], int(argv[2]), float(argv[3]), *argv[4:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
