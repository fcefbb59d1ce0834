"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--trace] [--import-only]

Imports susylattice (the parent puts the checkout's `src` first on
PYTHONPATH), runs every operation of the workload once, checks each one and
prints one JSON object as its last stdout line.  The parent measures set-up
time from its own clock at spawn to `import_done` (CLOCK_MONOTONIC is shared
by all processes), so this module keeps its own imports minimal until then.
"""

import time
import argparse
import json
import os
import resource
import sys

IMPORT_MARKER = "bench: import done"


def _blas_info():
    """(name and configuration, threads) of the OpenBLAS that numpy loaded,
    read through its own API; (None, None) for another BLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and ".so" in line})
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                      None)
                if get_config and get_threads:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode(), get_threads()
    return None, None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _blas_info()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config or blas.get("openblas configuration"),
        "blas_threads": threads,
    }


def run_pass(workload, seed, tracer=None):
    import contextlib

    import workloads

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    ops = workloads.operations(workload, seed)
    results, values = [], {}
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with span("bench.workload"):
        for op in ops:
            op_start = time.perf_counter()
            with span(f"bench.op.{op.label}"):
                reasons, rows = workloads.run_operation(op)
            results.append({"op": op.label, "reasons": reasons,
                            "wall_s": time.perf_counter() - op_start})
            values.update(workloads.flatten_rows(op.label, rows))
    wall = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": cpu1.ru_maxrss * 1024 / 1e6,
            "ops": results, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    import susylattice
    import susylattice.cli  # noqa: F401  (the susylab entry point)

    import_done = time.monotonic()
    print(IMPORT_MARKER, file=sys.stderr, flush=True)
    out = {"import_done": import_done, "env": environment(),
           "src": os.path.dirname(susylattice.__file__)}
    if not args.import_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer().install(susylattice)
        out.update(run_pass(args.workload, args.seed, tracer))
        if tracer:
            out["spans"] = tracer.export(f"{args.workload}-{args.seed}")
            out["builds"] = len(tracer.builds)
            out["distinct_builds"] = len(set(tracer.builds))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
