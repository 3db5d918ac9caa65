"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count fixed in the environment.  It runs the workload's
warm-up once untimed, then times whole executions of
`gaborfio.cli.main([...])` until the next one would end after --seconds.
It runs the workload's reference kernels (reference.py) before the
first execution and after every execution.  After every execution,
outside the timed region, it checks the outputs and removes them.  It
prints one JSON object on its last line:

    {"walls": [...], "cpus": [...], "refs": [...], "errors": [...],
     "wrong": [[...], ...], "maxrss_kb": ..., "layers": [{...}, ...],
     "provenance": {...}}

Per execution, `walls` and `cpus` hold its wall and CPU seconds, `errors`
the exception or bad exit code (or null) and `wrong` the failed checks
of its outputs.  `refs` holds the reference kernels' CPU seconds, one
more than there are executions: execution i ran between refs[i] and
refs[i + 1].

`layers` holds the per-layer values of each traced execution; with
--trace 1 the first execution is the memory pass (allocation tracing
on) and the rest take self times.
"""

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback

import checks
import reference
import spans
from workloads import WORKLOADS

MIN_EXECUTIONS = 3


def _execute(cli, argv, tracer):
    """Run the CLI once.

    Returns (exit code or None, wall seconds, CPU seconds, error).
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    code, error = None, None
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer:
                code = tracer.call(spans.ROOT, cli.main, argv)
    except Exception:   # the run goes on; the execution counts as failed
        error = traceback.format_exc()
    return (code, time.perf_counter() - start, time.process_time() - cpu_start,
            error)


def _output_size(out):
    """(bytes, CSV data rows) of everything the CLI wrote into out."""
    size = rows = 0
    for name in os.listdir(out) if os.path.isdir(out) else []:
        path = os.path.join(out, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return size, rows


def blas_threads():
    """Thread count in force in each loaded OpenBLAS, by library name."""
    getters = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads",
               "scipy_openblas_get_num_threads64_")
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return {}
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in getters:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return threads


def provenance():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    import gaborfio.cli as cli

    wl = WORKLOADS[args.workload]
    command = wl["command"]
    check = checks.CHECKS[command]
    os.makedirs(args.work, exist_ok=True)
    paths = {}
    for key in ("config", "warmup"):
        paths[key] = os.path.join(args.work, f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(wl[key], fh)

    def argv_for(key, out):
        return [command, "--config", paths[key], "--out", out,
                "--seed", str(args.seed)]

    warm = os.path.join(args.work, "warmup")
    _execute(cli, argv_for("warmup", warm), None)
    shutil.rmtree(warm, ignore_errors=True)
    kernels = reference.kernels_of(wl["reference_mix"])
    reference.kernel_seconds(kernels)   # untimed, like the warm-up

    walls, cpus, errors, wrong, layers = [], [], [], [], []
    refs = [reference.kernel_seconds(kernels)]
    start = time.perf_counter()
    while True:
        i = len(walls)
        elapsed = time.perf_counter() - start
        typical = sorted(walls)[len(walls) // 2] if walls else 0.0
        if i >= MIN_EXECUTIONS and elapsed + typical > args.seconds:
            break
        out = os.path.join(args.work, f"exec{i}")
        tracer = spans.Tracer(memory=(i == 0)) if args.trace else None
        gc.collect()
        code, wall, cpu, error = _execute(cli, argv_for("config", out), tracer)
        refs.append(reference.kernel_seconds(kernels))
        walls.append(wall)
        cpus.append(cpu)
        if error is None and code != 0:
            error = f"exit code {code}"
        errors.append(error)
        failed_checks = []
        if error is None:
            try:
                failed_checks = check(out, wl["config"], args.seed)
            except Exception:   # unreadable output fails the execution
                failed_checks = [traceback.format_exc()]
        wrong.append(failed_checks)
        if tracer is not None:
            values = spans.layer_metrics(tracer)
            size, values["cli.csv_rows"] = _output_size(out)
            values["cli.output_mb"] = size / 1e6
            layers.append(values)
        shutil.rmtree(out, ignore_errors=True)

    print(json.dumps({
        "walls": walls,
        "cpus": cpus,
        "refs": refs,
        "errors": errors,
        "wrong": wrong,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
        "provenance": provenance(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
