"""Benchmark of the gaborfio CLI experiments.

Run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One run measures one workload (see workloads.py).  It first times
`import gaborfio.cli` in several fresh interpreters (setup_s), then
starts one fresh child (worker.py) that warms up, times whole executions
of the workload's CLI subcommand for --seconds, and checks every
execution's outputs (checks.py).  Every child gets the same fixed BLAS
thread count.  Both times are CPU times divided by the host's slowdown
at the time, gauged by reference kernels (reference.py) run right before
and after each step: they read as seconds on the quiet host the kernels
were timed on.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics cli_s, setup_s and peak_rss_mb; with --trace 1
it holds the per-layer metrics of spans.py and the import breakdown of
setup_s.  The lines before it give each metric with its unit, the
operations attempted and failed, and the provenance of the run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# One BLAS thread: the machine this was tuned on has 2 vCPUs, shared with
# other work, and a single thread keeps the runs steadiest.  Set here
# before numpy is loaded (for the reference kernel) and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import reference  # noqa: E402
from workloads import SETUP_REFERENCE_MIX, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150

UNITS = {"cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = """\
import json, time
clock = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
t0 = clock()
import numpy
t1 = clock()
import scipy.linalg
t2 = clock()
import gaborfio.cli
t3 = clock()
print(json.dumps([t0, t1, t2, t3, time.process_time()]))
"""


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def import_times(env, repeats):
    """Time `import gaborfio.cli` in `repeats` fresh interpreters.

    Returns (walls, cpus, refs).  walls[i] holds the wall seconds of
    [interpreter, numpy, scipy, gaborfio] of interpreter i; the
    interpreter part runs from just before the process is started until
    the probe's first line (CLOCK_MONOTONIC is shared by processes).
    cpus[i] is the child's CPU time from its start to the end of the
    import.  refs holds the reference kernels' CPU times in this process
    before the first interpreter and after each one.
    """
    kernels = reference.kernels_of(SETUP_REFERENCE_MIX)
    walls, cpus, refs = [], [], [reference.kernel_seconds(kernels)]
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        t = json.loads(proc.stdout.strip().splitlines()[-1])
        refs.append(reference.kernel_seconds(kernels))
        stamps = [start] + t[:4]
        walls.append([b - a for a, b in zip(stamps, stamps[1:])])
        cpus.append(t[4])
    return walls, cpus, refs


def median(values):
    return float(statistics.median(values))


def slowdowns(refs, mix):
    """The host's slowdown for `mix` around each step.

    Step i ran between refs[i] and refs[i + 1]; its slowdown is the mean
    of the two.
    """
    s = [reference.slowdown(times, mix) for times in refs]
    return [0.5 * (before + after) for before, after in zip(s, s[1:])]


def quiet_seconds(cpus, refs, mix):
    """Median over the steps of CPU seconds over the host's slowdown."""
    return median([cpu / s for cpu, s in zip(cpus, slowdowns(refs, mix))])


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gaborfio", "cli.py")):
        print("bench: run from the root of a gaborfio checkout "
              "(src/gaborfio/cli.py not found)", file=sys.stderr)
        return 2
    env = child_env(root)
    work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")

    try:
        import_times(env, 1)        # untimed: byte-compiles src/, warms up
        import_walls, import_cpus, import_refs = import_times(
            env, SETUP_REPEATS)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.SubprocessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:     # another run is still using it
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted = len(result["walls"])
    failed = 0
    for i, (error, wrong) in enumerate(zip(result["errors"], result["wrong"])):
        failed += bool(error or wrong)
        for message in ([error] if error else []) + wrong:
            print(f"execution {i} failed: {message}")

    if args.trace:
        timing = result["layers"][1:]
        metrics = {name: median([layer[name] for layer in timing])
                   for name in timing[0]}
        memory = result["layers"][0]
        for name, value in memory.items():
            if name.endswith(".peak_mb"):
                metrics[name] = value
        for i, part in enumerate(("interpreter", "numpy", "scipy", "gaborfio")):
            metrics[f"setup.{part}_s"] = median(
                [row[i] for row in import_walls])
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "cli_s": quiet_seconds(result["cpus"], result["refs"],
                                   WORKLOADS[args.workload]["reference_mix"]),
            "setup_s": quiet_seconds(import_cpus, import_refs,
                                     SETUP_REFERENCE_MIX),
            "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
        }
        units = UNITS

    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "walls": result["walls"], "cpus": result["cpus"],
        "refs": result["refs"], "setup_repeats": SETUP_REPEATS,
        "setup_walls": [sum(row) for row in import_walls],
        "setup_cpus": import_cpus, "setup_refs": import_refs,
        "git_sha": git_sha(root), **result["provenance"]}}))
    mix = WORKLOADS[args.workload]["reference_mix"]
    slow = median(slowdowns(result["refs"], mix))
    slow_imports = median(slowdowns(import_refs, SETUP_REFERENCE_MIX))
    print(f"median execution: wall {median(result['walls']):.4f} s, "
          f"CPU {median(result['cpus']):.4f} s; median host slowdown "
          f"{slow:.4f} (imports: {slow_imports:.4f})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": not any(result["wrong"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
