"""The benchmark's workloads: one gaborfio CLI subcommand at a fixed config.

Each workload runs its subcommand at `config`; the benchmark's --seed is
passed to the CLI as --seed, so it picks the random symbol
(decay-scan, approximate) and the probe signals (frame-check).  `warmup`
is the same subcommand at a small grid, run once untimed in the child
before timing starts, so that lazy set-up (first BLAS call, FFT plans,
byte-code loading) is not timed.

`reference_mix` gives the shares of the reference kernels (reference.py)
whose slowdown the workload's CPU time is divided by, and the "fixed"
share the host's drift does not slow.  They were fitted (non-negative
least squares, rounded to 0.05) to how each workload's CPU time per
execution followed the kernels' CPU times while the host drifted, over
25 runs per workload (seeds 30-34, 100-109 and 200-209; 174 executions
of frame-check, 421-464 of the others); SETUP_REFERENCE_MIX likewise for
the 700 imports of those runs.  A
change to gaborfio that shifts where a workload spends its time leaves
the shares a little off; that matters only while the host drifts.
"""

GAUSSIAN = {"kind": "gaussian"}

SETUP_REFERENCE_MIX = {"fixed": 0.65, "interpreter": 0.05, "stream": 0.3}


def _lattice(a, b):
    return {"generator": [[a, 0], [0, b]]}


def _approximate(n):
    return {"grid": {"n": n, "d": 1}, "window": GAUSSIAN,
            "lattice": _lattice(4, 4),
            "phase": {"kind": "perturbed", "params": {"eps": 0.1}},
            "symbol": {"kind": "bandlimited", "params": {"N": 2}},
            "L_list": [1, 2, 4, 8], "p": 2.0}


def _decay_scan(n):
    return {"grid": {"n": n, "d": 1}, "window": GAUSSIAN,
            "lattice": _lattice(4, 4),
            "phase": {"kind": "dilation", "params": {"s": 2.0}},
            "symbol": {"kind": "bandlimited", "params": {"N": 2}},
            "s_claim": 4.0}


def _dilation_demo(n):
    return {"grid": {"n": n, "d": 1}, "window": GAUSSIAN,
            "lattice": _lattice(4, 4),
            "phase": {"kind": "dilation", "params": {"s": 2.0}},
            "nu_radius": 3.0}


def _frame_check(n, a, b):
    return {"grid": {"n": n, "d": 1}, "window": GAUSSIAN,
            "lattice": _lattice(a, b)}


WORKLOADS = {
    "approximate-n56": {
        "command": "approximate",
        "config": _approximate(56),
        "warmup": _approximate(32),
        "reference_mix": {"fixed": 0.05, "interpreter": 0.45, "matmul": 0.3,
                          "stream": 0.2},
    },
    "decay-scan-n160": {
        "command": "decay-scan",
        "config": _decay_scan(160),
        "warmup": _decay_scan(64),
        "reference_mix": {"fixed": 0.45, "interpreter": 0.15, "matmul": 0.1,
                          "stream": 0.3},
    },
    "dilation-demo-n80": {
        "command": "dilation-demo",
        "config": _dilation_demo(80),
        "warmup": _dilation_demo(32),
        "reference_mix": {"fixed": 0.2, "interpreter": 0.5, "matmul": 0.2,
                          "stream": 0.1},
    },
    "frame-check-n640": {
        "command": "frame-check",
        "config": _frame_check(640, 16, 16),
        "warmup": _frame_check(128, 8, 8),
        "reference_mix": {"fixed": 0.6, "interpreter": 0.25, "matmul": 0.15},
    },
}
