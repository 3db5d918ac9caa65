"""Fixed reference kernels that gauge the host's current speed.

The host this benchmark was tuned on is shared: the same CPU-bound code
runs up to about 2.5x slower from one minute to the next, and process
CPU time slows with it, so the slowdown is not time spent off the CPU.
Kinds of work slow by different factors: in one slow phase
interpreter-bound code took 1.8x as long, complex matrix products 1.35x
and a memory-bound array sweep 1.2x.

The benchmark therefore runs the kernels below right before and after
every timed step and divides the step's CPU time by the host's slowdown
for a mix of them (slowdown()), with shares fitted per workload (see
workloads.py).  A mix may hold a FIXED share: the part of a workload's
time that the drift does not slow at all.  A drift of the host slows
the step and the mix alike and cancels; a change to gaborfio moves only
the step.

The kernels use nothing from gaborfio and take no seed.  Once the first,
untimed, call has made the stream buffer they allocate no arrays, so
what ran before them does not change their time.
"""

import time

import numpy as np

_RNG = np.random.default_rng(20110711)
_M = (_RNG.standard_normal((256, 256))
      + 1j * _RNG.standard_normal((256, 256))) / 256.0
_PRODUCTS = [np.empty_like(_M), np.empty_like(_M)]
_STREAM = []    # 32 MB, allocated on the first call of _stream_work


def _interpreter_work(count=10000):
    """Loops, float arithmetic, dict updates and string formatting."""
    table = {}
    acc = 0.0
    lines = []
    for i in range(count):
        x = (i * 0.6180339887498949) % 1.0
        acc += x * x - 0.5 * x
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        lines.append(f"{i},{x:.17g},{acc:.17g}")
    return len("\n".join(lines)) + len(table)


def _matmul_work(products=8):
    """Complex 256 x 256 matrix products (BLAS zgemm)."""
    a = _M
    for k in range(products):
        b = _PRODUCTS[k % 2]
        np.matmul(a, _M, out=b)
        b *= 16.0 / np.sqrt(2.0)    # keeps the entries of order one
        a = b
    return float(a[0, 0].real)


def _stream_work(sweeps=6):
    """Elementwise sweeps over an array far larger than the caches."""
    if not _STREAM:
        _STREAM.append(np.full(1 << 22, 1.0))
    buf = _STREAM[0]
    for _ in range(sweeps):
        np.multiply(buf, 1.0000001, out=buf)
    return float(buf[0])


KERNELS = {"interpreter": _interpreter_work, "matmul": _matmul_work,
           "stream": _stream_work}
FIXED = "fixed"

# CPU seconds of each kernel on the quiet host: the kernels were sized to
# take about 20 ms at the fastest speed seen while the mixes in
# workloads.py were fitted (2.0 GHz Xeon vCPU, one BLAS thread).  These
# constants fix the unit of the benchmark's times, so they never change:
# where the kernels take this long, slowdown() is 1.
QUIET_S = {"interpreter": 0.020, "matmul": 0.020, "stream": 0.020}


def kernels_of(mix):
    """The kernels a mix needs timed, in the order of KERNELS."""
    return [name for name in KERNELS if name in mix]


def kernel_seconds(names):
    """CPU seconds of one pass of each named kernel."""
    times = {}
    for name in names:
        start = time.process_time()
        KERNELS[name]()
        times[name] = time.process_time() - start
    return times


def slowdown(times, weights):
    """The host's slowdown against the quiet host for a mix of kernels.

    weights maps kernel names, and FIXED, to their shares of the mix
    (summing to 1); times holds the kernels' CPU seconds as
    kernel_seconds gives them.  The FIXED share counts as never slowed.
    """
    return sum(w if name == FIXED else w * times[name] / QUIET_S[name]
               for name, w in weights.items())
