"""Command-line experiment harness.

Subcommands: frame-check, decay-scan, approximate, dilation-demo,
warp-frame.  Each run reads a JSON config, writes CSV data files plus a
report.json into --out, and is deterministic given (config, seed): CSV
bodies are byte-identical across reruns.  One builder checks every config
field before any computation starts.

Exit codes: 0 success, 1 config or usage error (a bad flag, an --out
that cannot be created), 2 not a frame, 3 insufficient decay range, 5
the canonical map's Newton solve diverged, 6 internal error (an
unexpected exception); 4 is unused.  On exits 1, 2, 5 and 6 stderr is
one JSON object: the error list, plus the warnings the run raised, if
any.

A run is one process, so its BLAS thread count is set as any process's
is, by OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, which
report.json records.  Each verdict reads its gate where the judged value
is computed (frames.PARSEVAL_TOL, multiplier.RECONSTRUCTION_TOL, ...),
and the acceptance tests read the same names.
"""

import argparse
import json
import math
import os
import sys
import warnings
from itertools import chain
from types import SimpleNamespace

import numpy as np

from . import __version__
from .core import Grid, Weight, random_signal
from .windows import WINDOW_KINDS
from .frames import (GaborFrameSpec, enumerate_lattice, frame_bounds,
                     is_frame, bounds_make_frame, tighten, dual_window,
                     analysis, warped_frame_check, LatticeError,
                     NotAFrameError, PARSEVAL_TOL)
from .phases import BUILTIN_PHASES, canonical_map, NewtonDivergenceError
from .fio import (make_fio, constant_symbol, bandlimited_symbol,
                  weighted_symbol, gabor_columns, scan_distances,
                  InsufficientDecayRangeError, MAX_DENSE_SIZE)
from .multiplier import (extract_symbols, assemble_truncated,
                         truncation_error_curve, non_increasing,
                         RECONSTRUCTION_TOL)
from .fio import fio_matrix
from .diagnostics import write_report
from .dilation import (compare_dilation_symbols, CLOSED_FORM_RTOL,
                       UNIMODULAR_TOL)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_A_FRAME = 2
EXIT_DECAY_RANGE = 3
EXIT_NEWTON_DIVERGENCE = 5
EXIT_INTERNAL = 6

# The subcommands that build the dense n^d x n^d FIO matrix.
FIO_COMMANDS = ("decay-scan", "approximate", "dilation-demo")

# dilation-demo's CSV: entries within ROW_TIE_RTOL * max |closed form| of
# a row's maximum tie, and the first of them is written.
ROW_TIE_RTOL = 1e-6

# The most complex entries (1 GiB) a run's largest dense arrays may hold
# at once; see _largest_array.
MAX_DENSE_ENTRIES = 2 ** 26

# The scaled weight of approximate stays >= 2^-WEIGHT_LOG2_RANGE, the
# square root of the smallest normal double; see _max_weight_s.
WEIGHT_LOG2_RANGE = 511

# The environment variables that set the BLAS thread pools, recorded in
# report.json's provenance (null when unset).
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What the config part constructors raise on a value they cannot use
# (float(10**400) raises OverflowError, a symbol's N = 0 ZeroDivisionError).
_BAD_VALUE = (ValueError, TypeError, ArithmeticError)

SYMBOL_KINDS = {
    "constant": lambda grid, seed, params: constant_symbol(
        grid, complex(params.get("value", 1.0))),
    "bandlimited": lambda grid, seed, params: bandlimited_symbol(
        grid, float(params["N"]), seed=int(params.get("seed", seed))),
    "weighted": lambda grid, seed, params: weighted_symbol(
        grid, float(params["s"]), seed=int(params.get("seed", seed))),
}


# ---------------------------------------------------------------- config

class ConfigError(Exception):
    """Every problem found in a config, as {"field", "error"} records."""

    def __init__(self):
        self.errors = []

    def add(self, field, error):
        """Record one problem; returns None, for the caller to return."""
        self.errors.append({"field": field, "error": error})


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _load_json(path, problems):
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        return problems.add("--config", str(exc))
    except ValueError as exc:
        return problems.add("--config", f"invalid JSON: {exc}")
    return _object(cfg, "--config", problems)


def _object(value, field, problems):
    """value if it is a JSON object, else None and a problem for field."""
    if isinstance(value, dict):
        return value
    return problems.add(field, "JSON object required")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, field, problems, low=-math.inf, strict=False):
    """value as a float if it is a finite number >= low (> low if strict)."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (value > low if strict else value >= low)):
        return float(value)
    return problems.add(field, f"a finite number {'>' if strict else '>='} "
                               f"{low:g} required")


def _resolve_seed(args, cfg, problems):
    """The --seed flag, else the config's seed, else 0; 0 after a problem."""
    field, seed = "--seed", args.seed
    if seed is None:
        field, seed = "seed", cfg.get("seed", 0)
    if _is_int(seed) and seed >= 0:
        return seed
    problems.add(field, "non-negative integer required")
    return 0


def _build_grid(cfg, problems):
    g = _object(cfg.get("grid", {}), "grid", problems)
    if g is None:
        return None
    n, d = g.get("n"), g.get("d", 1)
    if not _is_int(n) or n < 8:
        return problems.add("grid.n", "integer >= 8 required")
    if not _is_int(d) or d not in (1, 2):
        return problems.add("grid.d", "d must be 1 or 2")
    return Grid(n, d)


def _build_kind(cfg, section, kinds, problems, *args, default=None):
    """kinds[kind](*args, params) for a {"kind", "params"} config section."""
    sec = _object(cfg.get(section, default or {}), section, problems)
    if sec is None:
        return None
    kind = sec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        return problems.add(f"{section}.kind",
                            f"must be one of {sorted(kinds)}")
    params = _object(sec.get("params", {}), f"{section}.params", problems)
    try:
        return None if params is None else kinds[kind](*args, params)
    except KeyError as exc:
        return problems.add(f"{section}.params", f"missing {exc}")
    except _BAD_VALUE as exc:
        return problems.add(f"{section}.params", str(exc))


def _build_lattice(cfg, grid, command, problems):
    lcfg = _object(cfg.get("lattice", {}), "lattice", problems)
    if lcfg is None:
        return None
    if lcfg.get("units", "grid") != "grid":
        return problems.add("lattice.units", "only 'grid' units are supported")
    if lcfg.get("generator") is None:
        return problems.add("lattice.generator", "required")
    return _enumerate(lcfg["generator"], grid, command, "lattice.generator",
                      problems)


def _largest_array(command, grid, npoints):
    """Complex entries of the largest dense arrays command holds at once.

    3 n^d N for the atoms, since core.build_atoms holds three complex
    n^d x N tables at its peak.  Only warp-frame builds all N atoms (its
    warped points form no lattice); the lattice paths fold over cosets
    and hold one atom per translation, so for frame-check the count is
    conservative.  n^{2d} bounds the Walnut blocks of the frame operator
    and is warp-frame's Gram matrix.  N^2 is the Gabor matrix, which
    approximate and dilation-demo hold.  decay-scan holds no array with N
    columns of either: it makes T A only for the translations one column
    block meets, n^d x |M| each, and streams A^H T A in column blocks of
    about 1 MiB.  Its float64 distance tables and
    fio._max_squared_distance gather hold at most n^d N entries each,
    within the atoms' term.
    """
    sizes = [3 * grid.size * npoints, grid.size ** 2]
    if command in ("approximate", "dilation-demo"):
        sizes.append(npoints ** 2)
    return max(sizes)


def _unit_gaussian(grid, params):
    """dilation-demo's window: its closed form is for e^{-pi t^2} only."""
    if float(params.get("width", 1.0)) != 1.0:
        raise ValueError("dilation-demo's closed form needs width 1")
    return WINDOW_KINDS["gaussian"](grid, params)


def _max_weight_s(grid):
    """The largest weight_s approximate accepts on grid (d = 1).

    The weight enters truncation_error_curve scaled to its lattice
    maximum, ((1 + |z|^2) / (1 + R^2))^(s/2), and |z|^2 <= n/2 on the
    torus, so its smallest value is at least (1 + n/2)^(-s/2).  That
    stays >= 2^-WEIGHT_LOG2_RANGE: far from underflow, and a ratio of
    two weights stays far from overflow.
    """
    return 2.0 * WEIGHT_LOG2_RANGE * math.log(2.0) / math.log1p(grid.n / 2.0)


def _enumerate(gen, grid, command, field, problems):
    """The lattice of gen, once its point count N = n^{2d} / |det A| passes
    the size cap; enumerate_lattice names any other problem."""
    try:
        A = np.asarray(gen, dtype=float)
        det = abs(np.linalg.det(A)) if A.shape == (2 * grid.d,) * 2 else 0.0
        if 1 <= det < math.inf:   # an integer for any valid generator
            entries = _largest_array(command, grid,
                                     grid.size ** 2 / round(det))
            if entries > MAX_DENSE_ENTRIES:
                return problems.add(
                    field, f"{gen}: {command} would allocate dense arrays "
                           f"of {entries:.4g} complex entries, above "
                           f"{MAX_DENSE_ENTRIES}")
        return enumerate_lattice(A, grid)
    except (LatticeError, *_BAD_VALUE) as exc:
        return problems.add(field, f"{gen}: {exc}")


def _configure(args):
    """Load, build and validate the config of args.command before any work.

    Returns the parts the subcommand runs on as attributes; raises one
    ConfigError with every problem found.
    """
    problems = ConfigError()
    cfg = _load_json(args.config, problems)
    if cfg is None:
        raise problems
    command = args.command
    run = SimpleNamespace(cfg=cfg, seed=_resolve_seed(args, cfg, problems))
    grid = run.grid = _build_grid(cfg, problems)
    if grid and command in FIO_COMMANDS and (grid.d != 1
                                             or grid.size > MAX_DENSE_SIZE):
        # The dense FIO matrix exists only for d = 1, n <= MAX_DENSE_SIZE.
        problems.add("grid", f"{command} needs d = 1 and n <= {MAX_DENSE_SIZE}")
        grid = None
    demo = command == "dilation-demo"
    kinds = {"gaussian": _unit_gaussian} if demo else WINDOW_KINDS
    run.window = _build_kind(cfg, "window", kinds, problems, grid) if grid \
        else None
    run.lattice = _build_lattice(cfg, grid, command, problems) if grid \
        else None
    if command != "frame-check":
        kinds = {"dilation": BUILTIN_PHASES["dilation"]} if demo \
            else BUILTIN_PHASES
        run.phase = _build_kind(cfg, "phase", kinds, problems)
        if run.phase and grid and run.phase.d != grid.d:
            problems.add("phase.params", f"phase is d = {run.phase.d}, "
                                         f"grid is d = {grid.d}")
    if command in ("decay-scan", "approximate"):
        run.symbol = _build_kind(cfg, "symbol", SYMBOL_KINDS, problems, grid,
                                 run.seed, default={"kind": "constant"}) \
            if grid else None
    if command == "decay-scan":
        run.s_claim = _number(cfg.get("s_claim"), "s_claim", problems)
    elif command == "approximate":
        run.L_list = cfg.get("L_list")
        if not isinstance(run.L_list, list) or len(run.L_list) < 3:
            problems.add("L_list", "list of at least 3 numeric radii required")
        else:
            radii = [_number(L, "L_list", problems, low=0, strict=True)
                     for L in run.L_list]
            if None not in radii and len(set(radii)) < 3:
                # the truncation slope is a fit over distinct radii
                problems.add("L_list", "at least 3 distinct radii required")
        run.p = _number(cfg.get("p", 2.0), "p", problems, low=1)
        run.weight_s = _number(cfg.get("weight_s", 0.0), "weight_s", problems,
                               low=0)
        limit = _max_weight_s(grid) if grid else math.inf
        if run.weight_s is not None and run.weight_s > limit:
            problems.add("weight_s", f"at most {limit:.6g} at n = {grid.n}, "
                                     f"so that the scaled weight stays "
                                     f"above 2^-{WEIGHT_LOG2_RANGE}")
    elif demo:
        if run.phase:
            run.s = _number(cfg["phase"].get("params", {}).get("s", 2.0),
                            "phase.params.s", problems, low=0, strict=True)
        A = run.lattice.A if run.lattice else np.zeros((2, 2))
        if np.count_nonzero(A - np.diag(np.diag(A))):
            problems.add("lattice.generator",
                         "dilation-demo needs a separable diag(a, b) lattice")
        run.nu_radius = _number(cfg.get("nu_radius", 3.0), "nu_radius",
                                problems, low=0)
    elif command == "warp-frame":
        sweep = cfg.get("density_sweep", [])
        if not isinstance(sweep, list):
            sweep = problems.add("density_sweep",
                                 "list of lattice generators required") or []
        run.sweep = [_enumerate(gen, grid, command, "density_sweep",
                                problems) for gen in sweep] if grid else []
    if problems.errors:
        raise problems
    return run


# ---------------------------------------------------------------- output

def _write_csv(path, header, rows):
    """CSV with a header row, UNIX newlines, every field %.17g.

    Every value is a number: a Python int or float or a numpy floating,
    written with the 17 significant digits of format(float(v), ".17g");
    a str raises TypeError.  A row of another length than the header's
    raises ValueError.  The body is one row format, repeated per row,
    applied with a single %; no rows give a file of the header alone.
    """
    rows = list(rows)
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"every row must have {len(header)} values")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    body = line * len(rows) % tuple(chain.from_iterable(rows))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + body)


def _report(args, run, slopes, norms, verdicts):
    """Write report.json: the config, the results and the provenance."""
    provenance = {"package": "gaborfio", "version": __version__,
                  "command": args.command, "seed": run.seed,
                  "numpy_version": np.__version__,
                  "thread_env": {name: os.environ.get(name)
                                 for name in THREAD_ENV_VARS}}
    write_report(os.path.join(args.out, "report.json"), run.cfg, slopes,
                 norms, verdicts, provenance)


# ---------------------------------------------------------------- commands

def cmd_frame_check(args, run):
    spec = GaborFrameSpec(run.window, run.lattice)
    lo, hi = frame_bounds(spec)
    if not is_frame(spec):
        _report(args, run, {}, {"frame_bounds": [lo, hi]}, {"is_frame": False})
        raise NotAFrameError(f"lower frame bound vanishes (bounds {lo:.3g}, "
                             f"{hi:.3g})")
    tight = tighten(spec)
    dual = dual_window(spec)
    rng = np.random.default_rng(run.seed)
    probes = random_signal(run.grid, rng, count=20)
    energy = np.sum(np.abs(probes) ** 2, axis=0)
    coeff = np.sum(np.abs(analysis(probes, tight)) ** 2, axis=0)
    resid = float(np.max(np.abs(coeff - energy) / energy))
    idx = range(run.grid.size)
    for name, values in (("tight_window.csv", tight.window.values),
                         ("dual_window.csv", dual.values)):
        _write_csv(os.path.join(args.out, name), ["index", "re", "im"],
                   zip(idx, values.real.tolist(), values.imag.tolist()))
    tlo, thi = frame_bounds(tight)
    _report(args, run, {},
            {"frame_bounds": [lo, hi], "tight_bounds": [tlo, thi],
             "parseval_residual": resid},
            {"is_frame": True, "parseval_ok": resid < PARSEVAL_TOL})
    return EXIT_OK


def cmd_decay_scan(args, run):
    spec = tighten(GaborFrameSpec(run.window, run.lattice))
    cm = canonical_map(run.phase)
    T = make_fio(run.phase, run.symbol, run.grid)
    scan = scan_distances(spec.lattice, gabor_columns(T, spec), cm)
    transport = {"transport_max_dist": float(np.max(scan.dists)),
                 "transport_bound": scan.bound}
    try:
        rep = scan.decay_fit(run.s_claim)
    except InsufficientDecayRangeError as exc:
        _report(args, run, {}, transport, {"error": str(exc)})
        return EXIT_DECAY_RANGE
    _write_csv(os.path.join(args.out, "decay_bins.csv"),
               ["distance", "max_abs_G"],
               [(np.exp(lx), np.exp(ly)) for lx, ly in rep.pairs])
    _report(args, run, {"envelope": rep}, transport,
            {"decay_ok": rep.verdict, "transport_ok": scan.transport_ok})
    return EXIT_OK


def cmd_approximate(args, run):
    spec = tighten(GaborFrameSpec(run.window, run.lattice))
    cm = canonical_map(run.phase)
    T = make_fio(run.phase, run.symbol, run.grid)
    tsym = extract_symbols(T, spec, cm)
    curve, slope = truncation_error_curve(T, tsym, run.L_list, p=run.p,
                                          m=Weight(run.weight_s),
                                          seed=run.seed)
    full = assemble_truncated(tsym, np.inf)     # every shift: A cross A^H
    resid = float(np.max(np.abs(fio_matrix(T) - full)))
    _write_csv(os.path.join(args.out, "truncation_error.csv"),
               ["L", "error"], curve)
    _report(args, run, {"truncation_slope": slope},
            {"full_reconstruction_residual_max": resid},
            {"non_increasing": non_increasing(curve),
             "full_reconstruction_ok": resid < RECONSTRUCTION_TOL})
    return EXIT_OK


def cmd_dilation_demo(args, run):
    k, l, kp, lp, closed, numeric, max_rel, c_mod_dev = \
        compare_dilation_symbols(run.window, run.lattice, run.s, run.nu_radius)
    # CSV rows, plot-ready: for each shift nu (a row of the (K, N) tables)
    # the entry of largest |closed| and the entry of largest error, one row
    # when they coincide, in flat (K, N) order.  Entries within tol of a
    # row's maximum tie and the first is written; tol is absolute because
    # most errors are roundoff, whose relative size one ulp can change.
    # The summary metric covers the full 99%-mass set.  np.hypot rounds as
    # abs() of one complex does; np.abs of a complex array can be 2 ulp off
    # it.
    K, N = closed.shape
    camp = np.abs(closed)
    diff = numeric - closed
    err = np.hypot(diff.real, diff.imag)
    tol = ROW_TIE_RTOL * np.max(camp)
    cols = np.stack([np.argmax(t >= np.max(t, axis=1, keepdims=True) - tol,
                               axis=1) for t in (camp, err)], axis=1)
    r, c = np.divmod(np.unique(np.arange(K)[:, None] * N + cols), N)
    rows = np.column_stack([k[c], l[c], kp[r], lp[r],
                            closed.real[r, c], closed.imag[r, c],
                            numeric.real[r, c], numeric.imag[r, c],
                            err[r, c]])
    _write_csv(os.path.join(args.out, "dilation_symbols.csv"),
               ["k", "l", "kp", "lp", "closed_form_re", "closed_form_im",
                "numeric_re", "numeric_im", "abs_err"], rows.tolist())
    _report(args, run, {},
            {"max_relative_error_99pct": max_rel,
             "commutation_modulus_deviation": c_mod_dev},
            {"closed_form_ok": max_rel < CLOSED_FORM_RTOL,
             "unimodular_ok": c_mod_dev < UNIMODULAR_TOL})
    return EXIT_OK


def cmd_warp_frame(args, run):
    cm = canonical_map(run.phase)
    rep = warped_frame_check(run.window, run.lattice, cm.forward)
    sweep_rows = []
    for lat in run.sweep:
        r = warped_frame_check(run.window, lat, cm.forward)
        sweep_rows.append((lat.density, r.bounds[0], r.bounds[1]))
    sweep_rows.sort(key=lambda t: t[0])
    _write_csv(os.path.join(args.out, "density_sweep.csv"),
               ["density", "A_lo", "B_hi"], sweep_rows)
    lo, hi = rep.bounds
    _report(args, run, {},
            {"warped_bounds": [lo, hi],
             "max_rounding_displacement": rep.max_rounding_displacement,
             "warped_density": rep.density},
            {"is_frame": bounds_make_frame(lo, hi)})
    return EXIT_OK


COMMANDS = {
    "frame-check": cmd_frame_check,
    "decay-scan": cmd_decay_scan,
    "approximate": cmd_approximate,
    "dilation-demo": cmd_dilation_demo,
    "warp-frame": cmd_warp_frame,
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error on the field "argv"; the
    subcommand parsers inherit this class."""

    def error(self, message):
        problems = ConfigError()
        problems.add("argv", f"{self.prog}: {message}")
        raise problems


def _parser():
    ap = _Parser(prog="gaborfio", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed", type=int, default=None)
    return ap


def _run(argv):
    """(exit code, error list): the list on exits 1, 2, 5 and 6, else None."""
    try:
        args = _parser().parse_args(argv)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            return EXIT_CONFIG, [{"field": "--out", "error": str(exc)}]
        run = _configure(args)
        return COMMANDS[args.command](args, run), None
    except ConfigError as exc:
        return EXIT_CONFIG, exc.errors
    except NotAFrameError as exc:
        return EXIT_NOT_A_FRAME, [{"field": "lattice.generator",
                                   "error": f"not a frame: {exc}"}]
    except NewtonDivergenceError as exc:
        return EXIT_NEWTON_DIVERGENCE, [{"field": "phase", "error": str(exc)}]
    except Exception as exc:    # not KeyboardInterrupt or SystemExit
        return EXIT_INTERNAL, [{"field": "internal",
                                "error": f"{type(exc).__name__}: {exc}"}]


def main(argv=None) -> int:
    # Warnings are held until the exit is known: an error exit lists them
    # in its JSON object, so stderr stays one JSON document; any other
    # exit (an interrupt too) shows them as Python would have.
    errors = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            code, errors = _run(argv)
    finally:
        if errors is None:
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename,
                                     w.lineno)
    if errors is not None:
        doc = {"errors": errors}
        if caught:
            doc["warnings"] = [{"category": w.category.__name__,
                                "message": str(w.message)} for w in caught]
        json.dump(doc, sys.stderr, indent=2)
        sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
