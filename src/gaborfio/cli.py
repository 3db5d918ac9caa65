"""Command-line experiment harness.

Subcommands: frame-check, decay-scan, approximate, dilation-demo,
warp-frame.  Each run reads a JSON config, writes CSV data files plus a
report.json into --out, and is deterministic given (config, seed): CSV
bodies are byte-identical across reruns.  One builder checks every config
field before any computation starts.

Exit codes: 0 success, 1 config or usage error (a bad flag or thread
count, an --out that cannot be created), 2 not a frame, 3 insufficient
decay range, 4 extraction-radius error, 5 the canonical map's Newton
solve diverged, 6 internal error (an unexpected exception).  On exits 1,
2, 5 and 6 stderr is one JSON object: the error list, plus the warnings
the run raised, if any.
"""

import argparse
import json
import math
import os
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from . import __version__
from .core import Grid, Weight, random_signal
from .windows import make_window, WINDOW_KINDS
from .frames import (GaborFrameSpec, enumerate_lattice, frame_bounds,
                     is_frame, tighten, dual_window, analysis,
                     warped_frame_check, LatticeError, NotAFrameError)
from .phases import BUILTIN_PHASES, canonical_map, NewtonDivergenceError
from .fio import (make_fio, constant_symbol, bandlimited_symbol,
                  weighted_symbol, gabor_matrix, decay_envelope_fit,
                  transport_argmax_check, InsufficientDecayRangeError,
                  MAX_DENSE_SIZE)
from .multiplier import (extract_symbols, assemble_truncated,
                         truncation_error_curve, full_nu_radius,
                         ExtractionRadiusError, _sandwich)
from .fio import fio_matrix
from .diagnostics import write_report
from .dilation import dilation_symbol_closed_form

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_A_FRAME = 2
EXIT_DECAY_RANGE = 3
EXIT_EXTRACTION_RADIUS = 4
EXIT_NEWTON_DIVERGENCE = 5
EXIT_INTERNAL = 6

# The subcommands that build the dense n^d x n^d FIO matrix.
FIO_COMMANDS = ("decay-scan", "approximate", "dilation-demo")

# dilation-demo's CSV: entries within this relative tolerance of a row's
# maximum tie, and the first of them is written.
ROW_TIE_RTOL = 1e-6

# The most complex entries (1 GiB) a run's largest dense arrays may hold
# at once; see _largest_array.
MAX_DENSE_ENTRIES = 2 ** 26

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


def _resolve_threads(args, problems):
    """The --threads flag, else GABORFIO_THREADS, else 0 (the library
    default); 0 after a problem."""
    field, threads = "--threads", args.threads
    if threads is None:
        field, threads = "GABORFIO_THREADS", os.environ.get(
            "GABORFIO_THREADS", "0")
        try:
            threads = int(threads)
        except ValueError:
            pass
    if _is_int(threads) and threads >= 0:
        return threads
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
    and is warp-frame's Gram matrix; the FIO subcommands hold the N x N
    Gabor matrix.
    """
    sizes = [3 * grid.size * npoints, grid.size ** 2]
    if command in FIO_COMMANDS:
        sizes.append(npoints ** 2)
    return max(sizes)


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
    threads = _resolve_threads(args, problems)
    cfg = _load_json(args.config, problems)
    if cfg is None:
        raise problems
    command = args.command
    run = SimpleNamespace(cfg=cfg, seed=_resolve_seed(args, cfg, problems),
                          threads=threads, threads_applied=None)
    grid = run.grid = _build_grid(cfg, problems)
    if grid and command in FIO_COMMANDS and (grid.d != 1
                                             or grid.size > MAX_DENSE_SIZE):
        # The dense FIO matrix exists only for d = 1, n <= MAX_DENSE_SIZE.
        problems.add("grid", f"{command} needs d = 1 and n <= {MAX_DENSE_SIZE}")
        grid = None
    demo = command == "dilation-demo"
    kinds = {"gaussian": WINDOW_KINDS["gaussian"]} if demo else WINDOW_KINDS
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
        run.nu_radius = cfg.get("nu_radius")   # None: every lattice shift
        if run.nu_radius is not None:
            run.nu_radius = _number(run.nu_radius, "nu_radius", problems, low=0)
        run.p = _number(cfg.get("p", 2.0), "p", problems, low=1)
        run.weight_s = _number(cfg.get("weight_s", 0.0), "weight_s", problems,
                               low=0)
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

def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    """CSV with a header row, 17 significant digits, UNIX newlines."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _report(args, run, slopes, norms, verdicts):
    """Write report.json: the config, the results and the provenance."""
    provenance = {"package": "gaborfio", "version": __version__,
                  "command": args.command, "seed": run.seed,
                  "threads": run.threads,
                  "threads_applied": run.threads_applied}
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
    probes = np.column_stack([random_signal(run.grid, rng).values
                              for _ in range(20)])
    energy = np.sum(np.abs(probes) ** 2, axis=0)
    coeff = np.sum(np.abs(analysis(probes, tight)) ** 2, axis=0)
    resid = float(np.max(np.abs(coeff - energy) / energy))
    idx = np.arange(run.grid.size)
    _write_csv(os.path.join(args.out, "tight_window.csv"),
               ["index", "re", "im"],
               zip(idx, tight.window.values.real, tight.window.values.imag))
    _write_csv(os.path.join(args.out, "dual_window.csv"),
               ["index", "re", "im"],
               zip(idx, dual.values.real, dual.values.imag))
    tlo, thi = frame_bounds(tight)
    _report(args, run, {},
            {"frame_bounds": [lo, hi], "tight_bounds": [tlo, thi],
             "parseval_residual": resid},
            {"is_frame": True, "parseval_ok": resid < 1e-8})
    return EXIT_OK


def cmd_decay_scan(args, run):
    spec = tighten(GaborFrameSpec(run.window, run.lattice))
    cm = canonical_map(run.phase)
    T = make_fio(run.phase, run.symbol, run.grid)
    G = gabor_matrix(T, spec)
    dists, bound = transport_argmax_check(G, cm)
    transport = {"transport_max_dist": float(np.max(dists)),
                 "transport_bound": bound}
    try:
        rep = decay_envelope_fit(G, cm, run.s_claim)
    except InsufficientDecayRangeError as exc:
        _report(args, run, {}, transport, {"error": str(exc)})
        return EXIT_DECAY_RANGE
    _write_csv(os.path.join(args.out, "decay_bins.csv"),
               ["distance", "max_abs_G"],
               [(np.exp(lx), np.exp(ly)) for lx, ly in rep.pairs])
    _report(args, run, {"envelope": rep.to_dict()}, transport,
            {"decay_ok": rep.verdict,
             "transport_ok": bool(np.max(dists) <= bound)})
    return EXIT_OK


def cmd_approximate(args, run):
    spec = tighten(GaborFrameSpec(run.window, run.lattice))
    cm = canonical_map(run.phase)
    T = make_fio(run.phase, run.symbol, run.grid)
    nu_radius = full_nu_radius(spec) if run.nu_radius is None else run.nu_radius
    try:
        tsym = extract_symbols(T, spec, cm, nu_radius)
        curve, slope = truncation_error_curve(
            T, tsym, spec, run.L_list, p=run.p,
            m=Weight(run.weight_s), seed=run.seed)
        # T = A cross A^H; a partial nu_radius bars only the T_L beyond it.
        full = assemble_truncated(tsym, spec, nu_radius) \
            if run.nu_radius is None else _sandwich(tsym.cross, spec)
    except ExtractionRadiusError as exc:
        _report(args, run, {}, {}, {"error": str(exc)})
        return EXIT_EXTRACTION_RADIUS
    resid = float(np.max(np.abs(fio_matrix(T) - full)))
    _write_csv(os.path.join(args.out, "truncation_error.csv"),
               ["L", "error"], curve)
    nonincr = all(curve[i + 1][1] <= curve[i][1] + 1e-10
                  for i in range(len(curve) - 1))
    _report(args, run, {"truncation_slope": slope},
            {"full_reconstruction_residual_max": resid},
            {"non_increasing": nonincr,
             "full_reconstruction_ok": resid < 1e-9})
    return EXIT_OK


def _first_near_max(table):
    """Per row, the first column within ROW_TIE_RTOL of the row maximum.

    Roundoff cannot then pick another of several equal maxima."""
    top = np.max(table, axis=1, keepdims=True)
    return np.argmax(table >= (1.0 - ROW_TIE_RTOL) * top, axis=1)


def cmd_dilation_demo(args, run):
    grid, lattice = run.grid, run.lattice
    a_steps, b_steps = int(lattice.A[0, 0]), int(lattice.A[1, 1])
    alpha, beta = a_steps * grid.h, b_steps * grid.h
    spec = tighten(GaborFrameSpec(run.window, lattice))
    # Calibrate the tight window against the unit Gaussian: at moderate
    # redundancy it is a scalar multiple rho of the window to ~1e-10.
    u = make_window(grid, "gaussian").values
    rho = float(np.real(np.vdot(u, spec.window.values)) / np.vdot(u, u).real)
    cm = canonical_map(run.phase)
    T = make_fio(run.phase, constant_symbol(grid), grid)
    tsym = extract_symbols(T, spec, cm, run.nu_radius)
    mu_int = lattice.int_coords
    nu_int = lattice.int_coords[tsym.nu_indices]
    k = mu_int[:, 0] / a_steps
    l = mu_int[:, 1] / b_steps
    kp = nu_int[:, 0] / a_steps
    lp = nu_int[:, 1] / b_steps
    closed = dilation_symbol_closed_form(run.s, alpha, beta, k[None, :],
                                         l[None, :], kp[:, None], lp[:, None])
    numeric = tsym.a * grid.h / rho ** 2
    camp = np.abs(closed).ravel()
    order = np.argsort(camp, kind="stable")[::-1]
    csum = np.cumsum(camp[order])
    keep = order[:int(np.searchsorted(csum, 0.99 * csum[-1])) + 1]
    rel = (np.abs(numeric.ravel()[keep] - closed.ravel()[keep])
           / camp[keep])
    max_rel = float(np.max(rel))
    c_mod_dev = float(np.max(np.abs(np.abs(tsym.c) - 1.0)))
    # CSV rows, plot-ready: for each shift nu (a row of the (K, N) tables)
    # the entry of largest |closed| and the entry of largest error, one row
    # when they coincide, in flat (K, N) order.  The summary metric above
    # covers the full 99%-mass set.  np.hypot rounds as abs() of one
    # complex does; np.abs of a complex array can be 2 ulp off it.
    K, N = closed.shape
    diff = numeric - closed
    err = np.hypot(diff.real, diff.imag)
    cols = np.stack([_first_near_max(camp.reshape(K, N)),
                     _first_near_max(err)], axis=1)
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
             "commutation_modulus_deviation": c_mod_dev,
             "calibration_rho": rho},
            {"closed_form_ok": max_rel < 5e-2,
             "unimodular_ok": c_mod_dev < 1e-12})
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
            {"is_frame": bool(lo > 1e-10 * hi)})
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
        sp.add_argument("--threads", type=int, default=None)
    return ap


def _run(argv):
    """(exit code, error list): the list on exits 1, 2, 5 and 6, else None."""
    try:
        args = _parser().parse_args(argv)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            return EXIT_CONFIG, [{"field": "--out", "error": str(exc)}]
        runner = COMMANDS[args.command]
        run = _configure(args)
        if run.threads > 0:
            try:
                from threadpoolctl import threadpool_limits
            except ImportError:
                return runner(args, run), None
            with threadpool_limits(limits=run.threads):
                run.threads_applied = run.threads  # the BLAS limit in force
                return runner(args, run), None
        return runner(args, run), None
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
