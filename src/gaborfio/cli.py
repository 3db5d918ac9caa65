"""Command-line experiment harness.

Subcommands: frame-check, decay-scan, approximate, dilation-demo,
warp-frame.  Each run reads a JSON config, writes CSV data files plus a
report.json into --out, and is deterministic given (config, seed): CSV
bodies are byte-identical across reruns.

Exit codes: 0 success, 1 config error, 2 not a frame, 3 insufficient
decay range, 4 extraction-radius error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .core import Grid, Signal, Weight, random_signal
from .windows import make_window, WINDOW_KINDS
from .frames import (GaborFrameSpec, enumerate_lattice, frame_bounds,
                     is_frame, tighten, dual_window, analysis, LatticeError,
                     NotAFrameError)
from .phases import BUILTIN_PHASES, canonical_map
from .fio import (make_fio, constant_symbol, bandlimited_symbol,
                  weighted_symbol, gabor_matrix, decay_envelope_fit,
                  transport_argmax_check, InsufficientDecayRangeError)
from .multiplier import (extract_symbols, assemble_truncated,
                         truncation_error_curve, full_nu_radius,
                         ExtractionRadiusError)
from .fio import fio_matrix
from .diagnostics import write_report
from .dilation import dilation_symbol_closed_form

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_A_FRAME = 2
EXIT_DECAY_RANGE = 3
EXIT_EXTRACTION_RADIUS = 4


# ---------------------------------------------------------------- config

def _load_json(path, errors):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        errors.append({"field": "--config", "error": str(exc)})
    except json.JSONDecodeError as exc:
        errors.append({"field": "--config", "error": f"invalid JSON: {exc}"})
    return None


def _build_grid(cfg, errors):
    g = cfg.get("grid", {})
    n = g.get("n")
    d = g.get("d", 1)
    if not isinstance(n, int) or n < 8:
        errors.append({"field": "grid.n", "error": "integer >= 8 required"})
        return None
    if d not in (1, 2):
        errors.append({"field": "grid.d", "error": "d must be 1 or 2"})
        return None
    return Grid(n, d)


def _build_window(cfg, grid, errors):
    w = cfg.get("window", {})
    kind = w.get("kind")
    if kind not in WINDOW_KINDS:
        errors.append({"field": "window.kind",
                       "error": f"must be one of {sorted(WINDOW_KINDS)}"})
        return None
    try:
        return make_window(grid, kind, w.get("params", {}))
    except (ValueError, TypeError) as exc:
        errors.append({"field": "window.params", "error": str(exc)})
        return None


def _build_lattice(cfg, grid, errors):
    lcfg = cfg.get("lattice", {})
    gen = lcfg.get("generator")
    units = lcfg.get("units", "grid")
    if units != "grid":
        errors.append({"field": "lattice.units",
                       "error": "only 'grid' units are supported"})
        return None
    if gen is None:
        errors.append({"field": "lattice.generator", "error": "required"})
        return None
    try:
        return enumerate_lattice(np.asarray(gen, dtype=float), grid)
    except (LatticeError, ValueError) as exc:
        errors.append({"field": "lattice.generator", "error": str(exc)})
        return None


def _build_phase(cfg, errors):
    p = cfg.get("phase", {})
    kind = p.get("kind")
    if kind not in BUILTIN_PHASES:
        errors.append({"field": "phase.kind",
                       "error": f"must be one of {sorted(BUILTIN_PHASES)}"})
        return None
    try:
        return BUILTIN_PHASES[kind](p.get("params", {}))
    except (ValueError, TypeError) as exc:
        errors.append({"field": "phase.params", "error": str(exc)})
        return None


def _build_symbol(cfg, grid, seed, errors):
    s = cfg.get("symbol", {"kind": "constant"})
    kind = s.get("kind")
    params = s.get("params", {})
    try:
        if kind == "constant":
            return constant_symbol(grid, complex(params.get("value", 1.0)))
        if kind == "bandlimited":
            return bandlimited_symbol(grid, float(params["N"]),
                                      seed=int(params.get("seed", seed)))
        if kind == "weighted":
            return weighted_symbol(grid, float(params["s"]),
                                   seed=int(params.get("seed", seed)))
    except KeyError as exc:
        errors.append({"field": "symbol.params", "error": f"missing {exc}"})
        return None
    except (ValueError, TypeError) as exc:
        errors.append({"field": "symbol.params", "error": str(exc)})
        return None
    errors.append({"field": "symbol.kind",
                   "error": "must be constant, bandlimited, or weighted"})
    return None


def _fail_config(errors, code=EXIT_CONFIG):
    json.dump({"errors": errors}, sys.stderr, indent=2)
    sys.stderr.write("\n")
    return code


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


def _provenance(args, cfg):
    return {
        "package": "gaborfio",
        "version": __version__,
        "command": args.command,
        "seed": args.seed if args.seed is not None else cfg.get("seed", 0),
        "threads": _resolve_threads(args),
        "threads_applied": args.threads_applied,
    }


def _resolve_seed(args, cfg):
    if args.seed is not None:
        return int(args.seed)
    return int(cfg.get("seed", 0))


def _resolve_threads(args):
    if args.threads is not None:
        return int(args.threads)
    env = os.environ.get("GABORFIO_THREADS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            return 0
    return 0   # 0 = library default


# ---------------------------------------------------------------- commands

def cmd_frame_check(args):
    errors = []
    cfg = _load_json(args.config, errors)
    if cfg is None:
        return _fail_config(errors)
    grid = _build_grid(cfg, errors)
    window = _build_window(cfg, grid, errors) if grid else None
    lattice = _build_lattice(cfg, grid, errors) if grid else None
    if errors:
        return _fail_config(errors)
    seed = _resolve_seed(args, cfg)
    spec = GaborFrameSpec(window, lattice)
    lo, hi = frame_bounds(spec)
    out = args.out
    if not is_frame(spec):
        write_report(os.path.join(out, "report.json"), cfg, {},
                     {"frame_bounds": [lo, hi]},
                     {"is_frame": False}, _provenance(args, cfg))
        raise NotAFrameError(f"lower frame bound vanishes (bounds {lo:.3g}, "
                             f"{hi:.3g})")
    tight = tighten(spec)
    dual = dual_window(spec)
    rng = np.random.default_rng(seed)
    resid = 0.0
    for _ in range(20):
        f = random_signal(grid, rng)
        c = analysis(f, tight)
        resid = max(resid, abs(float(np.sum(np.abs(c) ** 2)) - f.norm() ** 2)
                    / f.norm() ** 2)
    idx = np.arange(grid.size)
    _write_csv(os.path.join(out, "tight_window.csv"),
               ["index", "re", "im"],
               zip(idx, tight.window.values.real, tight.window.values.imag))
    _write_csv(os.path.join(out, "dual_window.csv"),
               ["index", "re", "im"],
               zip(idx, dual.values.real, dual.values.imag))
    tlo, thi = frame_bounds(tight)
    write_report(os.path.join(out, "report.json"), cfg, {},
                 {"frame_bounds": [lo, hi], "tight_bounds": [tlo, thi],
                  "parseval_residual": resid},
                 {"is_frame": True, "parseval_ok": resid < 1e-8},
                 _provenance(args, cfg))
    return EXIT_OK


def cmd_decay_scan(args):
    errors = []
    cfg = _load_json(args.config, errors)
    if cfg is None:
        return _fail_config(errors)
    grid = _build_grid(cfg, errors)
    window = _build_window(cfg, grid, errors) if grid else None
    lattice = _build_lattice(cfg, grid, errors) if grid else None
    phase = _build_phase(cfg, errors)
    seed = _resolve_seed(args, cfg) if cfg else 0
    symbol = _build_symbol(cfg, grid, seed, errors) if grid else None
    s_claim = cfg.get("s_claim")
    if not isinstance(s_claim, (int, float)):
        errors.append({"field": "s_claim", "error": "numeric s_claim required"})
    if errors:
        return _fail_config(errors)
    spec = tighten(GaborFrameSpec(window, lattice))
    cm = canonical_map(phase)
    T = make_fio(phase, symbol, grid, cm)
    G = gabor_matrix(T, spec)
    out = args.out
    dists, bound = transport_argmax_check(G, cm)
    try:
        rep = decay_envelope_fit(G, cm, float(s_claim))
    except InsufficientDecayRangeError as exc:
        write_report(os.path.join(out, "report.json"), cfg, {},
                     {"transport_max_dist": float(np.max(dists)),
                      "transport_bound": bound},
                     {"error": str(exc)}, _provenance(args, cfg))
        return EXIT_DECAY_RANGE
    _write_csv(os.path.join(out, "decay_bins.csv"),
               ["distance", "max_abs_G"],
               [(np.exp(lx), np.exp(ly)) for lx, ly in rep.pairs])
    write_report(os.path.join(out, "report.json"), cfg,
                 {"envelope": rep.to_dict()},
                 {"transport_max_dist": float(np.max(dists)),
                  "transport_bound": bound},
                 {"decay_ok": rep.verdict,
                  "transport_ok": bool(np.max(dists) <= bound)},
                 _provenance(args, cfg))
    return EXIT_OK


def cmd_approximate(args):
    errors = []
    cfg = _load_json(args.config, errors)
    if cfg is None:
        return _fail_config(errors)
    grid = _build_grid(cfg, errors)
    window = _build_window(cfg, grid, errors) if grid else None
    lattice = _build_lattice(cfg, grid, errors) if grid else None
    phase = _build_phase(cfg, errors)
    seed = _resolve_seed(args, cfg) if cfg else 0
    symbol = _build_symbol(cfg, grid, seed, errors) if grid else None
    L_list = cfg.get("L_list")
    if (not isinstance(L_list, list) or len(L_list) < 3
            or not all(isinstance(L, (int, float)) for L in L_list)):
        errors.append({"field": "L_list",
                       "error": "list of at least 3 numeric radii required"})
    if errors:
        return _fail_config(errors)
    spec = tighten(GaborFrameSpec(window, lattice))
    cm = canonical_map(phase)
    T = make_fio(phase, symbol, grid, cm)
    nu_radius = float(cfg.get("nu_radius", full_nu_radius(spec)))
    p = float(cfg.get("p", 2.0))
    m = Weight("polynomial", float(cfg.get("weight_s", 0.0)))
    out = args.out
    try:
        tsym = extract_symbols(T, spec, cm, nu_radius)
        curve, slope = truncation_error_curve(T, tsym, spec, L_list,
                                              p=p, m=m, seed=seed)
        full = assemble_truncated(tsym, spec, tsym.nu_radius)
    except ExtractionRadiusError as exc:
        write_report(os.path.join(out, "report.json"), cfg, {}, {},
                     {"error": str(exc)}, _provenance(args, cfg))
        return EXIT_EXTRACTION_RADIUS
    resid = float(np.max(np.abs(fio_matrix(T) - full)))
    _write_csv(os.path.join(out, "truncation_error.csv"),
               ["L", "error"], curve)
    nonincr = all(curve[i + 1][1] <= curve[i][1] + 1e-10
                  for i in range(len(curve) - 1))
    write_report(os.path.join(out, "report.json"), cfg,
                 {"truncation_slope": slope},
                 {"full_reconstruction_residual_max": resid},
                 {"non_increasing": nonincr,
                  "full_reconstruction_ok": resid < 1e-9},
                 _provenance(args, cfg))
    return EXIT_OK


def cmd_dilation_demo(args):
    errors = []
    cfg = _load_json(args.config, errors)
    if cfg is None:
        return _fail_config(errors)
    grid = _build_grid(cfg, errors)
    window_cfg = cfg.get("window", {"kind": "gaussian"})
    if window_cfg.get("kind") != "gaussian":
        errors.append({"field": "window.kind",
                       "error": "dilation-demo requires the gaussian window"})
    phase_cfg = cfg.get("phase", {})
    if phase_cfg.get("kind") != "dilation":
        errors.append({"field": "phase.kind",
                       "error": "dilation-demo requires the dilation phase"})
    if grid is not None and grid.d != 1:
        errors.append({"field": "grid.d", "error": "dilation-demo is d = 1"})
    window = _build_window(cfg, grid, errors) if grid else None
    lattice = _build_lattice(cfg, grid, errors) if grid else None
    phase = _build_phase(cfg, errors)
    if errors:
        return _fail_config(errors)
    s = float(phase_cfg.get("params", {}).get("s", 2.0))
    A = np.asarray(lattice.A, dtype=float)
    if np.max(np.abs(A - np.diag(np.diag(A)))) > 0:
        return _fail_config([{"field": "lattice.generator",
                              "error": "dilation-demo needs a separable "
                                       "diag(a, b) lattice"}])
    a_steps, b_steps = int(A[0, 0]), int(A[1, 1])
    alpha, beta = a_steps * grid.h, b_steps * grid.h
    spec = tighten(GaborFrameSpec(window, lattice))
    # Calibrate the tight window against the unit Gaussian: at moderate
    # redundancy it is a scalar multiple rho of the window to ~1e-10.
    u = make_window(grid, "gaussian").values
    rho = float(np.real(np.vdot(u, spec.window.values)) / np.vdot(u, u).real)
    cm = canonical_map(phase)
    T = make_fio(phase, constant_symbol(grid), grid, cm)
    nu_radius = float(cfg.get("nu_radius", 3.0))
    tsym = extract_symbols(T, spec, cm, nu_radius)
    mu_int = lattice.int_coords
    nu_int = lattice.int_coords[tsym.nu_indices]
    k = mu_int[:, 0] / a_steps
    l = mu_int[:, 1] / b_steps
    kp = nu_int[:, 0] / a_steps
    lp = nu_int[:, 1] / b_steps
    closed = dilation_symbol_closed_form(s, alpha, beta, k[None, :],
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
    # CSV rows: the strong entries only (|closed| >= 1e-3 max), to keep the
    # table plot-ready; the summary metric covers the full 99%-mass set.
    strong = np.flatnonzero(camp >= 1e-3 * camp.max())
    K = nu_int.shape[0]
    N = mu_int.shape[0]
    kk = np.broadcast_to(k[None, :], (K, N)).ravel()
    ll = np.broadcast_to(l[None, :], (K, N)).ravel()
    kkp = np.broadcast_to(kp[:, None], (K, N)).ravel()
    llp = np.broadcast_to(lp[:, None], (K, N)).ravel()
    cr, nr = closed.ravel(), numeric.ravel()
    rows = [(kk[i], ll[i], kkp[i], llp[i], cr[i].real, cr[i].imag,
             nr[i].real, nr[i].imag, abs(nr[i] - cr[i])) for i in strong]
    out = args.out
    _write_csv(os.path.join(out, "dilation_symbols.csv"),
               ["k", "l", "kp", "lp", "closed_form_re", "closed_form_im",
                "numeric_re", "numeric_im", "abs_err"], rows)
    write_report(os.path.join(out, "report.json"), cfg, {},
                 {"max_relative_error_99pct": max_rel,
                  "commutation_modulus_deviation": c_mod_dev,
                  "calibration_rho": rho},
                 {"closed_form_ok": max_rel < 5e-2,
                  "unimodular_ok": c_mod_dev < 1e-12},
                 _provenance(args, cfg))
    return EXIT_OK


def cmd_warp_frame(args):
    errors = []
    cfg = _load_json(args.config, errors)
    if cfg is None:
        return _fail_config(errors)
    grid = _build_grid(cfg, errors)
    window = _build_window(cfg, grid, errors) if grid else None
    lattice = _build_lattice(cfg, grid, errors) if grid else None
    phase = _build_phase(cfg, errors)
    if errors:
        return _fail_config(errors)
    from .frames import warped_frame_check
    cm = canonical_map(phase)
    rep = warped_frame_check(window, lattice, cm.forward)
    sweep_cfg = cfg.get("density_sweep", [])
    sweep_rows = []
    for gen in sweep_cfg:
        try:
            lat = enumerate_lattice(np.asarray(gen, dtype=float), grid)
        except (LatticeError, ValueError) as exc:
            return _fail_config([{"field": "density_sweep",
                                  "error": f"{gen}: {exc}"}])
        r = warped_frame_check(window, lat, cm.forward)
        sweep_rows.append((lat.density, r.bounds[0], r.bounds[1]))
    sweep_rows.sort(key=lambda t: t[0])
    out = args.out
    _write_csv(os.path.join(out, "density_sweep.csv"),
               ["density", "A_lo", "B_hi"], sweep_rows)
    lo, hi = rep.bounds
    write_report(os.path.join(out, "report.json"), cfg, {},
                 {"warped_bounds": [lo, hi],
                  "max_rounding_displacement": rep.max_rounding_displacement,
                  "warped_density": rep.density},
                 {"is_frame": bool(lo > 1e-10 * hi)},
                 _provenance(args, cfg))
    return EXIT_OK


COMMANDS = {
    "frame-check": cmd_frame_check,
    "decay-scan": cmd_decay_scan,
    "approximate": cmd_approximate,
    "dilation-demo": cmd_dilation_demo,
    "warp-frame": cmd_warp_frame,
}


def _parser():
    ap = argparse.ArgumentParser(prog="gaborfio",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    threads = _resolve_threads(args)
    runner = COMMANDS[args.command]
    args.threads_applied = None   # the BLAS limit in force, None if none
    try:
        if threads > 0:
            try:
                from threadpoolctl import threadpool_limits
            except ImportError:
                return runner(args)
            with threadpool_limits(limits=threads):
                args.threads_applied = threads
                return runner(args)
        return runner(args)
    except NotAFrameError as exc:
        return _fail_config([{"field": "lattice.generator",
                              "error": f"not a frame: {exc}"}],
                            EXIT_NOT_A_FRAME)


if __name__ == "__main__":
    sys.exit(main())
