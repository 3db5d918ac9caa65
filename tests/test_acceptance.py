"""Acceptance gate: one test per headline claim, one printed verdict line each.

Run with pytest; verdict lines are printed directly to the terminal
(bypassing capture) so the gate is auditable in any log.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gaborfio.core import Grid, random_signal
from gaborfio.frames import (GaborFrameSpec, separable_lattice, tighten,
                             analysis, warped_frame_check, PARSEVAL_TOL)
from gaborfio.windows import gaussian_window, box_window
from gaborfio.phases import (linear_phase, dilation_phase, chirp_phase,
                             perturbed_phase, canonical_map)
from gaborfio.fio import (constant_symbol, bandlimited_symbol, make_fio,
                          fio_matrix, gabor_columns, scan_distances)
from gaborfio.multiplier import (extract_symbols, assemble_truncated,
                                 truncation_error_curve, non_increasing,
                                 RECONSTRUCTION_TOL)
from gaborfio.dilation import compare_dilation_symbols, CLOSED_FORM_RTOL

PHASES = [linear_phase(), dilation_phase(2.0), chirp_phase(0.25),
          perturbed_phase(0.1)]


def verdict(capsys, ok, label, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def tight64(a=4, b=4):
    grid = Grid(64)
    return grid, tighten(GaborFrameSpec(gaussian_window(grid),
                                        separable_lattice(a, b, grid)))


def test_acceptance_1_parseval_exactness(capsys):
    t0 = time.time()
    grid, spec = tight64()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        f = random_signal(grid, rng)
        total = float(np.sum(np.abs(analysis(f, spec)) ** 2))
        worst = max(worst, abs(total - f.norm() ** 2) / f.norm() ** 2)
    verdict(capsys, worst < PARSEVAL_TOL and time.time() - t0 < 5.0,
            "parseval exactness",
            f"max relative error {worst:.2e} over 20 signals "
            f"({time.time() - t0:.1f}s)")


def test_acceptance_2_exact_representation(capsys):
    t0 = time.time()
    grid, spec = tight64()
    worst = 0.0
    for phase in PHASES:
        cm = canonical_map(phase)
        T = make_fio(phase, constant_symbol(grid), grid)
        rebuilt = assemble_truncated(extract_symbols(T, spec, cm), np.inf)
        worst = max(worst, float(np.max(np.abs(fio_matrix(T) - rebuilt))))
    verdict(capsys, worst < RECONSTRUCTION_TOL,
            "exact full-shift representation",
            f"max entry error {worst:.2e} over 4 phases "
            f"({time.time() - t0:.1f}s)")


def test_acceptance_3_almost_diagonalization(capsys):
    t0 = time.time()
    grid, spec = tight64(2, 2)
    phase = dilation_phase(2.0)
    cm = canonical_map(phase)
    fits = {}
    for N in (2, 3):
        T = make_fio(phase, bandlimited_symbol(grid, N), grid)
        scan = scan_distances(spec.lattice, gabor_columns(T, spec), cm)
        fits[N] = scan.decay_fit(2.0 * N)           # decay-scan's s_claim 2N
    s2, s3 = fits[2].slope, fits[3].slope
    ok = fits[2].verdict and s3 - s2 <= -1.0
    verdict(capsys, ok, "almost diagonalization",
            f"slope(N=2) {s2:.2f} <= {fits[2].tolerance - fits[2].claim:.2f}, "
            f"slope(N=3) {s3:.2f} drops by {s2 - s3:.2f} >= 1 "
            f"({time.time() - t0:.1f}s)")


def test_acceptance_4_transport_property(capsys):
    t0 = time.time()
    grid, spec = tight64()
    ok, worst, bound = True, 0.0, None
    for phase in PHASES:
        cm = canonical_map(phase)
        T = make_fio(phase, constant_symbol(grid), grid)
        scan = scan_distances(spec.lattice, gabor_columns(T, spec), cm)
        ok &= scan.transport_ok
        worst, bound = max(worst, float(np.max(scan.dists))), scan.bound
    verdict(capsys, ok, "transport property",
            f"max row-argmax distance {worst:.3f} <= bound {bound:.3f}, "
            f"4 phases ({time.time() - t0:.1f}s)")


def test_acceptance_5_truncation_rate(capsys):
    t0 = time.time()
    grid, spec = tight64()
    phase = dilation_phase(2.0)
    cm = canonical_map(phase)
    T = make_fio(phase, bandlimited_symbol(grid, 2), grid)
    tsym = extract_symbols(T, spec, cm)
    curve, slope = truncation_error_curve(T, tsym, [1, 2, 4, 8, 16])
    nonincr = non_increasing(curve)
    ok = nonincr and slope <= -(2 * 2 - 2) + 0.75
    verdict(capsys, ok, "truncation rate",
            f"non-increasing={nonincr}, slope {slope:.2f} <= -1.25 "
            f"({time.time() - t0:.1f}s)")


def test_acceptance_6_dilation_closed_form(capsys):
    t0 = time.time()
    grid = Grid(256)
    lat = separable_lattice(4, 4, grid)       # alpha = beta = 1/4
    *_, rel, cdev = compare_dilation_symbols(gaussian_window(grid), lat,
                                             2.0, 3.0)
    # |c| within 1e-15 of 1: stricter than the CLI's UNIMODULAR_TOL.
    ok = rel < CLOSED_FORM_RTOL and cdev <= 1e-15
    verdict(capsys, ok, "dilation closed form",
            f"max rel error {rel:.2e} < {CLOSED_FORM_RTOL:g} on 99%-mass "
            f"entries, |c| off by {cdev:.1e} ({time.time() - t0:.1f}s)")


def test_acceptance_7_frame_dichotomy(capsys):
    t0 = time.time()
    grid = Grid(64)
    cm = canonical_map(perturbed_phase(0.1))
    lat = separable_lattice(4, 8, grid)       # density 2
    pos = warped_frame_check(gaussian_window(grid), lat, cm.forward)
    pos_ratio = pos.bounds[0] / pos.bounds[1]

    def dilation_warp(z):
        z = np.asarray(z, dtype=float)
        return np.column_stack([z[:, 0] / 2.0, z[:, 1] * 2.0])

    neg = warped_frame_check(box_window(grid, 0.4),
                             separable_lattice(16, 4, grid), dilation_warp)
    neg_ratio = neg.bounds[0] / neg.bounds[1]
    ok = pos_ratio > 1e-6 and neg_ratio < 1e-10
    verdict(capsys, ok, "frame dichotomy",
            f"warped gaussian ratio {pos_ratio:.2e} > 1e-6, disjoint-support "
            f"box ratio {neg_ratio:.2e} < 1e-10 ({time.time() - t0:.1f}s)")


def test_acceptance_8_invariant_suites(capsys):
    t0 = time.time()
    here = os.path.dirname(__file__)
    files = [os.path.join(here, f"test_{m}.py")
             for m in ("core", "frames", "phases", "fio", "multiplier",
                       "diagnostics", "dilation", "cli")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *files],
        capture_output=True, text=True, timeout=300)
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    verdict(capsys, proc.returncode == 0, "invariant suites",
            f"{tail} ({time.time() - t0:.1f}s)")
