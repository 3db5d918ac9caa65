"""Property tests of the row-chunked distance pass of fio.py.

pair_distances, transport_argmax_check and decay_envelope_fit read
|chi(mu) - lam|^2 from per-axis tables in row blocks.  Each is checked
here, bit for bit, against the dense oracle kept below: the N x N x 2
wrapped displacement tensor and the ten boolean bin masks.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from gaborfio import fio
from gaborfio.core import Grid
from gaborfio.diagnostics import DecayReport, loglog_fit
from gaborfio.fio import (InsufficientDecayRangeError, bandlimited_symbol,
                          constant_symbol, decay_envelope_fit, gabor_matrix,
                          make_fio, pair_distances, transport_argmax_check)
from gaborfio.frames import GaborFrameSpec, enumerate_lattice, tighten
from gaborfio.phases import (CanonicalMap, canonical_map, chirp_phase,
                             dilation_phase, perturbed_phase)
from gaborfio.windows import gaussian_window
from test_lattice_algebra import commensurate_generators

MAX_POINTS = 512


def dense_squared_displacements(lat, cmap):
    """|chi(mu) - lam|^2 [mu, lam] from the full N x N x 2 tensor."""
    diff = lat.grid.wrap_coord(cmap.forward(lat.coords())[:, None, :]
                               - lat.coords()[None, :, :])
    return np.sum(diff * diff, axis=-1)


def dense_transport(G, cmap, tie_rtol=1e-9):
    mag = np.abs(G.entries)
    alldists = np.sqrt(dense_squared_displacements(G.lattice, cmap))
    rowmax = np.max(mag, axis=1, keepdims=True)
    tied = mag >= (1.0 - tie_rtol) * rowmax
    return np.min(np.where(tied, alldists, np.inf), axis=1)


def dense_decay_fit(G, cmap, s_claim, nbins=10, tolerance=0.75):
    r = np.sqrt(1.0 + dense_squared_displacements(G.lattice, cmap))
    mag = np.abs(G.entries)
    r_max = float(np.max(r))
    lo, hi = 2.0, r_max / 2.0
    if hi <= lo:
        raise InsufficientDecayRangeError(
            f"usable distance range [2, {hi:.3g}] is empty")
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), nbins + 1))
    pts = []
    for k in range(nbins):
        sel = (r >= edges[k]) & (r < edges[k + 1])
        if not np.any(sel):
            continue
        pts.append((np.exp(0.5 * (np.log(edges[k]) + np.log(edges[k + 1]))),
                    float(np.max(mag[sel]))))
    if len(pts) < 4:
        raise InsufficientDecayRangeError(
            f"only {len(pts)} usable distance bins; need at least 4")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, intercept, residual = loglog_fit(np.column_stack([xs, ys]))
    return DecayReport(
        pairs=[(float(np.log(a)), float(np.log(b))) for a, b in pts],
        slope=slope, intercept=intercept, residual=residual,
        claim=s_claim, tolerance=tolerance,
        verdict=bool(slope <= -s_claim + tolerance))


def decay_or_error(fit, G, cmap):
    try:
        return fit(G, cmap, 4.0)
    except InsufficientDecayRangeError as exc:
        return str(exc)


PHASES = [dilation_phase(2.0), perturbed_phase(0.1), chirp_phase(0.5)]


@settings(max_examples=60, deadline=None, database=None)
@given(commensurate_generators(sizes=((32, 48, 64, 96),), dims=(1,)),
       st.sampled_from(PHASES), st.sampled_from(["constant", "bandlimited"]),
       st.sampled_from(["one", "seven", "all"]), st.integers(0, 2 ** 16))
def test_distance_blocks_match_the_dense_oracle(gen, phase, symbol, rows,
                                                seed):
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    N = lat.npoints
    assume(N <= MAX_POINTS)
    cm = canonical_map(phase)
    S = constant_symbol(grid) if symbol == "constant" \
        else bandlimited_symbol(grid, 2, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # most draws are not tight frames
        G = gabor_matrix(make_fio(phase, S, grid),
                         GaborFrameSpec(gaussian_window(grid), lat))
    block_rows = {"one": 1, "seven": 7, "all": N + 3}[rows]
    with mock.patch.object(fio, "_BLOCK_BYTES", 8 * N * block_rows):
        r = pair_distances(G, cm)
        dists, _ = transport_argmax_check(G, cm)
        rep = decay_or_error(decay_envelope_fit, G, cm)
    assert np.array_equal(
        r, np.sqrt(1.0 + dense_squared_displacements(lat, cm)))
    assert np.array_equal(dists, dense_transport(G, cm))
    oracle = decay_or_error(dense_decay_fit, G, cm)
    if isinstance(oracle, str):
        assert rep == oracle
    else:
        for field in ("pairs", "slope", "intercept", "residual", "claim",
                      "tolerance", "verdict"):
            assert np.array_equal(getattr(rep, field), getattr(oracle, field))


def test_constant_symbol_ties_reach_the_tie_rule():
    # The s = 2 dilation output is half-torus periodic, so with a constant
    # symbol every row maximum is tied with its alias; the rule must report
    # the nearer of the two, as the dense oracle does.
    grid = Grid(64)
    lat = enumerate_lattice(np.diag([4, 4]), grid)
    cm = canonical_map(dilation_phase(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        G = gabor_matrix(make_fio(cm.phase, constant_symbol(grid), grid),
                         GaborFrameSpec(gaussian_window(grid), lat))
    mag = np.abs(G.entries)
    tied = mag >= (1.0 - 1e-9) * np.max(mag, axis=1, keepdims=True)
    assert np.all(np.sum(tied, axis=1) >= 2)
    with mock.patch.object(fio, "_BLOCK_BYTES", 8 * lat.npoints * 7):
        dists, _ = transport_argmax_check(G, cm)
    assert np.array_equal(dists, dense_transport(G, cm))


def test_canonical_map_runs_once_per_public_call():
    grid = Grid(64)
    lat = enumerate_lattice(np.diag([2, 2]), grid)
    cm = canonical_map(dilation_phase(2.0))
    spec = tighten(GaborFrameSpec(gaussian_window(grid), lat))
    G = gabor_matrix(make_fio(cm.phase, bandlimited_symbol(grid, 2), grid),
                     spec)
    forward = CanonicalMap.forward
    for call in (lambda: pair_distances(G, cm),
                 lambda: transport_argmax_check(G, cm),
                 lambda: decay_envelope_fit(G, cm, 4.0)):
        with mock.patch.object(CanonicalMap, "forward", autospec=True,
                               side_effect=forward) as spy:
            call()
        assert spy.call_count == 1
