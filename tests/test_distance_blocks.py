"""Property tests of the column-block distance pass of fio.py.

pair_distances and scan_distances read |chi(mu) - lam|^2 from per-axis
tables over the used grid indices, in column blocks; scan_distances
makes one pass for both transport_argmax_check and decay_envelope_fit,
with the largest distance taken over the lattice's cosets, over the
blocks of a stored Gabor matrix or the stream of gabor_columns.  Each is
checked here, bit for bit, against the dense oracle kept below: the
N x N x 2 wrapped displacement tensor and the ten boolean bin masks.
The stream's blocks keep their rows in the analysis kernel's coset
order, checked against analysis and against the stored matrix, which is
those blocks side by side, and the T A they are made from, translation
by translation, is checked against the dense atoms.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from gaborfio import fio, frames
from gaborfio.core import Grid, build_atoms, random_signal
from gaborfio.diagnostics import DecayReport, loglog_fit
from gaborfio.fio import (InsufficientDecayRangeError, bandlimited_symbol,
                          constant_symbol, decay_envelope_fit, fio_matrix,
                          gabor_columns, gabor_matrix, make_fio,
                          pair_distances, scan_distances,
                          transport_argmax_check)
from gaborfio.frames import (GaborFrameSpec, analysis, enumerate_lattice,
                             tighten)
from gaborfio.phases import (CanonicalMap, canonical_map, chirp_phase,
                             dilation_phase, perturbed_phase)
from gaborfio.windows import gaussian_window
from oracles import gabor_cross
from test_lattice_algebra import commensurate_generators

MAX_POINTS = 512


def dense_squared_displacements(lat, cmap):
    """|chi(mu) - lam|^2 [mu, lam] from the full N x N x 2 tensor."""
    diff = lat.grid.wrap_coord(cmap.forward(lat.coords())[:, None, :]
                               - lat.coords()[None, :, :])
    return np.sum(diff * diff, axis=-1)


def dense_transport(G, cmap, tie_rtol=1e-9):
    mag = np.abs(gabor_cross(G).T)   # [mu, lam]
    alldists = np.sqrt(dense_squared_displacements(G.spec.lattice, cmap))
    rowmax = np.max(mag, axis=1, keepdims=True)
    tied = mag >= (1.0 - tie_rtol) * rowmax
    return np.min(np.where(tied, alldists, np.inf), axis=1)


def dense_decay_fit(G, cmap, s_claim, nbins=10, tolerance=0.75):
    r = np.sqrt(1.0 + dense_squared_displacements(G.spec.lattice, cmap))
    mag = np.abs(gabor_cross(G).T)
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


def block_bytes(N, columns):
    """frames._BLOCK_BYTES that makes the Gabor stream `columns` wide."""
    return 16 * N * columns


@settings(max_examples=60, deadline=None, database=None)
@given(commensurate_generators(sizes=((32, 48, 64, 96),), dims=(1,)),
       st.sampled_from(PHASES), st.sampled_from(["constant", "bandlimited"]),
       st.sampled_from(["one", "seven", "all"]), st.integers(0, 2 ** 16))
@example((np.diag([2, 2]), Grid(16)), PHASES[0], "bandlimited", "seven", 0)
# Non-separable, with a constant symbol: many tied row maxima.
@example((np.array([[2, 0], [1, 4]]), Grid(32)), PHASES[0], "constant",
         "one", 0)
def test_distance_blocks_match_the_dense_oracle(gen, phase, symbol, columns,
                                                seed):
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    N = lat.npoints
    assume(N <= MAX_POINTS)
    cm = canonical_map(phase)
    S = constant_symbol(grid) if symbol == "constant" \
        else bandlimited_symbol(grid, 2, seed=seed)
    T = make_fio(phase, S, grid)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    width = {"one": 1, "seven": 7, "all": N + 3}[columns]
    with warnings.catch_warnings(), \
            mock.patch.object(frames, "_BLOCK_BYTES", block_bytes(N, width)):
        warnings.simplefilter("ignore")   # most draws are not tight frames
        G = gabor_matrix(T, spec)
        r = pair_distances(G, cm)
        dists, _ = transport_argmax_check(G, cm)
        rep = decay_or_error(decay_envelope_fit, G, cm)
        stored = scan_distances(lat, G.column_blocks(), cm)
        stream = scan_distances(lat, gabor_columns(T, spec), cm)
    assert np.array_equal(
        r, np.sqrt(1.0 + dense_squared_displacements(lat, cm)))
    oracle_dists = dense_transport(G, cm)
    assert np.array_equal(dists, oracle_dists)
    for scan in (stored, stream):   # the pass cmd_decay_scan makes
        assert np.array_equal(scan.dists, oracle_dists)
    assert stream.r_max == stored.r_max
    assert np.array_equal(stream.binmax, stored.binmax)
    oracle = decay_or_error(dense_decay_fit, G, cm)
    for fit in (rep, *(decay_or_error(lambda G, cm, s: scan.decay_fit(s),
                                      G, cm) for scan in (stored, stream))):
        if isinstance(oracle, str):
            assert fit == oracle
        else:
            for field in ("pairs", "slope", "intercept", "residual", "claim",
                          "tolerance", "verdict"):
                assert np.array_equal(getattr(fit, field),
                                      getattr(oracle, field))


@settings(max_examples=40, deadline=None, database=None)
@given(commensurate_generators(dims=(1,)),
       st.sampled_from(["constant", "bandlimited"]),
       st.sampled_from(["one", "seven", "all"]), st.integers(0, 2 ** 16))
@example((np.array([[2, 0], [1, 4]]), Grid(32)), "bandlimited", "seven", 0)
def test_stream_blocks_are_in_coset_order(gen, symbol, columns, seed):
    # gabor_columns yields the analysis kernel's blocks unscattered: row
    # k N_t + t is the lattice point Cosets.index[k, t].  gabor_matrix
    # stores them as they come, and column_blocks gives back views of
    # that one table; the distance tables' rows are in the same order.
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    N = lat.npoints
    assume(N <= MAX_POINTS)
    cos = frames._cosets(lat)
    order = cos.index.ravel()
    S = constant_symbol(grid) if symbol == "constant" \
        else bandlimited_symbol(grid, 2, seed=seed)
    T = make_fio(dilation_phase(2.0), S, grid)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    X = random_signal(grid, np.random.default_rng(seed), count=9)
    height = max(N, grid.size)   # the stream's and analysis' block height
    width = {"one": 1, "seven": 7, "all": N + 3}[columns]
    with warnings.catch_warnings(), mock.patch.object(
            frames, "_BLOCK_BYTES", block_bytes(height, width)):
        warnings.simplefilter("ignore")   # most draws are not tight frames
        G = gabor_matrix(T, spec)
        blocks = list(gabor_columns(T, spec))
        coeffs = analysis(X, spec)
        kernel = [(b, frames._coset_analysis(X[:, b], spec))
                  for b in frames._column_blocks(X.shape[1], height)]
    covered = np.concatenate([np.arange(N)[mus] for mus, _ in blocks])
    assert np.array_equal(np.sort(covered), np.arange(N))
    for mus, block in blocks:
        assert np.array_equal(block, G.cross[:, mus])
    for _, view in G.column_blocks():
        assert np.shares_memory(view, G.cross)
    scattered = np.empty_like(coeffs)
    for b, Y in kernel:
        scattered[order, b] = Y
    assert np.array_equal(coeffs, scattered)
    _, rows = fio._distance_tables(lat, lat.coords())
    Nt = cos.reps.shape[0]
    assert np.array_equal(rows[0], np.tile(np.arange(Nt), N // Nt))


@settings(max_examples=40, deadline=None, database=None)
@given(commensurate_generators(dims=(1,)), st.sampled_from(PHASES),
       st.sampled_from(["constant", "bandlimited"]),
       st.sampled_from(["one", "seven", "all"]), st.integers(0, 2 ** 16))
@example((np.diag([4, 4]), Grid(32)), PHASES[1], "bandlimited", "seven", 0)
@example((np.array([[2, 0], [1, 4]]), Grid(32)), PHASES[2], "bandlimited",
         "one", 0)
def test_translation_stream_is_t_times_the_atoms(gen, phase, symbol, columns,
                                                 seed):
    # fio._fio_on_atoms makes T A translation by translation and cuts it to
    # the column slices it is given; side by side, its chunks are T A from
    # the dense atoms, to 1e-12 relative, one chunk per slice and each as
    # wide as its slice.
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    N = lat.npoints
    assume(N <= MAX_POINTS)
    S = constant_symbol(grid) if symbol == "constant" \
        else bandlimited_symbol(grid, 2, seed=seed)
    T = make_fio(phase, S, grid)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    height = max(N, grid.size)   # the stream's block height
    width = {"one": 1, "seven": 7, "all": N + 3}[columns]
    with warnings.catch_warnings(), mock.patch.object(
            frames, "_BLOCK_BYTES", block_bytes(height, width)):
        warnings.simplefilter("ignore")   # most draws are not tight frames
        slices = frames._column_blocks(N, height)
        chunks = list(fio._fio_on_atoms(T, spec, slices))
    assert [mus for mus, _ in chunks] == slices
    for mus, TA in chunks:
        assert TA.shape == (grid.size, len(range(N)[mus]))
    oracle = fio_matrix(T) @ build_atoms(spec.window, lat.int_coords)
    stream = np.hstack([TA for _, TA in chunks])
    assert np.max(np.abs(stream - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@settings(max_examples=200, deadline=None, database=None)
@given(st.floats(4.0 + 1e-9, 1e6))
@example(4.5)
def test_squared_thresholds_are_the_first_doubles_past_the_edges(r_max):
    # sqrt(1 + x) reaches each decay edge first at its threshold x, so
    # d2 >= x exactly when sqrt(1 + d2) >= the edge.
    edges = fio._decay_edges(r_max)
    xs = fio._squared_thresholds(edges)
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.sqrt(1.0 + xs) >= edges)
    assert np.all(np.sqrt(1.0 + np.nextafter(xs, 0.0)) < edges)


@settings(max_examples=60, deadline=None, database=None)
@given(commensurate_generators(dims=(1,)), st.sampled_from(PHASES))
# Non-separable: the frequency rows over a translation are a shifted set
# {m_t + M_k}, so max_t + max_k over every row overshoots the pairwise max.
@example((np.array([[2, 0], [1, 4]]), Grid(8)), PHASES[0])
def test_coset_maximum_is_the_block_maximum(gen, phase):
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    tables, rows = fio._distance_tables(
        lat, canonical_map(phase).forward(lat.coords()))
    oracle = float(np.max(fio._squared_distances(tables, rows, slice(None))))
    assert fio._max_squared_distance(tables, rows) == oracle


def test_constant_symbol_ties_reach_the_tie_rule():
    # The s = 2 dilation output is half-torus periodic, so with a constant
    # symbol every row maximum is tied with its alias; the rule must report
    # the nearer of the two, as the dense oracle does, over the stored
    # matrix and over the stream alike.
    grid = Grid(64)
    lat = enumerate_lattice(np.diag([4, 4]), grid)
    cm = canonical_map(dilation_phase(2.0))
    T = make_fio(cm.phase, constant_symbol(grid), grid)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        G = gabor_matrix(T, spec)
    mag = np.abs(gabor_cross(G).T)
    tied = mag >= (1.0 - 1e-9) * np.max(mag, axis=1, keepdims=True)
    assert np.all(np.sum(tied, axis=1) >= 2)
    oracle = dense_transport(G, cm)
    with warnings.catch_warnings(), mock.patch.object(
            frames, "_BLOCK_BYTES", block_bytes(lat.npoints, 7)):
        warnings.simplefilter("ignore")
        dists, _ = transport_argmax_check(G, cm)
        stream = scan_distances(lat, gabor_columns(T, spec), cm)
    assert np.array_equal(dists, oracle)
    assert np.array_equal(stream.dists, oracle)


def test_canonical_map_runs_once_per_public_call():
    grid = Grid(64)
    lat = enumerate_lattice(np.diag([2, 2]), grid)
    cm = canonical_map(dilation_phase(2.0))
    spec = tighten(GaborFrameSpec(gaussian_window(grid), lat))
    T = make_fio(cm.phase, bandlimited_symbol(grid, 2), grid)
    G = gabor_matrix(T, spec)
    forward = CanonicalMap.forward
    for call in (lambda: pair_distances(G, cm),
                 lambda: transport_argmax_check(G, cm),
                 lambda: decay_envelope_fit(G, cm, 4.0),
                 lambda: scan_distances(lat, G.column_blocks(), cm),
                 lambda: scan_distances(lat, gabor_columns(T, spec), cm)):
        with mock.patch.object(CanonicalMap, "forward", autospec=True,
                               side_effect=forward) as spy:
            call()
        assert spy.call_count == 1
