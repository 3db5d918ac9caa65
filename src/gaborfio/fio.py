"""Fourier integral operators by oscillatory quadrature and their Gabor matrices.

The operator T f(x) = sum_m e^{2 pi i Phi(x, eta_m)} sigma(x, eta_m)
fhat(eta_m) h^d is the plain Riemann sum over the frequency grid, with
fhat the unitary DFT read in symmetric frequency order.  At desk scale
(n^d <= 1024) the dense matrix of T is cheap and doubles as the oracle
for every norm measurement.

The dense matrix is the row-wise FFT of the quadrature kernel.

The Gabor matrix A^H T A comes as a stream: gabor_columns yields it one
column block at a time, the 1 MiB blocks of frames.analysis, so
decay-scan never holds the N x N matrix; gabor_matrix stores the same
blocks as they come, the one stored form of it.  Nor is T A held, an
n x N matrix: _fio_on_atoms makes it translation by translation, the
analysis kernel with those translations' atoms only, and each block is
cut from the translations it meets.  A block keeps the rows lam in the
coset order the analysis kernel computes them in (row k N_t + t is
frames.Cosets.index[k, t]), streamed or stored: no path scatters it to
lattice order.  The decay and transport tests compare every
|G[mu, lam]| with the torus distance |chi(mu) - lam|, the multiplier's
mask with |chi'(mu) - lam|.  It is never held as an N x N x 2d tensor:
it is the sum of one table per phase-space axis, wrap(chi_a(mu) - x_j)^2
over the grid indices j that some lattice point has on that axis,
gathered at each lam's row, in the same coset order, for the same column
blocks.  scan_distances reads each block of |G| and of distances once
for both tests; the largest distance, which sets the decay bins, comes
from the lattice's cosets without a pass.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Grid, TWO_PI
from . import frames
from .frames import (GaborFrameSpec, Lattice, _column_blocks,
                     _conj_coset_atoms, _coset_analysis, _coset_fold,
                     _cosets, is_parseval)
from .phases import CanonicalMap, TamePhase, chi_prime_displacement_bound
from .diagnostics import loglog_fit, DecayReport, MAX_DENSE_SIZE

import warnings

# decay_envelope_fit: the number of log-distance bins, and how far above
# -s_claim the fitted slope may lie.
DECAY_BINS = 10
DECAY_TOLERANCE = 0.75

# transport_argmax_check: entries within this relative tolerance of a
# row's maximum count as tied maximizers.
TIE_RTOL = 1e-9


@dataclass
class SymbolTable:
    """Symbol samples sigma(x_j, eta_m), finite, one row per x_j.

    values[j, m] is indexed by raw grid indices; the coordinate of index j
    is grid.wrap_index(j) * h.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        size = self.grid.size
        if self.values.shape != (size, size):
            raise ValueError(f"symbol table must be {size}x{size}")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("symbol table has non-finite entries")


def constant_symbol(grid: Grid, value: complex = 1.0) -> SymbolTable:
    size = grid.size
    return SymbolTable(grid, np.full((size, size), value, dtype=complex))


def bandlimit_for(N: float, grid: Grid) -> float:
    """Index band limit B(N) = n / (4N), the W^inf_2N smoothness surrogate."""
    return grid.n / (4.0 * N)


def _random_symbol(grid: Grid, seed: int, envelope) -> SymbolTable:
    """Random real symbol with spectrum envelope(p, q) times complex noise.

    p and q are the wrapped frequency indices (as floats) of the two
    axes; the symbol is the plain synthesis sum of the modes, scaled to
    peak modulus 1.
    """
    if grid.d != 1:
        raise ValueError("symbol generators are d = 1 only")
    n = grid.n
    rng = np.random.default_rng(seed)
    freqs = grid.wrap_index(np.arange(n)).astype(float)
    p, q = np.meshgrid(freqs, freqs, indexing="ij")
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vals = (np.fft.ifft2(noise * envelope(p, q)).real * n).astype(complex)
    vals *= 1.0 / np.max(np.abs(vals))
    return SymbolTable(grid, vals)


def bandlimited_symbol(grid: Grid, N: float, seed: int = 0) -> SymbolTable:
    """Random real symbol band-limited to |frequency index| <= B(N).

    The spectrum is flat up to the cutoff, so the symbol genuinely uses
    its whole frequency budget; larger N means a smaller budget and a
    smoother symbol.
    """
    B = bandlimit_for(N, grid)
    return _random_symbol(grid, seed,
                          lambda p, q: np.sqrt(p ** 2 + q ** 2) <= B)


def weighted_symbol(grid: Grid, s: float, seed: int = 0) -> SymbolTable:
    """Random symbol whose spectrum decays like <zeta>^{-(s+1)} in continuum units.

    The envelope <zeta>^{-(s+1)} is in L^1_{v_r}(R^2) only for r < s - 1,
    so it places the symbol in the Sjostrand class (r = 0) only for
    s > 1, and in no weighted class with weight v_s.
    """
    h = grid.h
    return _random_symbol(
        grid, seed,
        lambda p, q: (1.0 + (p * h) ** 2 + (q * h) ** 2) ** (-(s + 1.0) / 2.0))


@dataclass
class FioOperator:
    """Phase + symbol bundle applied by frequency-grid quadrature."""

    phase: TamePhase
    symbol: SymbolTable
    grid: Grid
    _matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.symbol.grid.n != self.grid.n or self.symbol.grid.d != self.grid.d:
            raise ValueError("phase/symbol grid mismatch")
        if self.grid.d != 1:
            raise ValueError("the FIO engine supports d = 1")


def make_fio(phase: TamePhase, symbol: SymbolTable, grid: Grid) -> FioOperator:
    return FioOperator(phase=phase, symbol=symbol, grid=grid)


def fio_matrix(T: FioOperator) -> np.ndarray:
    """Dense n^d x n^d matrix of T (column k = T e_k)."""
    if T._matrix is not None:
        return T._matrix
    grid = T.grid
    n = grid.n
    if grid.size > MAX_DENSE_SIZE:
        raise ValueError(f"dense FIO matrix limited to n^d <= {MAX_DENSE_SIZE}")
    x = grid.coords()
    eta = grid.coords()
    X, E = np.meshgrid(x, eta, indexing="ij")
    phi = T.phase.phi(X[..., None], E[..., None])
    kernel = np.exp(TWO_PI * 1j * phi) * T.symbol.values * grid.h
    # T = kernel @ F with F the unitary DFT, row m of F mapping f to
    # fhat(eta_m): the symmetric frequency order is absorbed because the
    # kernel uses the same index m for eta_m.  kernel @ F is the FFT of
    # each kernel row.
    T._matrix = np.fft.fft(kernel, axis=1) / np.sqrt(n)
    return T._matrix


@dataclass
class GaborMatrix:
    """The coefficients <T pi(mu) g, pi(lam) g> on spec's lattice, stored
    as gabor_columns yields them.

    cross[r, mu] is (A^H T A)[lam, mu] with the rows in coset order: row
    r = k N_t + t is the lattice point lam = frames.Cosets.index[k, t].
    The columns mu are in lattice order.
    """

    spec: GaborFrameSpec
    cross: np.ndarray          # (N, N) complex, F-order, coset-order rows

    def column_blocks(self):
        """(mus, cross[:, mus]) over frames._column_blocks slices: views,
        in the row order gabor_columns yields."""
        N = self.cross.shape[1]
        return ((mus, self.cross[:, mus]) for mus in _column_blocks(N, N))


def _fio_on_atoms(T: FioOperator, spec: GaborFrameSpec, blocks):
    """Yield (mus, (T A)[:, mus]) for each slice mus of blocks, in turn.

    blocks are ascending slices of the lattice indices, as
    frames._column_blocks gives them.  T A = (A^H T^H)^H is made a few
    translations at a time: T^H's rows are gathered into coset order once,
    and the analysis kernel with only the conjugate atoms G0^H[:, t] of a
    translation x_t gives the |M| rows of A^H T^H at the points
    Cosets.index[:, t].  For d = 1 these are the lattice indices t |M|,
    ..., (t + 1) |M| - 1 in order: the points over x_t are consecutive in
    lexicographic order, and their modulations m_t + M_k, with M = q Z_n
    and m_t < q the least of them, do not wrap.  So a slice is cut from
    the n x |M| columns of the translations it meets: those it meets
    first are made in one kernel call, and the last is kept for the next
    slice.  Each translation is made once, and only the current slice's
    translations are held, never an n x N array.  Warns when spec is not
    Parseval.
    """
    if not is_parseval(spec):
        warnings.warn("Gabor matrix of a non-Parseval frame spec",
                      stacklevel=3)
    cos = _cosets(spec.lattice)
    G0h = _conj_coset_atoms(spec)
    K, Nt, s = G0h.shape
    N = K * Nt
    assert np.array_equal(cos.index, np.arange(N).reshape(Nt, K).T)
    THc = fio_matrix(T).T[cos.perm]     # T^H's rows in coset order, once
    np.conjugate(THc, out=THc)
    THc = THc.reshape(K, s, -1)
    n = THc.shape[2]
    Y = np.empty(0, dtype=complex)      # the kernel's product, reused
    lo, cols = 0, np.empty((0, n), dtype=complex)  # T A's columns from lo K
    for mus in blocks:
        start, stop = mus.start, min(mus.stop, N)
        t0, t1 = start // K, -(-stop // K)    # the translations it meets
        hi = lo + len(cols) // K
        if t1 > hi:
            a = max(t0, hi)
            m = t1 - a
            if Y.size < K * m * n:
                Y = np.empty(K * m * n, dtype=complex)
            # Row k m + j of the kernel's result is the point (a + j) K + k;
            # conjugated and put in lattice order, after the kept columns.
            # Where cos.fft the result is Y itself, copied out at once.
            rows = _coset_fold(G0h[:, a:t1], THc, cos,
                               Y[:K * m * n].reshape(K, m, n))
            keep = cols[(t0 - lo) * K:]   # the kept translation it meets
            cols = np.empty((len(keep) + m * K, n), dtype=complex)
            cols[:len(keep)] = keep
            np.conjugate(rows.reshape(K, m, n).transpose(1, 0, 2),
                         out=cols[len(keep):].reshape(m, K, n))
            lo = t0
        yield mus, cols[start - lo * K:stop - lo * K].T


def gabor_columns(T: FioOperator, spec: GaborFrameSpec):
    """Yield (mus, (A^H T A)[:, mus]), indexed [lam, mu], block by block,
    with the rows lam in coset order.

    Each block is one frames._coset_analysis of the columns (T A)[:, mus]
    that _fio_on_atoms makes for it, over the column slices
    frames.analysis walks, so neither the N x N matrix nor the n x N
    matrix T A is ever held.  The rows stay in the kernel's coset order:
    row k N_t + t is lam = Cosets.index[k, t], so no block is scattered
    to lattice order only to be read once.  Each yielded block is a fresh
    array, so it stays valid after the next one is drawn: where
    frames.Cosets.fft, the kernel's FFT runs in place in the block's own
    product G0^H X_c, which is then the block; otherwise the block is the
    dense product E (G0^H X_c), and G0^H X_c goes into one buffer per
    call.
    """
    N = spec.lattice.npoints
    blocks = _column_blocks(N, max(N, T.grid.size))
    buf = None if _cosets(spec.lattice).fft else \
        np.empty(N * len(range(N)[blocks[0]]), dtype=complex)
    for mus, TA in _fio_on_atoms(T, spec, blocks):
        yield mus, _coset_analysis(TA, spec, buf)


def gabor_matrix(T: FioOperator, spec: GaborFrameSpec) -> GaborMatrix:
    """A^H T A: the column blocks of gabor_columns stored as they come,
    rows in coset order, into one F-order table, so each write is
    contiguous.

    The table is allocated once the first block is made, so it can take
    the heap space that block's temporaries have freed.  Allocated before
    them, it leaves them at the top of the heap, which glibc gives back
    to the system and the next run faults in again: in the benchmark's
    approximate-n56 loop that was 3,539 minor faults per execution
    against 739.  gabor_columns warns when spec is not Parseval.
    """
    N = spec.lattice.npoints
    cross = None
    for mus, block in gabor_columns(T, spec):
        if cross is None:
            cross = np.empty((N, N), dtype=complex, order="F")
        cross[:, mus] = block
    return GaborMatrix(spec=spec, cross=cross)


def pair_distances(G: GaborMatrix, cmap: CanonicalMap) -> np.ndarray:
    """r[mu, lam] = <chi(mu) - lam> with the torus metric, both indices in
    lattice order.

    chi is evaluated on the symmetric representatives (raw continuum
    output, unwrapped); the difference to lam is wrapped back to the
    torus before taking the Japanese bracket.
    """
    lat = G.spec.lattice
    tables = _distance_tables(lat, cmap.forward(lat.coords()))
    r = np.empty((lat.npoints, lat.npoints))
    r[:, _cosets(lat).index.ravel()] = \
        np.sqrt(1.0 + _squared_distances(*tables, slice(None))).T
    return r


def _distance_tables(lat: Lattice, points: np.ndarray):
    """Per-axis tables wrap(z_a(mu) - x_j)^2 [row, mu], and each lam's rows,
    lam in coset order.

    points holds one phase-space point z(mu) per lattice point, (N, 2d).
    The table of axis a has one row per grid index j that some lattice
    point has on that axis (n / 4 of them at diag(4, 4)), and rows[a][r]
    is the row of the index p_a mod n of lam = Cosets.index.ravel()[r],
    the row order of gabor_columns' blocks.  Every lattice coordinate p h
    equals grid.coords()[p mod n] bit for bit, so |z(mu) - lam|^2, the
    difference wrapped to the torus, is the sum over axes a of
    table_a[rows[a][r], mu].  Row k N_t + t is the point (x_t, m_t +
    M_k), the translations x_t lexicographic, and every first coordinate
    carries the same number of translations, so rows[0] is the same
    N_t rows of axis 0 for each k, in equal consecutive runs (of 1 for
    d = 1).
    """
    grid = lat.grid
    x = grid.coords()
    index = _cosets(lat).index
    K, Nt = index.shape
    lams = np.mod(lat.int_coords[index.ravel()], grid.n)   # coset order
    tables, rows = [], []
    for z, p in zip(points.T, lams.T):
        used, row = np.unique(p, return_inverse=True)
        tables.append(np.square(grid.wrap_coord(z[None, :] - x[used, None])))
        rows.append(row)
    n0 = len(tables[0])
    assert np.array_equal(rows[0],
                          np.tile(np.repeat(np.arange(n0), Nt // n0), K))
    return tables, np.array(rows)


def _squared_distances(tables, rows, mus):
    """d2[r, i] = |z(mu_i) - lam|^2 for the columns mus, lam the point of
    row r, a fresh array.

    Blocks are [lam, mu] with the rows in coset order, as _distance_tables
    gives them, so they line up with any column block of A^H T A.  Axis
    0's rows are arange(n0) in runs of equal rows, repeated |M| times, so
    axis 0 is added by broadcast over the runs; a + b == b + a in
    floating point, so the sum is the axis-order sum table_0 + table_1 +
    ... bit for bit.
    """
    d2 = tables[1][:, mus][rows[1]]
    n0 = len(tables[0])
    # The length of the first run of equal time rows (all N if n0 == 1).
    run = int(np.argmax(rows[0] != rows[0][0])) or rows[0].size
    runs = d2.reshape(-1, n0, run, d2.shape[1])
    runs += tables[0][:, mus][:, None, :]
    for table, row in zip(tables[2:], rows[2:]):
        d2 += table[:, mus][row]
    return d2


def _max_squared_distance(tables, rows) -> float:
    """The largest d2 of _squared_distances over all columns, bit for bit.

    Row k N_t + t is the lattice point (x_t, m_t + M_k) (frames.Cosets),
    so its time row is t for every k: take the maximum over k of the
    frequency table first, once per distinct set of rows {m_t + M_k},
    then add the time table.  fl(a + b) is monotone in b, so this is the
    pairwise maximum.  Two axes: the FIO engine is d = 1.
    """
    freq_rows = rows[1].reshape(-1, len(tables[0]))   # (|M|, N_t)
    sets, which = np.unique(np.sort(freq_rows, axis=0), axis=1,
                            return_inverse=True)
    # The float64 (|M|, sets, N) gather, a few sets at a time: as many as
    # fit one block of frames._BLOCK_BYTES, or one, |M| N = N^2 / N_t.
    K, N = sets.shape[0], tables[1].shape[1]
    step = max(1, frames._BLOCK_BYTES // (8 * K * N))
    freq_max = np.concatenate([np.max(tables[1][sets[:, i:i + step]], axis=0)
                               for i in range(0, sets.shape[1], step)])
    return float(np.max(tables[0] + freq_max[which]))


class InsufficientDecayRangeError(ValueError):
    pass


def _decay_edges(r_max: float) -> Optional[np.ndarray]:
    """DECAY_BINS log-spaced bin edges over [2, r_max / 2], None if empty."""
    lo, hi = 2.0, r_max / 2.0
    if hi <= lo:
        return None
    return np.exp(np.linspace(np.log(lo), np.log(hi), DECAY_BINS + 1))


def _squared_thresholds(edges: np.ndarray) -> np.ndarray:
    """Per edge e, the least double x with fl(sqrt(fl(1 + x))) >= e.

    That map is monotone in x, so r = sqrt(1 + d2), as pair_distances
    forms it, is >= e exactly when d2 >= x: the decay bins are read off
    d2 bit for bit without a sqrt.  x starts at e^2 - 1 and is walked
    down, then up, one double at a time.
    """
    xs = []
    for e in edges:
        x = e * e - 1.0
        while np.sqrt(1.0 + x) >= e:
            x = np.nextafter(x, -np.inf)
        while np.sqrt(1.0 + x) < e:
            x = np.nextafter(x, np.inf)
        xs.append(x)
    return np.array(xs)


@dataclass
class DistanceScan:
    """What |G| and the distances |chi(mu) - lam| give the decay-scan tests.

    dists[mu] is transport's distance from chi(mu) to the nearest tied
    maximizer of |G[mu, :]|, bound its bound; binmax[k] is the largest
    |G| whose <chi(mu) - lam> lies in decay bin k (-1 if none), or None
    when r_max leaves no usable range.
    """

    dists: np.ndarray
    bound: float
    r_max: float
    binmax: Optional[np.ndarray]

    @property
    def transport_ok(self) -> bool:
        """Whether every row's nearest maximizer lies within the bound."""
        return bool(np.max(self.dists) <= self.bound)

    def decay_fit(self, s_claim: float) -> DecayReport:
        """Fit the binned maxima on log-log axes; see decay_envelope_fit."""
        edges = _decay_edges(self.r_max)
        if edges is None:
            raise InsufficientDecayRangeError(
                f"usable distance range [2, {self.r_max / 2.0:.3g}] is empty")
        pts = [(np.exp(0.5 * (np.log(edges[k]) + np.log(edges[k + 1]))),
                float(self.binmax[k]))
               for k in range(DECAY_BINS) if self.binmax[k] >= 0]
        if len(pts) < 4:
            raise InsufficientDecayRangeError(
                f"only {len(pts)} usable distance bins; need at least 4")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope, intercept, residual = loglog_fit(np.column_stack([xs, ys]))
        return DecayReport(
            pairs=[(float(np.log(a)), float(np.log(b))) for a, b in pts],
            slope=slope, intercept=intercept, residual=residual,
            claim=s_claim, tolerance=DECAY_TOLERANCE,
            verdict=bool(slope <= -s_claim + DECAY_TOLERANCE))


def scan_distances(lat: Lattice, blocks, cmap: CanonicalMap) -> DistanceScan:
    """Transport distances and decay bin maxima from one pass over blocks.

    blocks yields (mus, (A^H T A)[:, mus]) over column slices that cover
    every mu once, with the rows lam in coset order: gabor_columns, or
    GaborMatrix.column_blocks.  The distance tables are built once, with
    their rows in the same order.  r_max comes from the cosets, so the
    bin edges are known before the pass, which takes |G| once per block
    for both tests.
    """
    tables, rows = _distance_tables(lat, cmap.forward(lat.coords()))
    # sqrt(1 + .) is monotone, so this is the largest r, bit for bit.
    r_max = float(np.sqrt(1.0 + _max_squared_distance(tables, rows)))
    edges = _decay_edges(r_max)
    if edges is None:
        binmax = None
    else:
        binmax = np.full(DECAY_BINS, -1.0)   # below every |G|: an empty bin
        bounds = _squared_thresholds(edges)
    d2_min = np.full(lat.npoints, np.inf)
    buf = np.empty(0)   # |G| of each block, in one buffer per call
    for mus, block in blocks:
        if buf.size < block.size:
            buf = np.empty(block.size)
        mag = np.abs(block, out=buf[:block.size].reshape(block.shape))
        d2 = _squared_distances(tables, rows, mus)
        # Tied maxima as flat indices into the block; hit % w is the column.
        hit = np.flatnonzero(mag >= (1.0 - TIE_RTOL) * np.max(mag, axis=0))
        np.minimum.at(d2_min[mus], hit % mag.shape[1],   # a view of d2_min
                      d2.ravel()[hit])
        if binmax is None:
            continue
        inside = (d2 >= bounds[0]) & (d2 < bounds[-1])
        k = np.searchsorted(bounds, d2[inside], side="right") - 1
        np.maximum.at(binmax, k, mag[inside])
    return DistanceScan(dists=np.sqrt(d2_min),
                        bound=chi_prime_displacement_bound(lat) + 1.0,
                        r_max=r_max, binmax=binmax)


def decay_envelope_fit(G: GaborMatrix, cmap: CanonicalMap,
                       s_claim: float) -> DecayReport:
    """Fit the off-diagonal decay envelope of |G| against <chi(mu)-lam>^{-s}.

    Pairs are binned by log distance into DECAY_BINS bins over r in
    [2, r_max/2]; the per-bin maxima of |G| are fitted by least squares on
    log-log axes, and the verdict passes when the slope is at most
    -s_claim + DECAY_TOLERANCE.  Restricting to [2, r_max/2] excludes the
    diagonal bins (r close to 1) and the torus-wrap end (r close to
    r_max), where the envelope is meaningless.  The bins come from
    scan_distances; raises InsufficientDecayRangeError when the range is
    empty or fills fewer than 4 bins.
    """
    scan = scan_distances(G.spec.lattice, G.column_blocks(), cmap)
    return scan.decay_fit(s_claim)


def transport_argmax_check(G: GaborMatrix, cmap: CanonicalMap):
    """Distance from each row's |G| maximizer to chi(mu); returns (dists, bound).

    The bound is chi_prime_displacement_bound + 1 = sqrt(2d) ||A|| + 1 in
    continuum units.  Entries within relative tolerance TIE_RTOL of the
    row maximum count as tied maximizers and the nearest one is reported:
    exact magnitude ties occur whenever
    the operator output has a sub-torus periodicity (the s = 2 dilation
    output is half-torus periodic in time, so each row maximum appears
    again at the alias point chi(mu) + (sqrt(n)/2, 0)).  The distances
    come from scan_distances, which bins the decay fit in the same pass:
    per column block, one flat search finds every tied entry, and one
    minimum over the block's columns (flat index mod block width) keeps
    the nearest per mu.
    """
    scan = scan_distances(G.spec.lattice, G.column_blocks(), cmap)
    return scan.dists, scan.bound
