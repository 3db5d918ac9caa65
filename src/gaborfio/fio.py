"""Fourier integral operators by oscillatory quadrature and their Gabor matrices.

The operator T f(x) = sum_m e^{2 pi i Phi(x, eta_m)} sigma(x, eta_m)
fhat(eta_m) h^d is the plain Riemann sum over the frequency grid, with
fhat the unitary DFT read in symmetric frequency order.  At desk scale
(n^d <= 1024) the dense matrix of T is cheap and doubles as the oracle
for every norm measurement.

The decay and transport tests compare every |G[mu, lam]| with the torus
distance |chi(mu) - lam|, the multiplier's mask with |chi'(mu) - lam|.
It is never held as an N x N x 2d tensor: it is the sum of one (n, N)
table per phase-space axis, wrap(chi_a(mu) - x_j)^2, gathered at each
lam's grid index, and read in one pass over row blocks of about 8 MB.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Grid, Weight, TWO_PI
from .frames import (_BLOCK_BYTES, GaborFrameSpec, Lattice, analysis,
                     is_parseval)
from .phases import CanonicalMap, TamePhase, chi_prime_displacement_bound
from .diagnostics import loglog_fit, DecayReport

import warnings

MAX_DENSE_SIZE = 1024

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

    Discrete surrogate of membership in the weighted modulation-space symbol class
    with weight v_s.
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
    # Unitary DFT rows in symmetric frequency order: row m of F maps f to
    # fhat(eta_m); the symmetric reordering is absorbed because the kernel
    # uses the same index m for eta_m.
    j = np.arange(n)
    F = np.exp(-TWO_PI * 1j * np.outer(j, j) / n) / np.sqrt(n)
    T._matrix = kernel @ F
    return T._matrix


@dataclass
class GaborMatrix:
    """Coefficient table G[mu, lam] = <T pi(mu) g, pi(lam) g>."""

    lattice: Lattice
    entries: np.ndarray


def gabor_matrix(T: FioOperator, spec: GaborFrameSpec) -> GaborMatrix:
    """Gabor coefficient matrix of T over the frame atoms."""
    if not is_parseval(spec):
        warnings.warn("gabor_matrix called with a non-Parseval frame spec",
                      stacklevel=2)
    return GaborMatrix(lattice=spec.lattice, entries=gabor_cross(T, spec).T)


def gabor_cross(T: FioOperator, spec: GaborFrameSpec) -> np.ndarray:
    """A^H T A, indexed [lam, mu], by two analyses: T A = (A^H T^H)^H."""
    TA = analysis(fio_matrix(T).conj().T, spec).conj().T
    return analysis(TA, spec)


def pair_distances(G: GaborMatrix, cmap: CanonicalMap) -> np.ndarray:
    """r[mu, lam] = <chi(mu) - lam> with the torus metric.

    chi is evaluated on the symmetric representatives (raw continuum
    output, unwrapped); the difference to lam is wrapped back to the
    torus before taking the Japanese bracket.
    """
    tables = _distance_tables(G.lattice, cmap.forward(G.lattice.coords()))
    blocks = _squared_distance_blocks(*tables)
    return np.concatenate([np.sqrt(1.0 + d2) for _, d2 in blocks], axis=1).T


def _distance_tables(lat: Lattice, points: np.ndarray):
    """Per-axis tables wrap(z_a(mu) - x_j)^2 [j, mu], and each lam's j.

    points holds one phase-space point z(mu) per lattice point, (N, 2d).
    Every lattice coordinate p h equals grid.coords()[p mod n] bit for
    bit, so |z(mu) - lam|^2, the difference wrapped to the torus, is the
    sum over axes a of table_a[j_a(lam), mu] with j_a = p_a mod n.
    """
    grid = lat.grid
    x = grid.coords()
    tables = [np.square(grid.wrap_coord(z[None, :] - x[:, None]))
              for z in points.T]
    return tables, np.mod(lat.int_coords, grid.n).T


def _squared_distance_blocks(tables, cols):
    """Yield (mus, d2), d2[lam, i] = |z(mu_i) - lam|^2 for mu_i in mus.

    The blocks are [lam, mu] like A^H T A in gabor_matrix, and hold about
    _BLOCK_BYTES each (the column block size of frames.analysis).
    """
    N = cols.shape[1]
    step = max(1, _BLOCK_BYTES // (8 * N))
    for start in range(0, N, step):
        mus = slice(start, start + step)
        d2 = tables[0][:, mus][cols[0]]
        for table, col in zip(tables[1:], cols[1:]):
            d2 += table[:, mus][col]
        yield mus, d2


class InsufficientDecayRangeError(ValueError):
    pass


def decay_envelope_fit(G: GaborMatrix, cmap: CanonicalMap,
                       s_claim: float) -> DecayReport:
    """Fit the off-diagonal decay envelope of |G| against <chi(mu)-lam>^{-s}.

    Pairs are binned by log distance into DECAY_BINS bins over r in
    [2, r_max/2]; the per-bin maxima of |G| are fitted by least squares on
    log-log axes, and the verdict passes when the slope is at most
    -s_claim + DECAY_TOLERANCE.  Restricting to [2, r_max/2] excludes the
    diagonal bins (r close to 1) and the torus-wrap end (r close to
    r_max), where the envelope is meaningless.
    One pass over the distance blocks finds r_max, a second bins them.
    """
    cross = G.entries.T   # [lam, mu]
    tables = _distance_tables(G.lattice, cmap.forward(G.lattice.coords()))
    # sqrt(1 + .) is monotone, so this is the largest r, bit for bit.
    d2_max = max(float(np.max(d2)) for _, d2 in
                 _squared_distance_blocks(*tables))
    r_max = float(np.sqrt(1.0 + d2_max))
    lo, hi = 2.0, r_max / 2.0
    if hi <= lo:
        raise InsufficientDecayRangeError(
            f"usable distance range [2, {hi:.3g}] is empty")
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), DECAY_BINS + 1))
    binmax = np.full(DECAY_BINS, -1.0)  # below every |G|: -1 marks empty
    for mus, d2 in _squared_distance_blocks(*tables):
        r = np.sqrt(1.0 + d2)
        inside = (r >= edges[0]) & (r < edges[-1])
        k = np.searchsorted(edges, r[inside], side="right") - 1
        np.maximum.at(binmax, k, np.abs(cross[:, mus][inside]))
    pts = [(np.exp(0.5 * (np.log(edges[k]) + np.log(edges[k + 1]))),
            float(binmax[k])) for k in range(DECAY_BINS) if binmax[k] >= 0]
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


def transport_argmax_check(G: GaborMatrix, cmap: CanonicalMap):
    """Distance from each row's |G| maximizer to chi(mu); returns (dists, bound).

    The bound is chi_prime_displacement_bound + 1 = sqrt(2d) ||A|| + 1 in
    continuum units.  Entries within relative tolerance TIE_RTOL of the
    row maximum count as tied maximizers and the nearest one is reported:
    exact magnitude ties occur whenever
    the operator output has a sub-torus periodicity (the s = 2 dilation
    output is half-torus periodic in time, so each row maximum appears
    again at the alias point chi(mu) + (sqrt(n)/2, 0)).
    """
    lat = G.lattice
    cross = G.entries.T   # [lam, mu]
    d2_min = np.empty(lat.npoints)
    tables = _distance_tables(lat, cmap.forward(lat.coords()))
    for mus, d2 in _squared_distance_blocks(*tables):
        mag = np.abs(cross[:, mus])
        tied = mag >= (1.0 - TIE_RTOL) * np.max(mag, axis=0)
        d2_min[mus] = np.min(np.where(tied, d2, np.inf), axis=0)
    return np.sqrt(d2_min), chi_prime_displacement_bound(lat) + 1.0


@dataclass
class EnvelopeReport:
    bins: np.ndarray         # (K, 2d) displacement bin centers
    envelope: np.ndarray     # (K,) per-bin max of |G|
    l1_mass: float           # sum of envelope * m(u)


def envelope_function_audit(G: GaborMatrix, phase: TamePhase,
                            m: Optional[Weight] = None,
                            bin_width: float = 0.5) -> EnvelopeReport:
    """Empirical envelope H(u) over the displacement u(mu, lam).

    u = (eta' - grad_x Phi(x', eta), x - grad_eta Phi(x', eta)) with
    mu = (x, eta) the input point and lam = (x', eta') the output point;
    displacements are wrapped to the torus and binned on a cubic mesh of
    the given width.
    """
    if m is None:
        m = Weight()
    lat = G.lattice
    grid = lat.grid
    d = grid.d
    c = lat.coords()
    x, eta = c[:, :d], c[:, d:]
    xp, etap = c[:, :d], c[:, d:]
    gx = phase.grad_x(xp[None, :, :], eta[:, None, :])      # [mu, lam, d]
    ge = phase.grad_eta(xp[None, :, :], eta[:, None, :])
    u = np.concatenate([etap[None, :, :] - gx, x[:, None, :] - ge], axis=-1)
    u = grid.wrap_coord(u)
    keys = np.round(u / bin_width).astype(int).reshape(-1, 2 * d)
    # One row-major integer per bin key sorts like the key rows, and fast.
    lo = keys.min(axis=0)
    span = keys.max(axis=0) - lo + 1
    flat, inverse = np.unique(np.ravel_multi_index(tuple((keys - lo).T), span),
                              return_inverse=True)
    env = np.zeros(flat.size)
    np.maximum.at(env, inverse.reshape(-1), np.abs(G.entries).reshape(-1))
    centers = (np.column_stack(np.unravel_index(flat, span)) + lo) * bin_width
    mass = float(np.sum(env * m(centers)))
    return EnvelopeReport(bins=centers, envelope=env, l1_mass=mass)
