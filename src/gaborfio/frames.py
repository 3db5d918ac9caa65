"""Lattices, Gabor frames, canonical tight/dual windows, discrete modulation norms.

A lattice is generated by an invertible 2d x 2d integer matrix A in grid
units.  Commensurability with the torus (B = n A^{-1} integral) is required
so that the enumerated point set is a finite subgroup of the phase-space
torus; this group structure is what makes the frame operator commute with
every pi(lambda) and the shifted-multiplier algebra exact.

The points are A m mod n over the cosets m of Z^{2d} / B Z^{2d}.  With H
the Hermite normal form of B (Cohen, A Course in Computational Algebraic
Number Theory, 2.4) each coset has one representative 0 <= m_i < H_ii, its
digits, so a point p is indexed arithmetically: the mixed-radix value of
B p / n reduced modulo H, mapped by a rank array to lexicographic mod-n
order.  Each point keeps its digits, so the index of a sum of points is
the reduced sum of their digits, with no coordinates in between.

The frame operator is block-diagonal (Walnut 1992; Strohmer 1998).  Let
M = {m : (0, m) in Lambda} be the pure modulations.  Because Lambda is a
group, the points over one translation x form a coset (x, m_x) + (0, M),
and summing e^{2 pi i m.(j - k)/n} over M gives |M| or 0, so

    S[j, k] = |M| sum_x G0[j, x] conj(G0[k, x])  if j - k annihilates M,
    S[j, k] = 0                                  otherwise,

with G0 one atom pi(x, m_x) g per distinct translation.  This holds for
every commensurate lattice, separable or not, in any d: S splits into |M|
blocks of size n^d / |M|, one per coset of the annihilator of M (rows j
with equal j.m mod n for all m in M).

Most of these blocks are copies of each other.  S commutes with every
pi(x_t, m_t), so S[j, k] = phi(j) S[j - x_t, k - x_t] conj(phi(k)) with
phi(j) = e^{2 pi i m_t.j / n}, and the translation j -> j - x_t carries
each coset onto a whole coset.  So the block of a coset c is the block of
the least coset r in c's orbit under the translations, gathered at the
positions p of c's rows minus x_t among r's rows and twisted by phi over
c's rows: B_c = diag(phi) B_r[p][:, p] diag(phi)^H.  Only the orbits'
least cosets are built and decomposed, in one batched eigendecomposition;
every other coset takes w_c = w_r and V_c = phi V_r[p].  For diag(16, 16)
at n = 640 that is 8 blocks of 16 x 16 instead of 40.  Frame bounds,
S^{-1/2} g and S^{-1} g come from these eigenpairs.

The cosets are numbered in the lexicographic order of the rows'
character vectors (j.M_k mod n)_k, with M in lattice order, without
forming those vectors: each row gets one int64 label, refined over
M_0, M_1, ... as rank(label * n + (j.M_k mod n)) and stopped once it
takes |M| values.  That prefix of M already separates the cosets, and
two vectors that differ first within it are ordered by it alone, so the
labels order the cosets as the whole vectors do.  The re-ranking keeps
each label below |M| n; without it the key grows n-fold per step and
overflows int64 for M = Z_16^2 at n = 16.  Atoms take one exponential
per distinct modulation (core.atom_tables).

Analysis and synthesis fold over the same cosets.  The atom at the point
(x_t, m_t + M_k) is G0[:, t] times the character e^{2 pi i j.M_k / n},
which is constant on each coset c of rows, where it equals
conj(E[k, c]) with E[k, c] = e^{-2 pi i (j_c.M_k mod n) / n}.  So

    A^H X = E (G0_c^H X_c)      (one small product per coset c),
    A C   = G0_c (E^H C)_c,

with the coefficients in the (k, t) order of the coset tables.  This is
n^d N_t + |M| N operations per column instead of n^d N, for any d and any
commensurate lattice; the dense n^d x N atom matrix is never formed.  For
d = 1, M = q Z_n and E is the K-point DFT matrix, K = |M|, so the
character product is an FFT of length K over the cosets: n^d N_t +
N log K operations per column, where K is large enough for the FFT to
beat the dense product and has only prime factors numpy's FFT has its
own passes for (Cosets.fft, _FFT_MIN_K).  For d = 2, M can be
non-cyclic, such as Z_4 x Z_4, and E stays a dense product.
Columns are processed in blocks of about _BLOCK_BYTES, 1 MiB, so that a
block and its products stay in a 2 MiB L2 cache.  One kernel,
_coset_fold, computes E (G0^H X_c) with its rows in that coset order
(row k N_t + t is the point index[k, t]).  _coset_analysis runs it on a
block of columns; analysis scatters the rows to lattice order, while fio
streams the Gabor matrix A^H T A through the same column blocks in coset
order, with no scatter, since its readers permute their distance tables
once instead.  _coset_synthesis is the synthesis kernel on rows in that
order: synthesis gathers each block of coefficients into it, while
multiplier stores the Gabor matrix with its rows in it and synthesizes
the masked blocks as they are.  fio also runs the analysis kernel with
the atoms of a few translations only, to make T A translation by
translation.  The shift index and phase columns of the atoms G0 depend
on the lattice only and live in its coset tables, Lattice.cosets, made
once per lattice on first use, so a spec and its tightened spec share
them.  A spec keeps only what a run reads more than once: its atoms G0,
their conjugates and the Walnut eigenpairs.  The dense frame operator,
which only tests form, is A A^H from the two kernels; the orbit tables
serve the eigenpairs alone.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import Grid, Signal, TWO_PI, atom_tables, build_atoms

NOT_A_FRAME_RTOL = 1e-10

# Both frame bounds within PARSEVAL_TOL of 1 make a Parseval frame; it is
# also the largest relative energy error frame-check's Parseval test and
# the acceptance gate accept.
PARSEVAL_TOL = 1e-8

# Bytes of one complex column block of analysis, synthesis and fio's
# stream of A^H T A.  Of 8, 2, 1, 0.5 and 0.25 MiB, 1 MiB gave the least
# median CPU time of decay-scan at n = 160, diag(4, 4) (25 runs each, on
# a Xeon with 2 MiB of L2 cache per core).  With the fold's FFT in place
# in its own product (below), the benchmark's decay-scan-n160 workload
# (6 rounds of 5 s runs each, 1 BLAS thread, same host) read a median
# cli_s of 74.6 ms at 0.5 MiB, 68.4 ms at 1 MiB and 73.3 ms at 2 MiB.
_BLOCK_BYTES = 2 ** 20

# For d = 1 the character product E Y of the coset fold is the K-point DFT
# of Y's rows, K = |M|; it runs as an FFT when K >= _FFT_MIN_K and every
# prime factor of K is in _FFT_PRIMES.  On one 1 MiB block of the fold,
# Y of shape (K, 2^16 // K), the in-place FFT took this share of the time
# of E @ Y (medians of 300 calls, 1 BLAS thread, same host):
#     K      14    16    20    28    32    40    64
#     FFT  0.97  1.11  0.84  0.68  0.70  0.57  0.57
# 18 gave 1.11 and 16 gave 0.88-1.11 in other runs, so the FFT starts at
# 20.  numpy's pocketfft has its own passes for the prime factors 2, 3, 5,
# 7 and 11 only: of the 23 K from 17 to 65 with another prime factor, 19
# took 1.09-4.59 times as long as E @ Y, and 39, 52, 57, 65 took 0.66-0.98.
_FFT_MIN_K = 20
_FFT_PRIMES = (2, 3, 5, 7, 11)


class LatticeError(ValueError):
    pass


class NotAFrameError(ValueError):
    pass


@dataclass
class Lattice:
    """Enumerated lattice Lambda = A Z^{2d} inside the phase-space torus."""

    A: np.ndarray           # generator, grid units, integer entries
    grid: Grid
    int_coords: np.ndarray  # (N, 2d) integer grid coordinates, symmetric reps
    hnf: np.ndarray = field(repr=False)   # Hermite normal form of n A^{-1}
    rank: np.ndarray = field(repr=False)  # mixed-radix value -> point index
    digits: np.ndarray = field(repr=False)  # (N, 2d) reduced B p / n per point

    @property
    def npoints(self) -> int:
        return self.int_coords.shape[0]

    @property
    def density(self) -> float:
        """Redundancy: number of atoms per signal dimension."""
        return self.npoints / self.grid.size

    @cached_property
    def cosets(self) -> "Cosets":
        """The coset tables, made on first use."""
        n, d = self.grid.n, self.grid.d
        ic = np.mod(self.int_coords, n)
        M = ic[~np.any(ic[:, :d], axis=1), d:]
        # Points are in lexicographic mod-n order, so the first point over
        # each translation is where the translation changes.
        first = np.flatnonzero(np.any(np.diff(ic[:, :d], axis=0,
                                              prepend=-1), axis=1))
        reps = self.int_coords[first]
        j = self.grid.multi_index()
        perm = np.argsort(_coset_labels(j, M, n), kind="stable")
        jc = j[perm[::perm.size // M.shape[0]]]
        E = np.exp(-TWO_PI * 1j * ((M @ jc.T) % n) / n)
        pts = np.concatenate(np.broadcast_arrays(
            reps[None, :, :d], reps[None, :, d:] + M[:, None, :]), axis=-1)
        shift, phases = atom_tables(self.grid, reps)
        shift, phases = shift[perm], phases[perm]
        return Cosets(perm=perm, E=E, fft=d == 1 and _fft_size(M.shape[0]),
                      index=self.indices_of(pts), shift=shift, phases=phases,
                      **_orbit_tables(perm, shift, phases, M.shape[0]))

    def coords(self) -> np.ndarray:
        """Continuum coordinates, shape (N, 2d)."""
        return self.int_coords * self.grid.h

    def indices_of(self, int_coords) -> np.ndarray:
        """Indices of lattice points given integer grid coordinates (any rep).

        Vectorised over the leading axes of int_coords (..., 2d); raises
        KeyError when a row is not a lattice point.
        """
        p = np.asarray(int_coords, dtype=np.int64)
        n = self.grid.n
        B = np.round(n * np.linalg.inv(self.A)).astype(np.int64)
        Bp = p @ B.T
        off = np.any(Bp % n, axis=-1)
        if np.any(off):
            raise KeyError(f"{p[off][0].tolist()} is not a lattice point")
        return self._index(list(np.moveaxis(Bp // n, -1, 0)))

    def add(self, i, j) -> np.ndarray:
        """Index of lambda_i + lambda_j, broadcast over index arrays i, j."""
        return self._index([self.digits[i, c] + self.digits[j, c]
                            for c in range(self.digits.shape[1])])

    def _index(self, m) -> np.ndarray:
        """Point index of the digits m, a list of one array per coordinate
        (consumed), in any representative modulo H.

        H is lower triangular: coordinate c is reduced modulo H_cc and its
        quotient carried into the later coordinates through column c.  The
        remainders are the mixed-radix digits of the value rank maps."""
        H = self.hnf
        value = 0
        for c in range(H.shape[0]):
            q, digit = np.divmod(m[c], H[c, c])
            m[c] = None                     # reduced: free it early
            for k in range(c + 1, H.shape[0]):
                if H[k, c]:
                    m[k] -= q * H[k, c]
            value = value * H[c, c] + digit
        return self.rank[value]

    def torus_norms(self) -> np.ndarray:
        """Torus-metric Euclidean norm |lambda| of every point."""
        w = self.grid.wrap_coord(self.coords())
        return np.sqrt(np.sum(w * w, axis=1))


def _hermite_normal_form(B) -> np.ndarray:
    """Lower-triangular Hermite normal form H = B U, U unimodular.

    Per row, integer column operations (Euclid) clear the entries right of
    the diagonal, make it positive and reduce the entries left of it."""
    H = np.array(B, dtype=np.int64)
    k = H.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            while H[i, j]:
                H[:, i] -= (H[i, i] // H[i, j]) * H[:, j]
                H[:, [i, j]] = H[:, [j, i]]
        if H[i, i] < 0:
            H[:, i] *= -1
        for j in range(i):
            H[:, j] -= (H[i, j] // H[i, i]) * H[:, i]
    return H


def enumerate_lattice(A, grid: Grid) -> Lattice:
    """Enumerate the duplicate-free point set of A Z^{2d} on the torus."""
    A = np.asarray(A, dtype=float)
    td = 2 * grid.d
    if A.shape != (td, td):
        raise LatticeError(f"generator must be {td}x{td}")
    if abs(np.linalg.det(A)) < 1e-12:
        raise LatticeError("generator matrix is singular")
    if not np.max(np.abs(A)) < 2 ** 53:
        raise LatticeError("generator entries must be below 2**53")
    Ar = np.round(A)
    if np.max(np.abs(A - Ar)) > 1e-9:
        raise LatticeError("generator entries must be integers in grid units"
                           "; nearest integer generator: "
                           f"{Ar.astype(int).tolist()}")
    Ai = Ar.astype(int)
    closure = grid.n * np.linalg.inv(Ar)
    # n A^{-1} is integral iff A B = n I for the rounded B, checked in
    # Python integers: a float tolerance on the inverse, whose error grows
    # with cond(A), rejected valid generators such as the unimodular
    # [[55, -134], [-16, 39]].
    B = np.round(closure)
    if not (np.all(np.abs(B) < 2 ** 53) and np.array_equal(
            Ai.astype(object) @ B.astype(np.int64).astype(object),
            grid.n * np.eye(td, dtype=np.int64))):
        raise LatticeError(
            "lattice is incommensurate with the torus (n A^{-1} not integral)")
    H = _hermite_normal_form(B)
    m = np.indices(np.diag(H)).reshape(td, -1).T     # mixed-radix order
    pts = np.mod(m @ Ai.T, grid.n)
    order = np.lexsort(pts.T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return Lattice(A=Ai, grid=grid, int_coords=grid.wrap_index(pts[order]),
                   hnf=H, rank=rank, digits=m[order])


def separable_lattice(a: int, b: int, grid: Grid) -> Lattice:
    """diag(a, b) lattice in grid units (d = 1 only)."""
    if grid.d != 1:
        raise LatticeError("separable_lattice is the d=1 helper")
    return enumerate_lattice(np.diag([a, b]), grid)


class GaborFrameSpec:
    """Window + lattice bundle.

    The input window is normalized to unit l2 norm on construction, unless
    normalize is False, which keeps its scale (a tightened window keeps
    ||g_t||^2 = 1/redundancy, and dilation-demo's sampled unit Gaussian
    keeps its grid norm, so its symbols are Riemann sums).

    The tables a run reads more than once are cached properties, each made
    on first use: the atoms G0 per coset, their conjugates G0^H and the
    Walnut eigenpairs.  The coset tables they are made from are the
    lattice's, Lattice.cosets, shared by every spec on it.  The frame
    operator and the tight and dual windows are computed on each call.
    """

    def __init__(self, window: Signal, lattice: Lattice, normalize: bool = True):
        nrm = window.norm()
        if nrm == 0:
            raise ValueError("window must be nonzero")
        scale = nrm if normalize else 1.0
        self.window = Signal(window.grid, window.values / scale)
        self.lattice = lattice

    @cached_property
    def _atoms(self) -> np.ndarray:
        """G0: one atom pi(x_t, m_t) g per translation, rows grouped by
        coset, shape (|M|, s, N_t); core.build_atoms' product, from the
        lattice's tables."""
        cos = self.lattice.cosets
        G0 = self.window.values[cos.shift] * cos.phases
        return G0.reshape(cos.E.shape[0], -1, G0.shape[1])

    @cached_property
    def _conj_atoms(self) -> np.ndarray:
        """G0^H per coset, (|M|, N_t, s): the analysis kernel's atoms."""
        return self._atoms.conj().transpose(0, 2, 1)

    @cached_property
    def _eigenpairs(self):
        """(perm, w, V) per coset: one batched Hermitian eigendecomposition
        of the roots' blocks, carried to every coset of their orbits."""
        cos = self.lattice.cosets
        w, V = np.linalg.eigh(_walnut_blocks(self))
        V = V[cos.orbit[:, None], cos.carry] * cos.twist[:, :, None]
        return cos.perm, w[cos.orbit], V


@dataclass
class Cosets:
    """Coset tables of a lattice: what analysis and synthesis fold over.

    With M the pure modulations, x_t the distinct translations and m_t
    the modulation of the first lattice point over x_t, the lattice is
    {(x_t, m_t + M_k)}.  The rows perm[c s:(c+1) s] are the c-th coset of
    the annihilator of M, s = n^d / |M|.  shift and phases are
    core.atom_tables of the points (x_t, m_t) with their rows in perm
    order: they depend on the lattice only, so every window on it
    gathers its atoms G0 from them.

    For d = 1, M is q Z_n in lattice order (M_k = k q, K = n / q) and
    the first row of coset c is j_c = c, so E[k, c] = e^{-2 pi i k c / K}
    is the K-point DFT matrix; fft says whether the folds apply it as
    np.fft (d = 1 and K a size the FFT beats E @ Y at, see _FFT_MIN_K).
    For d = 2, M can be non-cyclic, such as Z_4 x Z_4, and E stays dense.

    The orbit tables carry the Walnut block of each orbit's least coset
    (roots) to every coset c of the orbit (see the module docstring):
    with x_t the first translation that carries the root to c, row i of
    c minus x_t is row carry[c, i] of the root, and twist[c] is
    e^{2 pi i j.m_t / n} over c's rows j.
    """

    perm: np.ndarray     # (n^d,) rows grouped by coset
    E: np.ndarray        # (|M|, |M|) [k, c] e^{-2 pi i (j_c.M_k mod n) / n}
    fft: bool            # E is the |M|-point DFT and the folds use the FFT
    index: np.ndarray    # (|M|, N_t) lattice index of (x_t, m_t + M_k)
    shift: np.ndarray    # (n^d, N_t) sample of (j - x_t) mod n, perm rows
    phases: np.ndarray   # (n^d, N_t) e^{2 pi i j.m_t / n}, perm rows
    roots: np.ndarray    # (R,) the least coset of each orbit, ascending
    orbit: np.ndarray    # (|M|,) position in roots of c's orbit
    carry: np.ndarray    # (|M|, s) row of the root under row i of c - x_t
    twist: np.ndarray    # (|M|, s) e^{2 pi i j.m_t / n} over c's rows


def _coset_labels(j: np.ndarray, M: np.ndarray, n: int) -> np.ndarray:
    """Rank of each row's character vector (j.M_k mod n)_k in
    lexicographic order, one int64 label per row of j, refined over a
    prefix of M (see the module docstring)."""
    label = np.zeros(j.shape[0], dtype=np.int64)
    count = 1
    for m in M:
        if count == M.shape[0]:
            break
        used, label = np.unique(label * n + (j @ m) % n, return_inverse=True)
        count = used.size
    return label


def _fft_size(K: int) -> bool:
    """Whether the K-point FFT beats the K x K product: K >= _FFT_MIN_K
    with no prime factor outside _FFT_PRIMES."""
    if K < _FFT_MIN_K:
        return False
    for p in _FFT_PRIMES:
        while K % p == 0:
            K //= p
    return K == 1


def _orbit_tables(perm, shift, phases, K) -> dict:
    """roots, orbit, carry and twist of Cosets from the atom tables in
    perm order: the translation x_t takes the coset c to the coset of
    c's first row minus x_t, and the least of these over t is c's root."""
    s = perm.size // K
    coset = np.empty_like(perm)
    coset[perm] = np.repeat(np.arange(K), s)
    pos = np.empty_like(perm)
    pos[perm] = np.tile(np.arange(s), K)
    image = coset[shift[::s]]                       # (K, N_t)
    root = image.min(axis=1)
    t = np.argmax(image == root[:, None], axis=1)   # first such x_t
    cs = np.arange(K)
    roots, orbit = np.unique(root, return_inverse=True)
    return dict(roots=roots, orbit=orbit,
                carry=pos[shift.reshape(K, s, -1)[cs, :, t]],
                twist=phases.reshape(K, s, -1)[cs, :, t])


def _walnut_blocks(spec: GaborFrameSpec) -> np.ndarray:
    """The diagonal blocks of the frame operator on the orbits' least
    cosets, (R, s, s): blocks[r] is S on the rows and columns of the coset
    Cosets.roots[r], |M| G0 G0^H over one atom per translation.
    """
    G0 = spec._atoms
    Gr = G0[spec.lattice.cosets.roots]
    return G0.shape[0] * (Gr @ Gr.conj().transpose(0, 2, 1))


def frame_operator(spec: GaborFrameSpec) -> np.ndarray:
    """Dense frame operator S = sum_lambda pi(lambda) g (pi(lambda) g)^H.

    The Hermitian part of A A^H, the synthesis of the analysis of the
    identity; the frame computations below work on the Walnut blocks and
    never form S.
    """
    S = synthesis(analysis(np.eye(spec.window.grid.size), spec), spec)
    return 0.5 * (S + S.conj().T)


def frame_bounds(spec: GaborFrameSpec):
    """Extremal eigenvalues (A_lo, B_hi) of the frame operator."""
    _, evals, _ = spec._eigenpairs
    lo = float(max(evals.min(), 0.0))
    hi = float(evals.max())
    return lo, hi


def bounds_make_frame(lo: float, hi: float) -> bool:
    """Whether frame bounds (lo, hi) make a frame: lo > NOT_A_FRAME_RTOL hi."""
    return lo > NOT_A_FRAME_RTOL * hi


def is_frame(spec: GaborFrameSpec) -> bool:
    return bounds_make_frame(*frame_bounds(spec))


def is_parseval(spec: GaborFrameSpec) -> bool:
    lo, hi = frame_bounds(spec)
    return abs(lo - 1.0) < PARSEVAL_TOL and abs(hi - 1.0) < PARSEVAL_TOL


def _frame_power_window(spec: GaborFrameSpec, p: float) -> Signal:
    """S^p g, blockwise V diag(w^p) V^H over the cosets."""
    perm, w, V = spec._eigenpairs
    g = spec.window.values[perm].reshape(w.shape)
    c = np.einsum("kji,kj->ki", V.conj(), g)
    y = np.einsum("kij,kj->ki", V, w ** p * c)
    out = np.empty(perm.size, dtype=complex)
    out[perm] = y.ravel()
    return Signal(spec.window.grid, out)


def canonical_tight_window(spec: GaborFrameSpec) -> Signal:
    """Parseval window g_t = S^{-1/2} g via Hermitian eigendecomposition."""
    if not is_frame(spec):
        raise NotAFrameError("lower frame bound vanishes; cannot tighten")
    return _frame_power_window(spec, -0.5)


def dual_window(spec: GaborFrameSpec) -> Signal:
    """Canonical dual gamma = S^{-1} g."""
    if not is_frame(spec):
        raise NotAFrameError("lower frame bound vanishes; no dual window")
    return _frame_power_window(spec, -1.0)


def tighten(spec: GaborFrameSpec) -> GaborFrameSpec:
    """Spec over the same lattice whose window makes a Parseval frame.

    The tight window keeps its natural scale ||g_t||^2 = 1/redundancy.
    """
    return GaborFrameSpec(canonical_tight_window(spec), spec.lattice,
                          normalize=False)


def _column_blocks(ncols: int, rows: int):
    """Slices of about _BLOCK_BYTES of complex columns of the given height."""
    step = max(1, _BLOCK_BYTES // (16 * rows))
    return [slice(i, i + step) for i in range(0, ncols, step)]


def _coset_fold(G0h: np.ndarray, Xc: np.ndarray, cos: Cosets,
                Y: Optional[np.ndarray] = None) -> np.ndarray:
    """E (G0h Xc), (|M| N_t', w): the analysis kernel on rows in coset order.

    Xc is (|M|, s, w), one coset of rows per leading index; G0h is
    (|M|, N_t', s), the conjugate atoms of all N_t translations or of N_t'
    consecutive ones.  Row k N_t' + t is the point (x_t, m_t + M_k), x_t
    the t-th of those translations.  Y, if given, is a C-contiguous
    (|M|, N_t', w) buffer that takes G0h Xc.

    Where cos.fft, E is the |M|-point DFT and runs as np.fft.fft over the
    leading axis, in place in the product G0h Xc: the result is Y (or a
    fresh product), reshaped.  Otherwise it is the dense product E @ Y, a
    fresh array; d = 2 always takes it, since M can be non-cyclic there.
    """
    K, Nt = G0h.shape[:2]
    Y = np.matmul(G0h, Xc, out=Y).reshape(K, -1)
    if cos.fft:
        return np.fft.fft(Y, axis=0, out=Y).reshape(K * Nt, -1)
    return (cos.E @ Y).reshape(K * Nt, -1)


def _coset_analysis(X: np.ndarray, spec: GaborFrameSpec,
                    buf: Optional[np.ndarray] = None) -> np.ndarray:
    """A^H X for one column block X, (n^d, w), with its rows in coset order.

    Row k N_t + t is the lattice point Cosets.index[k, t], (x_t, m_t +
    M_k).  analysis scatters the rows to lattice order; fio's stream of
    A^H T A reads them as they are.  The result is always fresh.  buf, a
    flat complex array of at least N w entries, takes the product G0^H
    X_c of the dense side, so that a caller walking many blocks allocates
    it once; where Cosets.fft the FFT runs in place in a fresh product,
    which is the result, and buf is not used.
    """
    cos = spec.lattice.cosets
    G0h = spec._conj_atoms
    K, Nt, s = G0h.shape
    Xc = X[cos.perm].reshape(K, s, -1)
    Y = None if buf is None or cos.fft else \
        buf[:K * Nt * Xc.shape[2]].reshape(K, Nt, -1)
    return _coset_fold(G0h, Xc, cos, Y)


def _coset_synthesis(Xc: np.ndarray, spec: GaborFrameSpec,
                     out: np.ndarray) -> np.ndarray:
    """A X into out, (n^d, w), for one column block X, (N, w), given
    with its rows in coset order: row k N_t + t is the lattice point
    Cosets.index[k, t].  Returns out.

    The mirror of _coset_analysis: G0_c (E^H X)_c per coset c, with the
    signal's rows scattered from coset order to grid order.  synthesis
    gathers its rows into coset order first; multiplier's table is
    stored in that order.  out may be a view, such as a column block of
    a larger array.  Where Cosets.fft, E^H is the unscaled inverse DFT,
    np.fft.ifft with norm="forward"; it is not done in place, since Xc
    can be a view of multiplier's table.  Otherwise E^H X is a dense
    product, as for every d = 2 lattice.
    """
    cos = spec.lattice.cosets
    G0 = spec._atoms
    K, s, Nt = G0.shape
    X = Xc.reshape(K, -1)
    W = (np.fft.ifft(X, axis=0, norm="forward") if cos.fft
         else cos.E.conj().T @ X)
    out[cos.perm] = (G0 @ W.reshape(K, Nt, -1)).reshape(K * s, -1)
    return out


def analysis(f, spec: GaborFrameSpec) -> np.ndarray:
    """Coefficients <f, pi(lambda) g> over the lattice, A^H f.

    f is a Signal or an array of n^d samples by any number of columns;
    the result has N rows in lattice order and the same columns.
    """
    X = f.values if isinstance(f, Signal) else np.asarray(f)
    order = spec.lattice.cosets.index.ravel()
    cols = X.reshape(X.shape[0], -1)
    out = np.empty((order.size, cols.shape[1]), dtype=complex)
    for b in _column_blocks(cols.shape[1], max(order.size, cols.shape[0])):
        out[order, b] = _coset_analysis(cols[:, b], spec)
    return out.reshape((-1,) + X.shape[1:])


def synthesis(c: np.ndarray, spec: GaborFrameSpec):
    """sum_lambda c_lambda pi(lambda) g, A c.

    A vector of N coefficients gives a Signal; an (N, K) array gives the
    (n^d, K) array of the K syntheses.
    """
    c = np.asarray(c, dtype=complex)
    N = spec.lattice.npoints
    if c.shape[:1] != (N,) or c.ndim > 2:
        raise ValueError(f"expected {N} coefficients, got {c.shape}")
    index = spec.lattice.cosets.index
    n_d = spec.window.grid.size
    cols = c.reshape(N, -1)
    out = np.empty((n_d, cols.shape[1]), dtype=complex)
    for b in _column_blocks(cols.shape[1], max(N, n_d)):
        _coset_synthesis(cols[index, b], spec, out[:, b])
    if c.ndim == 1:
        return Signal(spec.window.grid, out[:, 0])
    return out


def gabor_mod_norm(f, p: float, m: np.ndarray, spec: GaborFrameSpec):
    """Discrete modulation norm (sum |c_lambda|^p m_lambda^p)^{1/p}.

    m holds one weight per lattice point, in lattice order.  f is a
    Signal, with one norm, or an (n^d, K) array, with one norm per column.
    Each column is scaled by its largest |c_lambda| m_lambda before the
    power sum, so a large p neither underflows nor overflows.
    """
    if p < 1:
        raise ValueError("p must be in [1, inf]")
    c = np.abs(analysis(f, spec)).T * m
    top = np.max(c, axis=-1, keepdims=True)
    if np.isinf(p):
        return top[..., 0]
    top[top == 0] = 1.0     # a zero column has norm 0
    return (top * np.sum((c / top) ** p, axis=-1, keepdims=True)
            ** (1.0 / p))[..., 0]


@dataclass
class WarpedFrameReport:
    bounds: tuple
    max_rounding_displacement: float
    density: float


def warped_frame_check(window: Signal, lattice: Lattice,
                       chi: Callable[[np.ndarray], np.ndarray]) -> WarpedFrameReport:
    """Frame bounds of {pi(round(chi(lambda))) g : lambda in Lambda}.

    chi maps continuum phase-space vectors (N, 2d) -> (N, 2d); images are
    rounded to the nearest grid point and wrapped to the torus before the
    atoms are formed.  Duplicate warped points are kept (they are part of
    the warped system).
    """
    grid = lattice.grid
    imgs = np.asarray(chi(lattice.coords()), dtype=float)
    steps = imgs / grid.h
    rounded = np.round(steps)
    displacement = float(np.max(np.abs(steps - rounded) * grid.h)) if steps.size else 0.0
    ic = np.asarray(grid.wrap_index(rounded.astype(int)))
    nrm = window.norm()
    w = Signal(window.grid, window.values / nrm)
    G = build_atoms(w, ic)
    S = G @ G.conj().T
    evals = np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    bounds = (float(max(evals[0], 0.0)), float(evals[-1]))
    uniq = np.unique(np.mod(ic, grid.n), axis=0).shape[0]
    return WarpedFrameReport(bounds=bounds,
                             max_rounding_displacement=displacement,
                             density=uniq / grid.size)
