"""Property tests of analysis and synthesis by coset folding.

frames.analysis and frames.synthesis never form the n^d x N atom matrix A:
they fold over the cosets of the annihilator of the pure modulations.
Each is checked here against the dense oracle A = build_atoms over every
lattice point, for d = 1 and d = 2, separable and non-separable
lattices, random complex windows, one and several columns, and column
blocks of 1, 7 and k + 3 columns.  The sandwiches A C A^H behind
assemble_truncated and the oracle multiplier_matrix, and the scatter of
the oracle apply_multiplier (tests/oracles.py), are checked the same way, with a warp that maps
several points to one; assemble_truncated's mask is built from integer
coordinates.  For d = 1 both sides of the character product run: the
K-point FFT that Cosets.fft selects and the dense product with E,
forced by patching frames._FFT_MIN_K before the lattice's cosets are
made.  The coset tables themselves are checked bit for bit against the
full character vectors they are labelled by, E for d = 1 against the
DFT matrix the FFT stands for, and d = 2 always takes the dense product.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from gaborfio import frames
from gaborfio.core import TWO_PI, Grid, Signal, build_atoms
from gaborfio.fio import GaborMatrix
from gaborfio.frames import (GaborFrameSpec, analysis, enumerate_lattice,
                             synthesis)
from gaborfio.multiplier import MultiplierSymbolTable, assemble_truncated
from oracles import GaborMultiplier, apply_multiplier, multiplier_matrix
from test_lattice_algebra import commensurate_generators, integer_mask

MAX_POINTS = 1024
RTOL = 1e-12

# d = 1 with a non-separable generator, and d = 2 non-separable.
SHEARED = (np.array([[2, 1], [0, 4]]), Grid(16))
SHEARED_2D = (np.array([[2, 0, 0, 0], [0, 3, 0, 0], [1, 0, 2, 0],
                        [0, 0, 0, 2]]), Grid(12, 2))


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def block_bytes(spec, columns):
    """_BLOCK_BYTES that makes the fold process `columns` columns a block."""
    rows = max(spec.lattice.npoints, spec.window.grid.size)
    return 16 * rows * columns


def draw_spec(gen, seed, fft):
    """A spec on gen's lattice with a random window; its cosets are made
    with the FFT forced on (every d = 1 size drawn here has the prime
    factors 2 and 3 only) or off."""
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    assume(lat.npoints <= MAX_POINTS)
    with mock.patch.object(frames, "_FFT_MIN_K", 1 if fft else np.inf):
        assert frames._cosets(lat).fft == (fft and grid.d == 1)
    rng = np.random.default_rng(seed)
    window = Signal(grid, random_complex(rng, grid.size))
    return GaborFrameSpec(window, lat), rng


SETTINGS = settings(max_examples=60, deadline=None, database=None)
CASES = given(commensurate_generators(sizes=((8, 12, 16, 24, 32), (8,))),
              st.integers(2, 6), st.sampled_from(["one", "seven", "k+3"]),
              st.integers(0, 2 ** 16), st.booleans())


def block_columns(block, k):
    return {"one": 1, "seven": 7, "k+3": k + 3}[block]


@SETTINGS
@CASES
@example(gen=SHEARED, k=3, block="one", seed=1, fft=True)
@example(gen=SHEARED, k=3, block="one", seed=1, fft=False)
@example(gen=(np.diag([1, 1]), Grid(24)), k=2, block="seven", seed=5,
         fft=True)
@example(gen=SHEARED_2D, k=4, block="seven", seed=2, fft=True)
def test_analysis_and_synthesis_match_the_dense_atoms(gen, k, block, seed,
                                                     fft):
    spec, rng = draw_spec(gen, seed, fft)
    n_d, N = spec.window.grid.size, spec.lattice.npoints
    atoms = build_atoms(spec.window, spec.lattice.int_coords)
    with mock.patch.object(frames, "_BLOCK_BYTES",
                           block_bytes(spec, block_columns(block, k))):
        for cols in (1, k):
            X = random_complex(rng, n_d, cols)
            C = random_complex(rng, N, cols)
            assert analysis(X, spec).shape == (N, cols)
            assert rel_err(analysis(X, spec), atoms.conj().T @ X) < RTOL
            assert synthesis(C, spec).shape == (n_d, cols)
            assert rel_err(synthesis(C, spec), atoms @ C) < RTOL
        f = Signal(spec.window.grid, X[:, 0])
        assert rel_err(analysis(f, spec), atoms.conj().T @ X[:, 0]) < RTOL
        assert rel_err(synthesis(C[:, 0], spec).values, atoms @ C[:, 0]) < RTOL


@SETTINGS
@CASES
@example(gen=SHEARED, k=2, block="k+3", seed=3, fft=True)
@example(gen=SHEARED, k=2, block="k+3", seed=3, fft=False)
@example(gen=SHEARED_2D, k=5, block="one", seed=4, fft=True)
def test_sandwiches_match_the_dense_atoms(gen, k, block, seed, fft):
    spec, rng = draw_spec(gen, seed, fft)
    lat = spec.lattice
    N = lat.npoints
    atoms = build_atoms(spec.window, lat.int_coords)
    # A warp that sends several points to one, as chi' can.
    warp_idx = rng.integers(0, max(1, N // 2), size=N)
    a = random_complex(rng, N)
    with mock.patch.object(frames, "_BLOCK_BYTES",
                           block_bytes(spec, block_columns(block, k))):
        M = GaborMultiplier(a, spec, warp_idx)
        dense = (atoms[:, warp_idx] * a) @ atoms.conj().T
        assert rel_err(multiplier_matrix(M), dense) < RTOL
        f = Signal(lat.grid, random_complex(rng, lat.grid.size))
        assert rel_err(apply_multiplier(M, f).values, dense @ f.values) < RTOL

        # The shifts up to the norm L of a random point: the Gabor matrix
        # masked to |lambda - chi'(mu)| <= L, in integer coordinates.
        norms = lat.torus_norms()
        L = float(norms[rng.integers(N)])
        # The table's rows are in coset order: row r is the point
        # Cosets.index.ravel()[r].
        cross = random_complex(rng, N, N)   # [lam, mu], lattice order
        tsym = MultiplierSymbolTable(
            G=GaborMatrix(spec, cross[frames._cosets(lat).index.ravel()]),
            warp_idx=warp_idx)
        C = cross * integer_mask(lat, warp_idx, L)
        masked = assemble_truncated(tsym, L)   # the mask's blocks too
        assert rel_err(masked, atoms @ C @ atoms.conj().T) < RTOL


def full_vector_cosets(lat):
    """(perm, reps, E, index) ordered by np.unique over the rows' whole
    character vectors (j.M_k mod n)_k, one column per pure modulation."""
    n, d = lat.grid.n, lat.grid.d
    ic = np.mod(lat.int_coords, n)
    M = ic[~np.any(ic[:, :d], axis=1), d:]
    _, first = np.unique(ic[:, :d], axis=0, return_index=True)
    reps = lat.int_coords[first]
    j = lat.grid.multi_index()
    _, label = np.unique((j @ M.T) % n, axis=0, return_inverse=True)
    perm = np.argsort(label.ravel(), kind="stable")
    jc = j[perm[::perm.size // M.shape[0]]]
    E = np.exp(-TWO_PI * 1j * ((M @ jc.T) % n) / n)
    pts = np.concatenate(np.broadcast_arrays(
        reps[None, :, :d], reps[None, :, d:] + M[:, None, :]), axis=-1)
    return perm, reps, E, lat.indices_of(pts)


@SETTINGS
@given(commensurate_generators())
@example(gen=SHEARED)
@example(gen=SHEARED_2D)
# All of Z_16^2 is pure modulation, so the labels need a prefix of 17
# modulations: without re-ranking they would overflow int64.
@example(gen=(np.diag([2, 2, 1, 1]), Grid(16, 2)))
@example(gen=(np.diag([4, 2, 1, 1]), Grid(16, 2)))
def test_coset_tables_follow_the_full_character_vectors(gen):
    lat = enumerate_lattice(*gen)
    cos = frames._cosets(lat)
    perm, reps, E, index = full_vector_cosets(lat)
    assert np.array_equal(cos.perm, perm)
    assert np.array_equal(cos.reps, reps)
    assert np.array_equal(cos.E, E)
    assert np.array_equal(cos.index, index)


@SETTINGS
@given(commensurate_generators(sizes=((8, 12, 16, 20, 24, 28, 32, 46),
                                      (8, 12))))
@example(gen=SHEARED)
@example(gen=(np.diag([1, 1]), Grid(46)))
@example(gen=SHEARED_2D)
@example(gen=(np.diag([1, 1, 1, 1]), Grid(12, 2)))
def test_d1_characters_are_the_dft_and_d2_stays_dense(gen):
    """For d = 1, E is the |M|-point DFT matrix, which is what lets the
    folds run as FFTs; the FFT is chosen by the size rule alone, and never
    for d = 2, where M can be non-cyclic."""
    lat = enumerate_lattice(*gen)
    cos = frames._cosets(lat)
    K = cos.E.shape[0]
    if lat.grid.d == 1:
        assert np.max(np.abs(cos.E - np.fft.fft(np.eye(K), axis=0))) < 1e-12
        assert cos.fft == frames._fft_size(K)
    else:
        assert not cos.fft
        lat = enumerate_lattice(*gen)
        with mock.patch.object(frames, "_FFT_MIN_K", 1):
            assert not frames._cosets(lat).fft


def test_fft_size_rule():
    """At least _FFT_MIN_K, and no prime factor outside _FFT_PRIMES."""
    fft = [K for K in range(1, 70) if frames._fft_size(K)]
    assert fft == [20, 21, 22, 24, 25, 27, 28, 30, 32, 33, 35, 36, 40, 42,
                   44, 45, 48, 49, 50, 54, 55, 56, 60, 63, 64, 66]
