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
coordinates.  The coset tables themselves are checked bit for bit
against the full character vectors they are labelled by.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from gaborfio import frames
from gaborfio.core import TWO_PI, Grid, Signal, build_atoms
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


def draw_spec(gen, seed):
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    assume(lat.npoints <= MAX_POINTS)
    rng = np.random.default_rng(seed)
    window = Signal(grid, random_complex(rng, grid.size))
    return GaborFrameSpec(window, lat), rng


SETTINGS = settings(max_examples=60, deadline=None, database=None)
CASES = given(commensurate_generators(sizes=((8, 12, 16, 24, 32), (8,))),
              st.integers(2, 6), st.sampled_from(["one", "seven", "k+3"]),
              st.integers(0, 2 ** 16))


def block_columns(block, k):
    return {"one": 1, "seven": 7, "k+3": k + 3}[block]


@SETTINGS
@CASES
@example(gen=SHEARED, k=3, block="one", seed=1)
@example(gen=SHEARED_2D, k=4, block="seven", seed=2)
def test_analysis_and_synthesis_match_the_dense_atoms(gen, k, block, seed):
    spec, rng = draw_spec(gen, seed)
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
@example(gen=SHEARED, k=2, block="k+3", seed=3)
@example(gen=SHEARED_2D, k=5, block="one", seed=4)
def test_sandwiches_match_the_dense_atoms(gen, k, block, seed):
    spec, rng = draw_spec(gen, seed)
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
        tsym = MultiplierSymbolTable(
            spec=spec, cross=random_complex(rng, N, N), warp_idx=warp_idx)
        C = tsym.cross * integer_mask(lat, warp_idx, L)
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
