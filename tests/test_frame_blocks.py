"""Property tests of the block-diagonal (Walnut) frame machinery.

The frame operator, its bounds and the tight and dual windows come from
small per-coset blocks; each is checked here against the dense oracle
S = G G^H over all atoms, its eigendecomposition and a linear solve.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gaborfio.core import Signal
from gaborfio.frames import (GaborFrameSpec, NotAFrameError, build_atoms,
                             canonical_tight_window, dual_window,
                             enumerate_lattice, frame_bounds, frame_operator,
                             is_frame)
from gaborfio.windows import gaussian_window
from test_lattice_algebra import commensurate_generators

SIZES = ((8, 12, 16, 24, 32, 48), (8, 12))


def window(grid, kind, seed):
    """The Gaussian, or a random complex window with no symmetry."""
    if kind == "gaussian":
        return gaussian_window(grid)
    rng = np.random.default_rng(seed)
    return Signal(grid, rng.standard_normal(grid.size)
                  + 1j * rng.standard_normal(grid.size))


def dense_oracle(spec):
    G = build_atoms(spec.window, spec.lattice.int_coords)
    S = G @ G.conj().T
    return 0.5 * (S + S.conj().T)


def rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


@settings(max_examples=80, deadline=None, database=None)
@given(commensurate_generators(SIZES),
       st.sampled_from(["gaussian", "random"]), st.integers(0, 2 ** 16))
def test_blocks_match_dense_oracle(gen, kind, seed):
    A, grid = gen
    spec = GaborFrameSpec(window(grid, kind, seed), enumerate_lattice(A, grid))
    S = dense_oracle(spec)
    evals, vecs = scipy.linalg.eigh(S)
    scale = evals[-1]
    assert np.max(np.abs(frame_operator(spec) - S)) < 1e-13 * scale
    lo, hi = frame_bounds(spec)
    assert abs(lo - max(evals[0], 0.0)) < 1e-13 * scale
    assert abs(hi - evals[-1]) < 1e-13 * scale
    oracle_is_frame = evals[0] > 1e-10 * evals[-1]
    assert is_frame(spec) == oracle_is_frame
    if not oracle_is_frame:
        with pytest.raises(NotAFrameError):
            canonical_tight_window(spec)
        with pytest.raises(NotAFrameError):
            dual_window(spec)
        return
    g = spec.window.values
    tight = vecs @ (evals ** -0.5 * (vecs.conj().T @ g))
    dual = np.linalg.solve(S, g)
    # Both sides lose about cond(S) eps; 1e-12 covers cond(S) <= 100.
    tol = max(1e-12, 1e-14 * evals[-1] / evals[0])
    assert rel_err(canonical_tight_window(spec).values, tight) < tol
    assert rel_err(dual_window(spec).values, dual) < tol

