"""Property tests of the block-diagonal (Walnut) frame machinery.

The frame bounds and the tight and dual windows come from small
per-coset blocks, the dense frame operator from analysis and synthesis;
each is checked here against the dense oracle S = G G^H over all atoms,
its eigendecomposition and a linear solve.
Only one block per orbit of the cosets under the lattice's translations
is built and decomposed; the orbit tables that carry it to the other
cosets are checked against every coset's block built directly.
"""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gaborfio import frames
from gaborfio.cli import main
from gaborfio.core import Signal
from gaborfio.frames import (GaborFrameSpec, NotAFrameError, _cosets,
                             _walnut_blocks, build_atoms,
                             canonical_tight_window, dual_window,
                             enumerate_lattice, frame_bounds, frame_operator,
                             is_frame)
from gaborfio.windows import gaussian_window
from oracles import eigendecomposition, walnut_blocks
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



@settings(max_examples=80, deadline=None, database=None)
@given(commensurate_generators(SIZES),
       st.sampled_from(["gaussian", "random"]), st.integers(0, 2 ** 16))
def test_orbit_tables_carry_the_root_blocks(gen, kind, seed):
    A, grid = gen
    spec = GaborFrameSpec(window(grid, kind, seed), enumerate_lattice(A, grid))
    cos = _cosets(spec.lattice)
    perm, direct = walnut_blocks(spec)
    scale = np.max(np.abs(direct))
    roots = _walnut_blocks(spec)
    assert roots.shape[0] == cos.roots.size
    assert np.max(np.abs(roots - direct[cos.roots])) <= 1e-13 * scale
    _, w_direct, _ = eigendecomposition(spec)
    _, w, V = spec._eigenpairs
    for c in range(direct.shape[0]):
        B, p, phi = roots[cos.orbit[c]], cos.carry[c], cos.twist[c]
        carried = np.outer(phi, phi.conj()) * B[p][:, p]
        assert np.max(np.abs(direct[c] - carried)) <= 1e-13 * scale
        rebuilt = (V[c] * w[c]) @ V[c].conj().T
        assert np.max(np.abs(direct[c] - rebuilt)) <= 1e-13 * scale
    assert np.max(np.abs(w - w_direct)) <= 1e-13 * scale


def test_frame_check_decomposes_one_block_per_orbit(tmp_path, monkeypatch):
    # n = 640, diag(16, 16): 40 cosets of 16 rows in 8 orbits.  frame-check
    # decomposes the blocks of the spec and of its tightened spec.
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"n": 640, "d": 1},
                               "window": {"kind": "gaussian"},
                               "lattice": {"generator": [[16, 0], [0, 16]]},
                               "seed": 0}))
    assert main(["frame-check", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert shapes == [(8, 16, 16)] * 2


@pytest.mark.parametrize("command", ["decay-scan", "frame-check"])
def test_a_spec_makes_its_eigenpairs_once(tmp_path, monkeypatch, command):
    # A run has two specs, its own and the tightened one.  Each builds its
    # Walnut blocks once: the eigenpairs are cached on the spec, and every
    # frame bound, Parseval test and window after the first reads them.
    specs = []
    blocks = frames._walnut_blocks

    def counting_blocks(spec):
        specs.append(spec)
        return blocks(spec)

    monkeypatch.setattr(frames, "_walnut_blocks", counting_blocks)
    cfg = {"grid": {"n": 64, "d": 1}, "window": {"kind": "gaussian"},
           "lattice": {"generator": [[4, 0], [0, 4]]}, "seed": 0}
    if command == "decay-scan":
        cfg.update(phase={"kind": "dilation", "params": {"s": 2.0}},
                   symbol={"kind": "bandlimited", "params": {"N": 2}},
                   s_claim=4.0)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(specs) == 2 and specs[0] is not specs[1]
