"""The streamed symbol gather against the stored Gabor matrix.

multiplier.shift_symbols reads the symbols a_nu(mu) of the shifts a
caller names from fio.gabor_columns' column blocks, whose rows are in
coset order.  oracles.symbols reads them from the N x N matrix that
extract_symbols stores, whose rows are in the same coset order, through
Cosets.index.  Both see the same blocks when
frames._BLOCK_BYTES is the same, so they must agree bit for bit, for
every lattice, phase, shift set and block width.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from gaborfio import frames
from gaborfio.core import Grid
from gaborfio.fio import bandlimited_symbol, constant_symbol, make_fio
from gaborfio.frames import GaborFrameSpec, enumerate_lattice
from gaborfio.multiplier import extract_symbols, shift_symbols
from gaborfio.phases import (canonical_map, chirp_phase, dilation_phase,
                             perturbed_phase)
from gaborfio.windows import WINDOW_KINDS, gaussian_window
from oracles import symbols
from test_lattice_algebra import commensurate_generators

PHASES = (dilation_phase(2.0), dilation_phase(1.5), perturbed_phase(0.1),
          chirp_phase(0.25))


@settings(max_examples=60, deadline=None, database=None)
@given(commensurate_generators(sizes=((8, 12, 16, 24),), dims=(1,)),
       st.sampled_from(PHASES), st.sampled_from([1, 3, 7, 16, None]),
       st.one_of(st.none(), st.integers(1, 2 ** 16)),
       st.integers(0, 2 ** 16))
@example(gen=(np.diag([1, 1]), Grid(12)), phase=PHASES[0], columns=None,
         take=None, seed=0)
@example(gen=(np.diag([1, 1]), Grid(12)), phase=PHASES[2], columns=7,
         take=None, seed=0)
def test_streamed_symbols_equal_the_stored_matrix(gen, phase, columns, take,
                                                  seed):
    # columns: the columns per block, None for one block of all of them.
    # take: None for every shift in lattice order (the full radius), else
    # that many distinct shifts, modulo N, in random order.
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    N = lat.npoints
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    cm = canonical_map(phase)
    T = make_fio(phase, bandlimited_symbol(grid, 2, seed=seed), grid)
    if take is None:
        nu_indices = np.arange(N)
    else:
        rng = np.random.default_rng(seed)
        nu_indices = rng.choice(N, size=1 + take % N, replace=False)
    rows = max(N, grid.size)   # the height fio.gabor_columns blocks by
    block_bytes = 16 * rows * (N if columns is None else columns)
    with mock.patch.object(frames, "_BLOCK_BYTES", block_bytes), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the spec need not be Parseval
        a, c = shift_symbols(T, spec, cm, nu_indices)
        a_ref, c_ref = symbols(extract_symbols(T, spec, cm), nu_indices)
    assert np.array_equal(c, c_ref)
    assert np.array_equal(a, a_ref)


def test_a_shift_has_the_same_symbols_in_any_shift_set():
    # dilation-demo's setting at n = 80: 40 shifts make a (40, 400) table
    # of 256,000 B and all 145 with |nu| <= 3 one of 928,000 B, on either
    # side of 256 KiB.  From there numpy writes c * (a temporary) into the
    # temporary as (temporary) * c, and the two operand orders of a
    # complex product can round differently.
    grid = Grid(80)
    lat = enumerate_lattice([[4, 0], [0, 4]], grid)
    spec = GaborFrameSpec(WINDOW_KINDS["gaussian"](grid, {}), lat,
                          normalize=False)
    phase = dilation_phase(2.0)
    T = make_fio(phase, constant_symbol(grid), grid)
    nu_indices = np.flatnonzero(lat.torus_norms() <= 3.0 + 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # not Parseval, as in dilation-demo
        a, c = shift_symbols(T, spec, canonical_map(phase), nu_indices)
        a40, c40 = shift_symbols(T, spec, canonical_map(phase),
                                 nu_indices[:40])
    assert a40.nbytes < 2 ** 18 <= a.nbytes
    assert np.array_equal(c40, c[:40])
    assert np.array_equal(a40, a[:40])
