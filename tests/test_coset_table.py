"""The coset-order truncation against the lattice-order oracle, bit for bit.

multiplier.extract_symbols stores fio.gabor_columns' blocks with their
rows in coset order (fio.gabor_matrix), and assemble_truncated masks
each column block of that table in the same order and hands it to
frames._coset_synthesis, the kernel frames.synthesis gathers its
coefficients into.  oracles.truncated_sum masks the same table scattered
to lattice order, oracles.gabor_cross, into a whole N x N copy and
sandwiches it by two syntheses.  The two see the same entries, the same
mask and the same synthesis blocks, so they must agree bit for bit, for
every lattice, phase, radius and block width.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from gaborfio import frames
from gaborfio.core import Grid
from gaborfio.fio import bandlimited_symbol, make_fio
from gaborfio.frames import (GaborFrameSpec, _coset_synthesis,
                             enumerate_lattice, synthesis)
from gaborfio.multiplier import assemble_truncated, extract_symbols
from gaborfio.phases import canonical_map
from gaborfio.windows import gaussian_window
from oracles import gabor_cross, truncated_sum
from test_lattice_algebra import commensurate_generators
from test_shift_symbols import PHASES

RADII = (0.0, 0.5, 1.0, 2.0, 4.0, np.inf)


@settings(max_examples=40, deadline=None, database=None)
@given(commensurate_generators(sizes=((8, 12, 16, 24),), dims=(1,)),
       st.sampled_from(PHASES), st.sampled_from([1, 3, 7, 16, None]),
       st.floats(0, 4), st.integers(0, 2 ** 16))
@example(gen=(np.diag([2, 2]), Grid(16)), phase=PHASES[0], columns=3,
         radius=1.5, seed=0)
@example(gen=(np.array([[2, 1], [0, 4]]), Grid(16)), phase=PHASES[2],
         columns=None, radius=0.25, seed=1)
def test_coset_order_truncation_equals_the_lattice_order_oracle(
        gen, phase, columns, radius, seed):
    # columns: the columns per block, None for one block of all of them.
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    N = lat.npoints
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    cm = canonical_map(phase)
    T = make_fio(phase, bandlimited_symbol(grid, 2, seed=seed), grid)
    width = N if columns is None else columns
    block_bytes = 16 * max(N, grid.size) * width
    with mock.patch.object(frames, "_BLOCK_BYTES", block_bytes), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the spec need not be Parseval
        tsym = extract_symbols(T, spec, cm)
        cross = gabor_cross(tsym.G)
        for L in RADII + (radius,):
            assert np.array_equal(
                assemble_truncated(tsym, L),
                truncated_sum(cross, tsym.warp_idx, spec, L))
        # One block of coefficients: synthesis gathers it into coset
        # order and runs the same kernel.
        rng = np.random.default_rng(seed)
        C = rng.standard_normal((N, width)) \
            + 1j * rng.standard_normal((N, width))
        out = np.empty((grid.size, width), dtype=complex)
        _coset_synthesis(C[lat.cosets.index.ravel()], spec, out)
        assert np.array_equal(synthesis(C, spec), out)
