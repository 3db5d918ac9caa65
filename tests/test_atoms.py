"""Property tests of the one time-frequency shift kernel, build_atoms.

The oracle is the per-atom roll-and-phase construction: roll the window
over each axis by x, then multiply by e^{2 pi i j.m / n} on the
d-dimensional index grid.  Random complex windows have no symmetry, so a
wrong axis order in the flat index cannot pass.
"""

from functools import reduce

import numpy as np
from hypothesis import given, settings, strategies as st

from gaborfio.core import Signal, TWO_PI, build_atoms
from gaborfio.frames import enumerate_lattice
from test_lattice_algebra import commensurate_generators


def roll_and_phase_atoms(window, int_coords):
    """Atoms pi(z) g one at a time, with np.roll and an outer-sum phase."""
    grid = window.grid
    n, d = grid.n, grid.d
    g = window.values.reshape((n,) * d)
    j = np.arange(n)
    atoms = np.empty((grid.size, len(int_coords)), dtype=complex)
    for i, z in enumerate(np.mod(int_coords, n)):
        shifted = np.roll(g, tuple(z[:d]), axis=tuple(range(d)))
        jm = reduce(np.add.outer, [m * j for m in z[d:]])
        atoms[:, i] = (shifted * np.exp(TWO_PI * 1j * jm / n)).reshape(-1)
    return atoms


@settings(max_examples=60, deadline=None, database=None)
@given(commensurate_generators(), st.integers(0, 2 ** 16))
def test_atoms_match_roll_and_phase_oracle(gen, seed):
    A, grid = gen
    rng = np.random.default_rng(seed)
    window = Signal(grid, rng.standard_normal(grid.size)
                    + 1j * rng.standard_normal(grid.size))
    int_coords = enumerate_lattice(A, grid).int_coords
    atoms = build_atoms(window, int_coords)
    oracle = roll_and_phase_atoms(window, int_coords)
    if grid.d == 1:
        assert np.array_equal(atoms, oracle)
    else:
        # The complex product may round by one ulp differently with the
        # memory layout, so d = 2 is held to roundoff, not to the bit.
        assert np.max(np.abs(atoms - oracle)) <= 1e-15 * np.max(np.abs(oracle))
