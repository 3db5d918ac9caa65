"""Finite periodic signal model and the time-frequency shift kernel.

Everything lives on the symmetric finite Gabor model: n points per axis,
sampling step h = 1/sqrt(n), so the time span and the frequency span are
both sqrt(n) wide and the discrete Fourier transform (unitary convention)
exchanges them exactly.

One flattening rule holds in every dimension d: a signal is a vector of
n^d samples in row-major order, and Grid.multi_index() is the (n^d, d)
table of the multi-index of each sample.  One kernel forms the
time-frequency shifts pi(x, m) g = M_m T_x g for any d: atom_tables gives
the window-free shift index and phases of the points, and build_atoms
gathers a window through them.
"""

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Periodic grid with n points per axis in dimension d (1 or 2)."""

    n: int
    d: int = 1

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("grid needs n >= 8")
        if self.d not in (1, 2):
            raise ValueError("only d = 1 or d = 2 are supported")

    @property
    def h(self) -> float:
        return 1.0 / np.sqrt(self.n)

    @property
    def span(self) -> float:
        """Width of the time (and frequency) torus."""
        return self.n * self.h

    @property
    def size(self) -> int:
        return self.n ** self.d

    def multi_index(self) -> np.ndarray:
        """(n^d, d) multi-index of every sample, in row-major flat order."""
        return np.indices((self.n,) * self.d).reshape(self.d, -1).T

    def wrap_index(self, j):
        """Wrap integer indices to the symmetric range (-n/2, n/2]."""
        j = np.asarray(j)
        r = np.mod(j, self.n)
        return np.where(r > self.n // 2, r - self.n, r)

    def wrap_coord(self, x):
        """Wrap continuum coordinates to (-sqrt(n)/2, sqrt(n)/2]."""
        T = self.span
        x = np.asarray(x, dtype=float)
        return T / 2 - np.mod(T / 2 - x, T)

    def coords(self) -> np.ndarray:
        """Symmetric continuum coordinate of every index 0..n-1 (one axis)."""
        return self.wrap_index(np.arange(self.n)) * self.h


@dataclass
class Signal:
    """Complex vector on a periodic grid, flattened row-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.size != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} samples, got {self.values.size}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def _shift_index(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Flat index of (j - x) mod n over the samples j (rows) and x (N, d)."""
    n = grid.n
    j = grid.multi_index()
    index = (j[:, :1] - x[:, 0]) % n
    for a in range(1, grid.d):
        index = index * n + (j[:, a, None] - x[:, a]) % n
    return index


def _phase_index(grid: Grid, m: np.ndarray) -> np.ndarray:
    """Integer phase j.m over the samples j (rows) and m (N, d)."""
    j = grid.multi_index()
    jm = np.outer(j[:, 0], m[:, 0])
    for a in range(1, grid.d):
        jm += np.outer(j[:, a], m[:, a])
    return jm


def atom_tables(grid: Grid, int_coords: np.ndarray):
    """(index, phases) of the atoms at integer grid points z = (x, m).

    index[j, i] is the flat sample (j - x_i) mod n and phases[j, i] is
    e^{2 pi i j.m_i / n}, both (n^d, N); neither depends on the window.
    The phase column is computed once per distinct modulation m and
    gathered (every coset representative of a separable lattice has
    m = 0).
    """
    z = np.mod(int_coords, grid.n)
    m = z[:, grid.d:]
    _, first, which = np.unique(
        np.ravel_multi_index(tuple(m.T), (grid.n,) * grid.d),
        return_index=True, return_inverse=True)
    phases = np.exp(TWO_PI * 1j * _phase_index(grid, m[first]) / grid.n)
    return _shift_index(grid, z[:, :grid.d]), phases[:, which]


def build_atoms(window: Signal, int_coords: np.ndarray) -> np.ndarray:
    """Atoms pi(z) g at integer grid points z = (x, m), as (n^d, N) columns.

    Column i is g((j - x_i) mod n) e^{2 pi i j.m_i / n} over the samples
    j: the window gathered through atom_tables' index times its phases.
    The tables are temporaries, so the peak memory is three complex
    (n^d, N) tables.
    """
    index, phases = atom_tables(window.grid, int_coords)
    return window.values[index] * phases


def random_signal(grid: Grid, rng, count=None):
    """Complex standard normal test signal, or count of them.

    With count, one draw gives the C-contiguous (n^d, count) array whose
    columns are the signals count successive calls without it return,
    bit for bit: each signal is its real then its imaginary samples.
    """
    if count is None:
        vals = (rng.standard_normal(grid.size)
                + 1j * rng.standard_normal(grid.size))
        return Signal(grid, vals)
    parts = rng.standard_normal((count, 2, grid.size))
    return np.ascontiguousarray((parts[:, 0] + 1j * parts[:, 1]).T)
