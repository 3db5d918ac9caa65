"""Finite periodic signal model and elementary time-frequency operations.

Everything lives on the symmetric finite Gabor model: n points per axis,
sampling step h = 1/sqrt(n), so the time span and the frequency span are
both sqrt(n) wide and the discrete Fourier transform (unitary convention)
exchanges them exactly.

One flattening rule holds in every dimension d: a signal is a vector of
n^d samples in row-major order, and Grid.multi_index() is the (n^d, d)
table of the multi-index of each sample.  One kernel, build_atoms, forms
the time-frequency shifts pi(x, m) g = M_m T_x g for any d; translate,
modulate, tf_shift and the STFT are its special cases.
"""

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class GridRepresentabilityError(ValueError):
    """A continuum coordinate does not sit on the sampling grid."""

    def __init__(self, value, step, suggestion):
        self.value = np.asarray(value, dtype=float)
        self.step = float(step)
        self.suggestion = np.asarray(suggestion, dtype=float)
        super().__init__(
            f"coordinate {self.value} is not an integer multiple of the grid "
            f"step h={self.step:.6g}; nearest representable value is "
            f"{self.suggestion}"
        )


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

    def to_steps(self, x) -> np.ndarray:
        """Convert continuum coordinates to integer grid steps.

        Raises GridRepresentabilityError when a component is not an
        integer multiple of h (tolerance 1e-9 steps).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        steps = x / self.h
        rounded = np.round(steps)
        if np.max(np.abs(steps - rounded)) > 1e-9:
            raise GridRepresentabilityError(x, self.h, rounded * self.h)
        return rounded.astype(int)


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

    def copy(self) -> "Signal":
        return Signal(self.grid, self.values.copy())


@dataclass(frozen=True)
class PhasePoint:
    """Point z = (x, eta) of the phase-space torus, continuum units."""

    x: np.ndarray
    eta: np.ndarray

    @staticmethod
    def make(x, eta) -> "PhasePoint":
        return PhasePoint(np.atleast_1d(np.asarray(x, dtype=float)),
                          np.atleast_1d(np.asarray(eta, dtype=float)))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.eta])

    @staticmethod
    def from_vector(z) -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        d = z.size // 2
        return PhasePoint(z[:d].copy(), z[d:].copy())


def inner(f: Signal, g: Signal) -> complex:
    """Euclidean inner product <f, g> = sum f conj(g)."""
    return complex(np.vdot(g.values, f.values))


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


def build_atoms(window: Signal, int_coords: np.ndarray) -> np.ndarray:
    """Atoms pi(z) g at integer grid points z = (x, m), as (n^d, N) columns.

    Column i is g((j - x_i) mod n) e^{2 pi i j.m_i / n} over the samples j.
    The two integer tables are temporaries, so the peak memory is three
    complex (n^d, N) tables.
    """
    grid = window.grid
    z = np.mod(int_coords, grid.n)
    atoms = window.values[_shift_index(grid, z[:, :grid.d])]
    atoms *= np.exp(TWO_PI * 1j * _phase_index(grid, z[:, grid.d:]) / grid.n)
    return atoms


def tf_shift(f: Signal, lam: PhasePoint) -> Signal:
    """pi(lambda) f = M_eta T_x f for grid-representable lambda."""
    z = np.concatenate([f.grid.to_steps(lam.x), f.grid.to_steps(lam.eta)])
    return Signal(f.grid, build_atoms(f, z[None, :])[:, 0])


def translate(f: Signal, x) -> Signal:
    """T_x f(t) = f(t - x) for grid-representable x."""
    return tf_shift(f, PhasePoint.make(x, np.zeros(f.grid.d)))


def modulate(f: Signal, eta) -> Signal:
    """M_eta f(t) = e^{2 pi i eta.t} f(t) for grid-representable eta."""
    return tf_shift(f, PhasePoint.make(np.zeros(f.grid.d), eta))


def tf_shift_inverse(f: Signal, lam: PhasePoint) -> Signal:
    """pi(lambda)^{-1} f = e^{-2 pi i x.eta} pi(-lambda) f."""
    out = tf_shift(f, PhasePoint(-lam.x, -lam.eta))
    phase = np.conj(commutation_phase(lam.x, lam.eta))
    return Signal(f.grid, out.values * phase)


def commutation_phase(x, eta) -> complex:
    """The unimodular factor e^{2 pi i x.eta} from M_eta T_x = e^{2 pi i x.eta} T_x M_eta."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    return complex(np.exp(TWO_PI * 1j * float(np.dot(x, eta))))


def stft(f: Signal, g: Signal) -> np.ndarray:
    """Short-time Fourier transform table V[j, m] = <f, pi(x_j, eta_m) g>.

    Rows are indexed by the translation index j, columns by the modulation
    index m, both flat row-major over raw 0..n-1 indices per axis; the
    coordinate of index j is grid.wrap_index(j) * h.
    """
    if g.norm() == 0:
        raise ValueError("STFT window must be nonzero")
    grid = f.grid
    # w[x, t] = f(t) conj(g(t - x)): one gather, no phase (the FFT is it).
    w = f.values * np.conj(g.values[_shift_index(grid, grid.multi_index()).T])
    w = w.reshape((grid.size,) + (grid.n,) * grid.d)
    axes = tuple(range(1, grid.d + 1))
    return np.fft.fftn(w, axes=axes).reshape(grid.size, -1)


@dataclass
class Weight:
    """Polynomial phase-space weight v_s(z) = (1+|z|^2)^(s/2)."""

    s: float = 0.0

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("polynomial weight needs s >= 0")

    def __call__(self, z) -> np.ndarray:
        """Evaluate at phase-space vectors z of shape (..., 2d)."""
        z = np.asarray(z, dtype=float)
        return (1.0 + np.sum(z * z, axis=-1)) ** (self.s / 2.0)


def random_signal(grid: Grid, rng) -> Signal:
    """Complex standard normal test signal."""
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return Signal(grid, vals)
