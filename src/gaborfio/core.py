"""Finite periodic signal model and elementary time-frequency operations.

Everything lives on the symmetric finite Gabor model: n points per axis,
sampling step h = 1/sqrt(n), so the time span and the frequency span are
both sqrt(n) wide and the discrete Fourier transform (unitary convention)
exchanges them exactly.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

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
    """Complex vector on a periodic grid (flattened row-major for d = 2)."""

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

    def as_array(self) -> np.ndarray:
        """Values shaped (n,) for d=1 or (n, n) for d=2."""
        if self.grid.d == 1:
            return self.values
        return self.values.reshape(self.grid.n, self.grid.n)

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


def translate(f: Signal, x) -> Signal:
    """T_x f(t) = f(t - x) for grid-representable x."""
    steps = f.grid.to_steps(x)
    if f.grid.d == 1:
        out = np.roll(f.values, steps[0])
    else:
        arr = f.as_array()
        out = np.roll(np.roll(arr, steps[0], axis=0), steps[1], axis=1)
    return Signal(f.grid, out)


def _axis_phase(grid: Grid, eta_steps: int) -> np.ndarray:
    j = np.arange(grid.n)
    return np.exp(TWO_PI * 1j * eta_steps * j / grid.n)


def modulate(f: Signal, eta) -> Signal:
    """M_eta f(t) = e^{2 pi i eta.t} f(t) for grid-representable eta."""
    steps = f.grid.to_steps(eta)
    if f.grid.d == 1:
        out = f.values * _axis_phase(f.grid, steps[0])
    else:
        ph = np.outer(_axis_phase(f.grid, steps[0]), _axis_phase(f.grid, steps[1]))
        out = f.as_array() * ph
    return Signal(f.grid, out)


def tf_shift(f: Signal, lam: PhasePoint) -> Signal:
    """pi(lambda) f = M_eta T_x f."""
    return modulate(translate(f, lam.x), lam.eta)


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
    index m, both in raw 0..n-1 order per axis (flattened row-major for
    d = 2); the coordinate of index j is grid.wrap_index(j) * h.
    """
    if g.norm() == 0:
        raise ValueError("STFT window must be nonzero")
    grid = f.grid
    n = grid.n
    if grid.d == 1:
        t = np.arange(n)
        tmat = (t[None, :] - t[:, None]) % n
        w = f.values[None, :] * np.conj(g.values[tmat])
        return np.fft.fft(w, axis=1)
    out = np.empty((grid.size, grid.size), dtype=complex)
    garr = g.as_array()
    farr = f.as_array()
    for j0 in range(n):
        for j1 in range(n):
            shifted = np.roll(np.roll(garr, j0, axis=0), j1, axis=1)
            out[j0 * n + j1] = np.fft.fft2(farr * np.conj(shifted)).reshape(-1)
    return out


@dataclass
class Weight:
    """Phase-space weight: polynomial v_s(z) = (1+|z|^2)^(s/2) or a custom map."""

    kind: str = "polynomial"
    s: float = 0.0
    table: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("polynomial", "custom"):
            raise ValueError("weight kind must be 'polynomial' or 'custom'")
        if self.kind == "polynomial" and self.s < 0:
            raise ValueError("polynomial weight needs s >= 0")
        if self.kind == "custom" and self.table is None:
            raise ValueError("custom weight needs a table callable")

    def __call__(self, z) -> np.ndarray:
        """Evaluate at phase-space vectors z of shape (..., 2d)."""
        z = np.asarray(z, dtype=float)
        if self.kind == "polynomial":
            return (1.0 + np.sum(z * z, axis=-1)) ** (self.s / 2.0)
        vals = np.asarray(self.table(z), dtype=float)
        if np.any(vals <= 0):
            raise ValueError("custom weight must be strictly positive")
        return vals


def random_signal(grid: Grid, rng) -> Signal:
    """Complex standard normal test signal."""
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return Signal(grid, vals)
