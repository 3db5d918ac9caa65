"""Warped Gabor multipliers and the shifted-multiplier representation of an FIO.

With a Parseval frame the finite algebra is exact: extracting the symbols

    a_nu(mu) = c_{nu,mu} <T pi(mu) g, pi(chi'(mu) + nu) g>

over the whole lattice group and re-assembling sum_nu pi(nu) M_{a_nu}
reproduces the dense operator matrix to machine precision.  Each symbol
is the Gabor matrix cross = A^H T A read along a shifted curve,
a_nu(mu) = c_{nu,mu} cross[chi'(mu) + nu, mu], and pi(nu) M_{a_nu} puts
a_nu(mu) conj(c_{nu,mu}) back at the same entry.  Truncating the nu-sum
to |nu| <= L is therefore a mask on the Gabor matrix,

    T_L = A (cross o [|lambda - chi'(mu)| <= L]) A^H,

and truncation_error_curve measures how fast ||T - T_L|| decays.

The entries of that mask are computed once.  extract_symbols keeps the
(K, N) row table rows[k, mu], the lattice index of chi'(mu) + nu_k, from
Lattice.add, which adds the points' Hermite digits instead of mapping
coordinates back to indices; every T_L then selects the rows of its
shifts.  The factors c_{nu,mu} = e^{2 pi i j_x m_eta / n} are looked up
by the integer dot j_x m_eta in one table of exponentials.
"""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Signal, Weight, TWO_PI, random_signal
from .frames import (GaborFrameSpec, _column_blocks, analysis, gabor_mod_norm,
                     is_parseval, synthesis)
from .phases import CanonicalMap, chi_prime_table
from .fio import FioOperator, fio_matrix, gabor_cross
from .diagnostics import loglog_fit, operator_norm

# truncation_error_curve: random signals per weighted norm estimate, and
# the least error the slope fit takes (an exact 0 has no logarithm).
PROBES = 200
ERROR_FLOOR = 1e-16


@dataclass
class GaborMultiplier:
    """M_a f = sum_lambda a_lambda <f, pi(lambda) g> pi(chi'(lambda)) g."""

    a: np.ndarray            # complex, one value per lattice point
    spec: GaborFrameSpec
    warp_idx: np.ndarray     # lattice index of chi'(lambda) per point

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex).reshape(-1)
        N = self.spec.lattice.npoints
        if self.a.size != N or self.warp_idx.size != N:
            raise ValueError("symbol/warp length must match the lattice size")


def warp_indices(cm: CanonicalMap, spec: GaborFrameSpec) -> np.ndarray:
    """Lattice index of chi'(lambda) for every lattice point."""
    return spec.lattice.indices_of(chi_prime_table(cm, spec.lattice))


def apply_multiplier(M: GaborMultiplier, f: Signal) -> Signal:
    """One synthesis of a * <f, pi(lambda) g> placed at chi'(lambda).

    chi' is only almost injective, so coefficients landing on the same
    point add up."""
    c = np.zeros(M.a.size, dtype=complex)
    np.add.at(c, M.warp_idx, M.a * analysis(f, M.spec))
    return synthesis(c, M.spec)


def multiplier_matrix(M: GaborMultiplier) -> np.ndarray:
    """A C A^H with C[chi'(lambda), lambda] = a_lambda."""
    N = M.a.size
    C = np.zeros((N, N), dtype=complex)
    C[M.warp_idx, np.arange(N)] = M.a
    return _sandwich(C, M.spec)


def _sandwich(C: np.ndarray, spec: GaborFrameSpec) -> np.ndarray:
    """A C A^H by two syntheses: A C A^H = (A (A C)^H)^H."""
    return synthesis(synthesis(C, spec).conj().T, spec).conj().T


@dataclass
class MultiplierSymbolTable:
    """The family a_nu(mu) with its unimodular factors c_{nu,mu}."""

    spec: GaborFrameSpec
    nu_indices: np.ndarray     # (K,) lattice indices of the shifts nu
    a: np.ndarray              # (K, N) complex
    c: np.ndarray              # (K, N) unit complex
    warp_idx: np.ndarray       # (N,) lattice index of chi'(mu)
    rows: np.ndarray           # (K, N) lattice index of chi'(mu) + nu
    nu_radius: float

    @property
    def nu_norms(self) -> np.ndarray:
        return self.spec.lattice.torus_norms()[self.nu_indices]


def commutation_factors(spec: GaborFrameSpec, nu_int: np.ndarray,
                        chi_int: np.ndarray) -> np.ndarray:
    """c_{nu,mu} = e^{2 pi i x_nu . eta_{chi'(mu)}} from integer grid coords.

    The phase x_nu . eta equals (j_x m_eta)/n and is invariant under the
    choice of torus representative.  The integer dots j_x m_eta take few
    distinct values, so each exponential is computed once and looked up.
    """
    grid = spec.window.grid
    d = grid.d
    dots = nu_int[:, :d].astype(np.int64) @ chi_int[:, d:].T.astype(np.int64)
    lo = dots.min()
    ks = np.arange(lo, dots.max() + 1, dtype=float)
    return np.exp(TWO_PI * 1j * ks / grid.n)[dots - lo]


class ExtractionRadiusError(ValueError):
    pass


def extract_symbols(T: FioOperator, spec: GaborFrameSpec, cmap: CanonicalMap,
                    nu_radius: float) -> MultiplierSymbolTable:
    """Multiplier symbols a_nu(mu) for all shifts with torus norm |nu| <= nu_radius."""
    if not is_parseval(spec):
        warnings.warn("extract_symbols called with a non-Parseval frame spec",
                      stacklevel=2)
    lat = spec.lattice
    cross = gabor_cross(T, spec)                        # [lam, mu]
    chi_int = chi_prime_table(cmap, lat)                # (N, 2d)
    warp_idx = lat.indices_of(chi_int)
    nu_indices = np.flatnonzero(lat.torus_norms() <= nu_radius + 1e-12)
    rows = lat.add(nu_indices[:, None], warp_idx[None, :])   # (K, N)
    c = commutation_factors(spec, lat.int_coords[nu_indices], chi_int)
    a = c * cross[rows, np.arange(lat.npoints)]
    return MultiplierSymbolTable(spec=spec, nu_indices=nu_indices, a=a, c=c,
                                 warp_idx=warp_idx, rows=rows,
                                 nu_radius=float(nu_radius))


def full_nu_radius(spec: GaborFrameSpec) -> float:
    """Torus radius covering every lattice shift."""
    return float(np.max(spec.lattice.torus_norms()) + 1.0)


def assemble_truncated(tsym: MultiplierSymbolTable, spec: GaborFrameSpec,
                       L: float) -> np.ndarray:
    """Dense matrix of sum_{|nu| <= L} pi(nu) M_{a_nu}.

    Uses pi(nu) pi(chi'(mu)) g = conj(c_{nu,mu}) pi(chi'(mu)+nu) g, so the
    sum is A C A^H with C[chi'(mu)+nu, mu] = a_nu(mu) conj(c_{nu,mu}).
    """
    covers_group = tsym.nu_indices.size == spec.lattice.npoints
    if L > tsym.nu_radius + 1e-12 and not covers_group:
        raise ExtractionRadiusError(
            f"L={L} exceeds the extraction radius {tsym.nu_radius}")
    N = spec.lattice.npoints
    keep = np.flatnonzero(tsym.nu_norms <= L + 1e-12)
    C = np.zeros((N, N), dtype=complex)
    cols = np.arange(N)
    for b in _column_blocks(keep.size, N):     # bounded temporaries
        k = keep[b]
        C[tsym.rows[k], cols] = tsym.a[k] * np.conj(tsym.c[k])
    return _sandwich(C, spec)


def truncation_error_curve(T: FioOperator, tsym: MultiplierSymbolTable,
                           spec: GaborFrameSpec, L_list: Sequence[float],
                           p: float = 2.0, m: Optional[Weight] = None,
                           seed: int = 0):
    """Empirical operator-norm error ||T - T_L|| for each L, plus log-log slope.

    p = 2 with trivial weight uses the largest singular value of the dense
    difference; other (p, m) use the largest ratio over PROBES random
    signals of the norm from M^p_{m o chi'} to M^p_m, a lower-bound
    estimate.  Errors below ERROR_FLOOR enter the slope fit as ERROR_FLOOR.
    """
    L_list = list(L_list)
    if len(L_list) < 3:
        raise ValueError("need at least 3 truncation radii")
    if m is None:
        m = Weight()
    lat = spec.lattice
    target = fio_matrix(T)
    exact_p2 = (p == 2 and m.s == 0.0)
    if not exact_p2:
        m_in = m(lat.coords()[tsym.warp_idx])      # m(chi'(mu)) per point mu
        m_out = m(lat.coords())
        rng = np.random.default_rng(seed)
        probes_f = [random_signal(spec.window.grid, rng)
                    for _ in range(PROBES)]
    curve = []
    for L in L_list:
        diff = target - assemble_truncated(tsym, spec, L)
        if exact_p2:
            err = operator_norm(diff).value
        else:
            err = 0.0
            for f in probes_f:
                denom = gabor_mod_norm(f, p, m_in, spec)
                if denom == 0:
                    continue
                err = max(err, gabor_mod_norm(Signal(f.grid, diff @ f.values),
                                              p, m_out, spec) / denom)
        curve.append((float(L), float(err)))
    pts = np.array([(L, max(e, ERROR_FLOOR)) for L, e in curve])
    slope, _, _ = loglog_fit(pts)
    return curve, slope
