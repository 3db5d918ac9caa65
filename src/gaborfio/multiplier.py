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

So the symbol table keeps cross once, and each T_L masks it by the torus
distance |lambda - chi'(mu)| from fio's distance tables.  The symbols
a_nu and the factors c_{nu,mu} = e^{2 pi i j_x m_eta / n} (looked up by
the integer dot j_x m_eta) are gathered only when read.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import Signal, Weight, TWO_PI, random_signal
from .frames import (GaborFrameSpec, analysis, gabor_mod_norm, is_parseval,
                     synthesis)
from .phases import CanonicalMap, chi_prime_table
from .fio import (FioOperator, _distance_tables, _squared_distance_blocks,
                  fio_matrix, gabor_cross)
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
    """The Gabor matrix of T and the shifts nu whose symbols it yields."""

    spec: GaborFrameSpec
    cross: np.ndarray          # (N, N) complex, A^H T A indexed [lam, mu]
    warp_idx: np.ndarray       # (N,) lattice index of chi'(mu)
    nu_indices: np.ndarray     # (K,) lattice indices of the shifts nu
    nu_radius: float

    @cached_property
    def c(self) -> np.ndarray:
        """(K, N) unit complex factors c_{nu,mu}."""
        ic = self.spec.lattice.int_coords
        return commutation_factors(self.spec, ic[self.nu_indices],
                                   ic[self.warp_idx])

    @cached_property
    def a(self) -> np.ndarray:
        """(K, N) symbols a_nu(mu) = c_{nu,mu} cross[chi'(mu) + nu, mu]."""
        rows = self.spec.lattice.add(self.nu_indices[:, None],
                                     self.warp_idx[None, :])
        return self.c * self.cross[rows, np.arange(self.warp_idx.size)]


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
    """Gabor matrix of T, with the shifts of torus norm |nu| <= nu_radius."""
    if not is_parseval(spec):
        warnings.warn("extract_symbols called with a non-Parseval frame spec",
                      stacklevel=2)
    lat = spec.lattice
    return MultiplierSymbolTable(
        spec=spec, cross=gabor_cross(T, spec),
        warp_idx=warp_indices(cmap, spec),
        nu_indices=np.flatnonzero(lat.torus_norms() <= nu_radius + 1e-12),
        nu_radius=float(nu_radius))


def full_nu_radius(spec: GaborFrameSpec) -> float:
    """Torus radius covering every lattice shift."""
    return float(np.max(spec.lattice.torus_norms()) + 1.0)


def assemble_truncated(tsym: MultiplierSymbolTable, spec: GaborFrameSpec,
                       L: float) -> np.ndarray:
    """Dense matrix of sum_{|nu| <= L} pi(nu) M_{a_nu}.

    pi(nu) pi(chi'(mu)) g = conj(c_{nu,mu}) pi(chi'(mu)+nu) g, so pi(nu)
    M_{a_nu} puts cross[chi'(mu) + nu, mu] back at its entry, and the sum
    is A (cross o [|lambda - chi'(mu)| <= L]) A^H.
    """
    lat = spec.lattice
    if L > tsym.nu_radius + 1e-12 and tsym.nu_indices.size < lat.npoints:
        raise ExtractionRadiusError(
            f"L={L} exceeds the extraction radius {tsym.nu_radius}")
    C = np.empty_like(tsym.cross)
    tables = _distance_tables(lat, lat.coords()[tsym.warp_idx])  # chi'(mu)
    for mus, d2 in _squared_distance_blocks(*tables):
        C[:, mus] = np.where(np.sqrt(d2) <= L + 1e-12, tsym.cross[:, mus], 0)
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
        probes = np.column_stack([random_signal(spec.window.grid, rng).values
                                  for _ in range(PROBES)])
        norms_in = gabor_mod_norm(probes, p, m_in, spec)   # > 0 on a frame
    curve = []
    for L in L_list:
        diff = target - assemble_truncated(tsym, spec, L)
        if exact_p2:
            err = operator_norm(diff).value
        else:
            err = np.max(gabor_mod_norm(diff @ probes, p, m_out, spec)
                         / norms_in)
        curve.append((float(L), float(err)))
    pts = np.array([(L, max(e, ERROR_FLOOR)) for L, e in curve])
    slope, _, _ = loglog_fit(pts)
    return curve, slope
