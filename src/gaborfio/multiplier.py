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
"""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Signal, Weight, TWO_PI
from .frames import (GaborFrameSpec, analysis, gabor_mod_norm, is_parseval,
                     synthesis)
from .phases import CanonicalMap, chi_prime_table
from .fio import FioOperator, fio_matrix, gabor_cross
from .diagnostics import NormEstimate, loglog_fit, operator_norm


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


def identity_warp_indices(spec: GaborFrameSpec) -> np.ndarray:
    return np.arange(spec.lattice.npoints)


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
class MultiplierNormReport:
    empirical_norm: float
    symbol_sup: float
    ratio: float
    probes: int


def multiplier_norm_check(M: GaborMultiplier, p: float, m: Weight,
                          mtilde: Optional[Weight] = None, probes: int = 50,
                          seed: int = 0) -> MultiplierNormReport:
    """Probe the bound ||M_a||_{M^p_{(m o chi')/mtilde} -> M^p_m} <~ ||a||_{linf_mtilde}.

    The input norm uses the weight m(chi'(lambda)) / mtilde(lambda); the
    output norm uses m.  The reported ratio empirical/symbol_sup should
    stay bounded across resolutions.
    """
    if mtilde is None:
        mtilde = Weight("polynomial", 0.0)
    spec = M.spec
    lat = spec.lattice
    grid = spec.window.grid
    rng = np.random.default_rng(seed)
    win = m(lat.coords()[M.warp_idx]) / mtilde(lat.coords())
    input_weight = Weight("custom", table=lambda z: win[lat.indices_of(
        np.round(z / grid.h).astype(int))])
    best = 0.0
    for _ in range(probes):
        f = Signal(grid, rng.standard_normal(grid.size)
                   + 1j * rng.standard_normal(grid.size))
        out = apply_multiplier(M, f)
        denom = gabor_mod_norm(f, p, input_weight, spec)
        if denom == 0:
            continue
        best = max(best, gabor_mod_norm(out, p, m, spec) / denom)
    sup = float(np.max(np.abs(M.a) * mtilde(lat.coords()))) if M.a.size else 0.0
    ratio = best / sup if sup > 0 else np.inf
    return MultiplierNormReport(empirical_norm=best, symbol_sup=sup,
                                ratio=ratio, probes=probes)


@dataclass
class MultiplierSymbolTable:
    """The family a_nu(mu) with its unimodular factors c_{nu,mu}."""

    spec: GaborFrameSpec
    cmap: CanonicalMap
    nu_indices: np.ndarray     # (K,) lattice indices of the shifts nu
    a: np.ndarray              # (K, N) complex
    c: np.ndarray              # (K, N) unit complex
    warp_idx: np.ndarray       # (N,) lattice index of chi'(mu)
    nu_radius: float

    @property
    def nu_norms(self) -> np.ndarray:
        return self.spec.lattice.torus_norms()[self.nu_indices]


def commutation_factors(spec: GaborFrameSpec, nu_int: np.ndarray,
                        chi_int: np.ndarray) -> np.ndarray:
    """c_{nu,mu} = e^{2 pi i x_nu . eta_{chi'(mu)}} from integer grid coords.

    Computed analytically from coordinates; the phase x_nu . eta equals
    (j_x m_eta)/n and is invariant under the choice of torus representative.
    """
    grid = spec.window.grid
    d = grid.d
    dots = np.einsum("ka,ma->km", nu_int[:, :d].astype(float),
                     chi_int[:, d:].astype(float))
    return np.exp(TWO_PI * 1j * dots / grid.n)


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
    nu_indices = np.flatnonzero(lat.torus_norms() <= nu_radius + 1e-12)
    nu_int = lat.int_coords[nu_indices]
    c = commutation_factors(spec, nu_int, chi_int)
    lam = lat.indices_of(chi_int[None, :, :] + nu_int[:, None, :])  # (K, N)
    a = c * cross[lam, np.arange(lat.npoints)]
    return MultiplierSymbolTable(spec=spec, cmap=cmap, nu_indices=nu_indices,
                                 a=a, c=c, warp_idx=lat.indices_of(chi_int),
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
    lat = spec.lattice
    keep = np.flatnonzero(tsym.nu_norms <= L + 1e-12)
    chi_int = lat.int_coords[tsym.warp_idx]
    nu_int = lat.int_coords[tsym.nu_indices[keep]]
    lam = lat.indices_of(chi_int[None, :, :] + nu_int[:, None, :])
    C = np.zeros((lat.npoints, lat.npoints), dtype=complex)
    C[lam, np.arange(lat.npoints)] = tsym.a[keep] * np.conj(tsym.c[keep])
    return _sandwich(C, spec)


def symbol_decay_points(tsym: MultiplierSymbolTable):
    """(|nu|, ||a_nu||_inf) pairs for the sup-decay fit, diagonal shell excluded."""
    norms = tsym.nu_norms
    sup = np.max(np.abs(tsym.a), axis=1)
    keep = norms > 1e-12
    return np.column_stack([np.sqrt(1.0 + norms[keep] ** 2), sup[keep]])


def truncation_error_curve(T: FioOperator, tsym: MultiplierSymbolTable,
                           spec: GaborFrameSpec, L_list: Sequence[float],
                           p: float = 2.0, m: Optional[Weight] = None,
                           probes: int = 200, seed: int = 0,
                           error_floor: float = 1e-16):
    """Empirical operator-norm error ||T - T_L|| for each L, plus log-log slope.

    p = 2 with trivial weight uses the largest singular value of the dense
    difference; other (p, m) use a probe-sup estimate of the norm from
    M^p_{m o chi'} to M^p_m, reported as a lower-bound estimate.
    """
    L_list = list(L_list)
    if len(L_list) < 3:
        raise ValueError("need at least 3 truncation radii")
    if m is None:
        m = Weight("polynomial", 0.0)
    lat = spec.lattice
    target = fio_matrix(T)
    exact_p2 = (p == 2 and m.kind == "polynomial" and m.s == 0.0)
    if not exact_p2:
        win = m(lat.coords()[tsym.warp_idx])
        input_weight = Weight("custom", table=lambda z: win[lat.indices_of(
            np.round(z / lat.grid.h).astype(int))])
        rng = np.random.default_rng(seed)
        probes_f = [Signal(spec.window.grid,
                           rng.standard_normal(spec.window.grid.size)
                           + 1j * rng.standard_normal(spec.window.grid.size))
                    for _ in range(probes)]
    curve = []
    for L in L_list:
        diff = target - assemble_truncated(tsym, spec, L)
        if exact_p2:
            err = operator_norm(diff, "singular-value").value
        else:
            err = 0.0
            for f in probes_f:
                denom = gabor_mod_norm(f, p, input_weight, spec)
                if denom == 0:
                    continue
                err = max(err, gabor_mod_norm(Signal(f.grid, diff @ f.values),
                                              p, m, spec) / denom)
        curve.append((float(L), float(err)))
    pts = np.array([(L, max(e, error_floor)) for L, e in curve])
    slope, _, _ = loglog_fit(pts)
    return curve, slope
