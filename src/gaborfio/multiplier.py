"""The shifted-multiplier representation of an FIO and its truncation.

With a Parseval frame the finite algebra is exact: the symbols

    a_nu(mu) = c_{nu,mu} <T pi(mu) g, pi(chi'(mu) + nu) g>

over the whole lattice group, re-assembled as sum_nu pi(nu) M_{a_nu},
reproduce the dense operator matrix to machine precision.  Here M_a f =
sum_mu a(mu) <f, pi(mu) g> pi(chi'(mu)) g is the warped Gabor
multiplier.  Each symbol is the Gabor matrix cross = A^H T A read along
a shifted curve, a_nu(mu) = c_{nu,mu} cross[chi'(mu) + nu, mu], and
pi(nu) M_{a_nu} puts a_nu(mu) conj(c_{nu,mu}) back at the same entry.
Truncating the nu-sum to |nu| <= L is therefore a mask on the Gabor
matrix,

    T_L = A (cross o [|lambda - chi'(mu)| <= L]) A^H,

and truncation_error_curve measures how fast ||T - T_L|| decays.  So no
multiplier M_a is ever formed or applied: these masked sums are the
modified Gabor multipliers, and the elementary ones serve the tests as
an oracle (tests/oracles.py).

The symbol table is cross itself, and each T_L masks it by the torus
distance |lambda - chi'(mu)| from fio's distance tables; L = inf gives
A cross A^H = T.  The symbols a_nu and the factors c_{nu,mu} =
e^{2 pi i j_x m_eta / n} (looked up by the integer dot j_x m_eta) are
gathered only for the shifts a caller names.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Weight, TWO_PI, random_signal
from .frames import GaborFrameSpec, _column_blocks, gabor_mod_norm, synthesis
from .phases import CanonicalMap, chi_prime_table
from .fio import (FioOperator, _distance_tables, _squared_distances,
                  fio_matrix, gabor_cross)
from .diagnostics import loglog_fit, operator_norm

# truncation_error_curve: random signals per weighted norm estimate, and
# the least error the slope fit takes (an exact 0 has no logarithm).
PROBES = 200
ERROR_FLOOR = 1e-16

# The largest entry error of the full-shift reassembly A cross A^H against
# the dense T that counts as an exact representation.
RECONSTRUCTION_TOL = 1e-9


def warp_indices(cm: CanonicalMap, spec: GaborFrameSpec) -> np.ndarray:
    """Lattice index of chi'(lambda) for every lattice point."""
    return spec.lattice.indices_of(chi_prime_table(cm, spec.lattice))


def _sandwich(C: np.ndarray, spec: GaborFrameSpec) -> np.ndarray:
    """A C A^H by two syntheses: A C A^H = (A (A C)^H)^H."""
    return synthesis(synthesis(C, spec).conj().T, spec).conj().T


@dataclass
class MultiplierSymbolTable:
    """The Gabor matrix of T, from which every shift's symbol is read."""

    spec: GaborFrameSpec
    cross: np.ndarray          # (N, N) complex, A^H T A indexed [lam, mu]
    warp_idx: np.ndarray       # (N,) lattice index of chi'(mu)

    def symbols(self, nu_indices: np.ndarray):
        """(a, c) for the K shifts nu_indices (lattice indices): the (K, N)
        symbols a_nu(mu) = c_{nu,mu} cross[chi'(mu) + nu, mu] and the unit
        factors c_{nu,mu}."""
        lat = self.spec.lattice
        ic = lat.int_coords
        c = commutation_factors(self.spec, ic[nu_indices], ic[self.warp_idx])
        rows = lat.add(nu_indices[:, None], self.warp_idx[None, :])
        return c * self.cross[rows, np.arange(self.warp_idx.size)], c


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


def extract_symbols(T: FioOperator, spec: GaborFrameSpec,
                    cmap: CanonicalMap) -> MultiplierSymbolTable:
    """The Gabor matrix of T and the warp chi' of cmap on spec's lattice.

    fio.gabor_columns warns when spec is not Parseval.
    """
    return MultiplierSymbolTable(spec=spec, cross=gabor_cross(T, spec),
                                 warp_idx=warp_indices(cmap, spec))


def assemble_truncated(tsym: MultiplierSymbolTable, L: float) -> np.ndarray:
    """Dense matrix of sum_{|nu| <= L} pi(nu) M_{a_nu}; L = inf gives T.

    pi(nu) pi(chi'(mu)) g = conj(c_{nu,mu}) pi(chi'(mu)+nu) g, so pi(nu)
    M_{a_nu} puts cross[chi'(mu) + nu, mu] back at its entry, and the sum
    is A (cross o [|lambda - chi'(mu)| <= L]) A^H.
    """
    lat = tsym.spec.lattice
    C = np.empty_like(tsym.cross, order="F")   # synthesis reads its columns
    tables = _distance_tables(lat, lat.coords()[tsym.warp_idx])  # chi'(mu)
    for mus in _column_blocks(*C.shape):
        d2 = _squared_distances(*tables, mus)
        C[:, mus] = np.where(np.sqrt(d2) <= L + 1e-12, tsym.cross[:, mus], 0)
    return _sandwich(C, tsym.spec)


def truncation_error_curve(T: FioOperator, tsym: MultiplierSymbolTable,
                           L_list: Sequence[float], p: float = 2.0,
                           m: Optional[Weight] = None, seed: int = 0):
    """Empirical operator-norm error ||T - T_L|| for each L, plus log-log slope.

    p = 2 with trivial weight uses the largest singular value of the dense
    difference; other (p, m) use the largest ratio over PROBES random
    signals of the norm from M^p_{m o chi'} to M^p_m, a lower-bound
    estimate.  m enters divided by its maximum over the lattice, as
    ((1+|z|^2)/(1+R^2))^(s/2): the ratio is unchanged, and a large s does
    not overflow.  Errors below ERROR_FLOOR enter the slope fit as
    ERROR_FLOOR.
    """
    L_list = list(L_list)
    if len(L_list) < 3:
        raise ValueError("need at least 3 truncation radii")
    if m is None:
        m = Weight()
    spec = tsym.spec
    target = fio_matrix(T)
    exact_p2 = (p == 2 and m.s == 0.0)
    if not exact_p2:
        z = spec.lattice.coords()
        q = 1.0 + np.sum(z * z, axis=-1)
        m_out = (q / np.max(q)) ** (m.s / 2.0)
        m_in = m_out[tsym.warp_idx]       # m(chi'(mu)) per point mu, scaled
        rng = np.random.default_rng(seed)
        probes = random_signal(spec.window.grid, rng, count=PROBES)
        norms_in = gabor_mod_norm(probes, p, m_in, spec)   # > 0 on a frame
    curve = []
    for L in L_list:
        diff = target - assemble_truncated(tsym, L)
        if exact_p2:
            err = operator_norm(diff).value
        else:
            err = np.max(gabor_mod_norm(diff @ probes, p, m_out, spec)
                         / norms_in)
        curve.append((float(L), float(err)))
    pts = np.array([(L, max(e, ERROR_FLOOR)) for L, e in curve])
    slope, _, _ = loglog_fit(pts)
    return curve, slope


def non_increasing(curve) -> bool:
    """Whether the errors of a truncation curve [(L, error), ...] do not
    grow with L, up to a slack of 1e-10 for roundoff."""
    return all(e1 <= e0 + 1e-10 for (_, e0), (_, e1) in zip(curve, curve[1:]))
