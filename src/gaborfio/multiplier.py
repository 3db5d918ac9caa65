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

The symbol table is fio's GaborMatrix, cross itself, and each T_L masks
it by the torus distance |lambda - chi'(mu)| from fio's distance tables;
L = inf gives A cross A^H = T.  The table keeps its rows lam in the
coset order in which fio.gabor_columns makes them (row k N_t + t is the
lattice point frames.Cosets.index[k, t]), and so do the distance
tables, so each masked column block goes straight to the synthesis
kernel frames._coset_synthesis: the table is never scattered to lattice
order, gathered back, or copied whole.  Besides it a truncation holds
the n^d x N product A (cross o mask) and one column block at a time.
The symbols a_nu and the factors c_{nu,mu} =
e^{2 pi i j_x m_eta / n} (looked up by the integer dot j_x m_eta) are
read only for the shifts a caller names, by shift_symbols, straight from
fio's stream of Gabor-matrix column blocks: K x N entries, never the
N x N matrix.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import Weight, TWO_PI, random_signal
from .frames import (GaborFrameSpec, _column_blocks, _coset_synthesis,
                     _cosets, gabor_mod_norm, synthesis)
from .phases import CanonicalMap, chi_prime_table
from .fio import (FioOperator, GaborMatrix, _distance_tables,
                  _squared_distances, fio_matrix, gabor_columns, gabor_matrix)
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


@dataclass
class MultiplierSymbolTable:
    """The Gabor matrix G of T, rows in coset order, and the warp chi',
    which every truncation masks."""

    G: GaborMatrix
    warp_idx: np.ndarray       # (N,) lattice index of chi'(mu)

    @cached_property
    def distance_tables(self):
        """fio's distance tables of the torus distances |lambda - chi'(mu)|,
        rows in G.cross's coset order, built on the first call and shared
        by every truncation."""
        lat = self.G.spec.lattice
        return _distance_tables(lat, lat.coords()[self.warp_idx])


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
    """fio.gabor_matrix of T and the warp chi' of cmap on spec's lattice."""
    return MultiplierSymbolTable(G=gabor_matrix(T, spec),
                                 warp_idx=warp_indices(cmap, spec))


def shift_symbols(T: FioOperator, spec: GaborFrameSpec, cmap: CanonicalMap,
                  nu_indices: np.ndarray):
    """(a, c) for the K shifts nu_indices (lattice indices): the (K, N)
    symbols a_nu(mu) = c_{nu,mu} cross[chi'(mu) + nu, mu] and the unit
    factors c_{nu,mu}, cross = A^H T A.

    The row table chi'(mu) + nu, put into the coset order of
    fio.gabor_columns' rows, and the factors are built once; each column
    block of the stream then gives its K entries per column, so no N x N
    matrix is held.  The product is a *= c whatever K is, so a shift's
    symbols have the same bits in any shift set: numpy computes c * (a
    temporary) of 256 KiB or more as (temporary) * c, in place, and the
    two operand orders of a complex product can round differently.
    fio.gabor_columns warns when spec is not Parseval.
    """
    lat = spec.lattice
    warp_idx = warp_indices(cmap, spec)
    ic = lat.int_coords
    c = commutation_factors(spec, ic[nu_indices], ic[warp_idx])
    pos = np.empty(lat.npoints, dtype=np.intp)   # lattice index -> block row
    pos[_cosets(lat).index.ravel()] = np.arange(lat.npoints)
    rows = pos[lat.add(nu_indices[:, None], warp_idx[None, :])]
    a = np.empty(rows.shape, dtype=complex)
    for mus, block in gabor_columns(T, spec):
        a[:, mus] = block[rows[:, mus], np.arange(block.shape[1])]
    a *= c
    return a, c


def assemble_truncated(tsym: MultiplierSymbolTable, L: float) -> np.ndarray:
    """Dense matrix of sum_{|nu| <= L} pi(nu) M_{a_nu}; L = inf gives T.

    pi(nu) pi(chi'(mu)) g = conj(c_{nu,mu}) pi(chi'(mu)+nu) g, so pi(nu)
    M_{a_nu} puts cross[chi'(mu) + nu, mu] back at its entry, and the sum
    is A (cross o [|lambda - chi'(mu)| <= L]) A^H.

    A C is made one column block of the table at a time, over the blocks
    frames.synthesis walks: masked in the table's coset row order and
    synthesized by the kernel synthesis gathers into, so its bits are
    synthesis' own.  Then A C A^H = (A (A C)^H)^H, with (A C)^H
    conjugated in place.
    """
    spec, cross = tsym.G.spec, tsym.G.cross
    N = cross.shape[1]
    n_d = spec.window.grid.size
    Y = np.empty((n_d, N), dtype=complex, order="F")    # A C
    for mus in _column_blocks(N, max(N, n_d)):
        block = cross[:, mus]
        if L != np.inf:
            d2 = _squared_distances(*tsym.distance_tables, mus)
            block = np.where(np.sqrt(d2) <= L + 1e-12, block, 0)
        _coset_synthesis(block, spec, Y[:, mus])
    return synthesis(np.conjugate(Y, out=Y).T, spec).conj().T


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
    spec = tsym.G.spec
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
