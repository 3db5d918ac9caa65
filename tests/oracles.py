"""Test oracles: independent forms of what the library computes another way.

No CLI run reaches these, so they live beside the tests that use them
(pytest collects only test_*.py files, so this module is imported, not
collected):

- walnut_blocks and eigendecomposition build and decompose the Walnut
  block of every coset directly.  The library builds one block per orbit
  of the cosets under the lattice's translations and carries it to the
  other cosets by a gather and a phase, which must agree with these.
- GaborMultiplier, apply_multiplier and multiplier_matrix are the paper's
  elementary warped multipliers.  The library never applies one: its
  truncated sum T_L masks the Gabor matrix, A (cross o [|lambda -
  chi'(mu)| <= L]) A^H, which the multiplier tests check against these.
- gabor_cross is the Gabor matrix in lattice order: fio.GaborMatrix's
  table, whose rows are in the coset order of fio's stream, scattered
  through Cosets.index.  The library never scatters it; the dense
  oracles compare against this form.
- sandwich and truncated_sum form that masked sum from gabor_cross: the
  mask's rows scattered to lattice order too, the whole masked N x N
  copy, then A C A^H by two syntheses.  The library masks and
  synthesizes the matrix in its coset order, one column block at a time,
  and must equal this bit for bit.
- symbols reads a_nu(mu) = c_{nu,mu} cross[chi'(mu) + nu, mu] from the
  stored Gabor matrix, extract_symbols' table, whose rows it finds
  through Cosets.index; the library's shift_symbols reads the same
  entries from the column-block stream and must equal it bit for bit.
- dilation_integrand_quadrature is a fine Riemann sum of the integral the
  dilation closed form evaluates.  dilation_inner_product,
  dilation_commutation_factor and mass_set are the library's dilation
  closed form and 99%-mass set computed entry by entry, which its
  tabulated and single-sort forms must equal bit for bit.
- canonical_inverse solves chi^{-1} by the same damped Newton iteration
  as CanonicalMap.forward, so a round trip checks the forward solve.
- tameness_audit, chi_prime_multiplicity and envelope_function_audit
  sample the paper's hypotheses (a tame phase, an almost-injective chi',
  a Gabor-matrix envelope in L^1_v).  envelope_function_audit builds
  N x N x 2 displacement tables in lattice order, against gabor_cross:
  the dense form that a per-axis rebuild is to be checked against.
"""

from dataclasses import dataclass

import numpy as np

from gaborfio.core import Signal, TWO_PI
from gaborfio.frames import (GaborFrameSpec, Lattice, _column_blocks,
                             _cosets, analysis, synthesis)
from gaborfio.phases import CanonicalMap, TamePhase, chi_prime_table
from gaborfio.fio import GaborMatrix, _distance_tables, _squared_distances
from gaborfio.multiplier import MultiplierSymbolTable, commutation_factors


# ----------------------------------------------------------------- frames

def walnut_blocks(spec: GaborFrameSpec):
    """(perm, blocks): blocks[c] is S on the rows and columns of the c-th
    coset, |M| G0 G0^H over one atom per translation, for every coset."""
    G0 = spec._atoms
    return (_cosets(spec.lattice).perm,
            G0.shape[0] * (G0 @ G0.conj().transpose(0, 2, 1)))


def eigendecomposition(spec: GaborFrameSpec):
    """(perm, w, V): one batched Hermitian eigendecomposition of every
    coset's block."""
    perm, blocks = walnut_blocks(spec)
    return (perm, *np.linalg.eigh(blocks))


# ------------------------------------------------------------ multipliers

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


def apply_multiplier(M: GaborMultiplier, f: Signal) -> Signal:
    """One synthesis of a * <f, pi(lambda) g> placed at chi'(lambda).

    chi' is only almost injective, so coefficients landing on the same
    point add up."""
    c = np.zeros(M.a.size, dtype=complex)
    np.add.at(c, M.warp_idx, M.a * analysis(f, M.spec))
    return synthesis(c, M.spec)


def sandwich(C: np.ndarray, spec: GaborFrameSpec) -> np.ndarray:
    """A C A^H by two syntheses: A C A^H = (A (A C)^H)^H."""
    return synthesis(synthesis(C, spec).conj().T, spec).conj().T


def multiplier_matrix(M: GaborMultiplier) -> np.ndarray:
    """A C A^H with C[chi'(lambda), lambda] = a_lambda."""
    N = M.a.size
    C = np.zeros((N, N), dtype=complex)
    C[M.warp_idx, np.arange(N)] = M.a
    return sandwich(C, M.spec)


def truncated_sum(cross: np.ndarray, warp_idx: np.ndarray,
                  spec: GaborFrameSpec, L: float) -> np.ndarray:
    """A (cross o [|lambda - chi'(mu)| <= L]) A^H from the Gabor matrix
    cross in lattice order, [lam, mu], as gabor_cross gives it: the
    distances from fio's tables with their rows scattered to lattice
    order, masked per column block into one F-order N x N copy, then
    sandwich."""
    lat = spec.lattice
    tables = _distance_tables(lat, lat.coords()[warp_idx])
    pos = np.argsort(_cosets(lat).index.ravel())   # lattice index -> row
    C = np.empty_like(cross, order="F")   # synthesis reads its columns
    for mus in _column_blocks(*C.shape):
        d2 = _squared_distances(*tables, mus)[pos]
        C[:, mus] = np.where(np.sqrt(d2) <= L + 1e-12, cross[:, mus], 0)
    return sandwich(C, spec)


def symbols(tsym: MultiplierSymbolTable, nu_indices: np.ndarray):
    """(a, c) for the K shifts nu_indices (lattice indices): the (K, N)
    symbols a_nu(mu) = c_{nu,mu} cross[chi'(mu) + nu, mu] gathered from the
    stored Gabor matrix, whose rows are in coset order, and the unit
    factors c_{nu,mu}.  The product is a *= c, in shift_symbols' operand
    order."""
    lat = tsym.G.spec.lattice
    ic = lat.int_coords
    c = commutation_factors(tsym.G.spec, ic[nu_indices], ic[tsym.warp_idx])
    pos = np.empty(lat.npoints, dtype=np.intp)   # lattice index -> row
    pos[_cosets(lat).index.ravel()] = np.arange(lat.npoints)
    rows = pos[lat.add(nu_indices[:, None], tsym.warp_idx[None, :])]
    a = tsym.G.cross[rows, np.arange(tsym.warp_idx.size)]
    a *= c
    return a, c


# --------------------------------------------------------------- dilation

def dilation_integrand_quadrature(s, alpha, beta, k, l, kp, lp,
                                  span: float = 12.0, points: int = 40_000):
    """Fine Riemann quadrature of the defining integral (continuum oracle).

    integral over t of e^{2 pi i theta t} g(s t - alpha k)
    conj(g)(t - alpha floor(k/s) - alpha k') dt, g = e^{-pi t^2}.
    """
    theta = beta * (s * l - np.floor(s * l) - lp)
    center = 0.5 * (alpha * k / s + alpha * (np.floor(k / s) + kp))
    t = np.linspace(center - span, center + span, points)
    dt = t[1] - t[0]
    vals = (np.exp(TWO_PI * 1j * theta * t)
            * np.exp(-np.pi * (s * t - alpha * k) ** 2)
            * np.exp(-np.pi * (t - alpha * (np.floor(k / s) + kp)) ** 2))
    return complex(np.sum(vals) * dt)


def dilation_inner_product(s, alpha, beta, k, l, kp, lp) -> np.ndarray:
    """dilation.dilation_inner_product evaluated entry by entry on the
    broadcast arguments, with no table of distinct values."""
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    kp = np.asarray(kp, dtype=float)
    lp = np.asarray(lp, dtype=float)
    theta = beta * (s * l - np.floor(s * l) - lp)
    u0 = alpha * k / s
    v0 = alpha * (np.floor(k / s) + kp)
    denom = s * s + 1.0
    mag = np.exp(-np.pi * (s * s * (u0 - v0) ** 2 + theta ** 2) / denom) \
        / np.sqrt(denom)
    phase = np.exp(TWO_PI * 1j * theta * (s * s * u0 + v0) / denom)
    return mag * phase


def dilation_commutation_factor(s, alpha, beta, l, kp) -> np.ndarray:
    """dilation.dilation_commutation_factor entry by entry."""
    l = np.asarray(l, dtype=float)
    kp = np.asarray(kp, dtype=float)
    return np.exp(TWO_PI * 1j * alpha * kp * beta * np.floor(s * l))


def mass_set(camp: np.ndarray) -> np.ndarray:
    """dilation._mass_set as a prefix of the reversed stable argsort."""
    order = np.argsort(camp, kind="stable")[::-1]
    csum = np.cumsum(camp[order])
    return order[:int(np.searchsorted(csum, 0.99 * csum[-1])) + 1]


# ----------------------------------------------------------------- phases

def canonical_inverse(cm: CanonicalMap, z) -> np.ndarray:
    """chi^{-1}(x, xi) = (y, eta), shaped as cm.forward."""
    phase = cm.phase
    single = np.ndim(z) == 1
    z = np.atleast_2d(np.asarray(z, dtype=float))
    x, xi = phase.split(z)
    eta = cm._newton(
        target=xi, fixed=x,
        func=lambda u: phase.grad_x(x, u),
        jac=lambda u: phase.mixed_hessian(x, u),
        seed=xi.copy())
    y = phase.grad_eta(x, eta)
    out = np.concatenate([y, eta], axis=-1)
    return out[0] if single else out


@dataclass
class TamenessReport:
    min_det_mixed_hessian: float
    max_second_derivative: float
    max_third_derivative: float
    max_gradient_mismatch: float
    passes: bool


def tameness_audit(phase: TamePhase, box: float = 4.0, samples: int = 200,
                   seed: int = 0, fd_step: float = 1e-5) -> TamenessReport:
    """Sampled audit of the tameness conditions.

    Checks |det mixed Hessian| >= declared_delta, bounds second/third
    finite-difference derivatives against declared_deriv_bound, and
    verifies the supplied gradients against central differences.
    """
    rng = np.random.default_rng(seed)
    d = phase.d
    x = rng.uniform(-box, box, size=(samples, d))
    e = rng.uniform(-box, box, size=(samples, d))
    dets = np.abs(np.linalg.det(phase.mixed_hessian(x, e)))

    # Gradient consistency by central differences on Phi.
    mismatch = 0.0
    for i in range(d):
        step = np.zeros(d)
        step[i] = fd_step
        gx = (phase.phi(x + step, e) - phase.phi(x - step, e)) / (2 * fd_step)
        ge = (phase.phi(x, e + step) - phase.phi(x, e - step)) / (2 * fd_step)
        denom = 1.0 + np.abs(phase.grad_x(x, e)[:, i])
        mismatch = max(mismatch,
                       float(np.max(np.abs(gx - phase.grad_x(x, e)[:, i]) / denom)),
                       float(np.max(np.abs(ge - phase.grad_eta(x, e)[:, i]) /
                                    (1.0 + np.abs(phase.grad_eta(x, e)[:, i])))))

    # Second/third derivative magnitudes of the full gradient by differences
    # in each of the 2d phase-space directions (step 1e-3 keeps the third
    # difference above the rounding floor).
    h2 = 1e-3
    z = np.concatenate([x, e], axis=-1)

    def grad(zz):
        xx, ee = zz[..., :d], zz[..., d:]
        return np.concatenate([phase.grad_x(xx, ee), phase.grad_eta(xx, ee)],
                              axis=-1)

    max2 = 0.0
    max3 = 0.0
    for i in range(2 * d):
        step = np.zeros(2 * d)
        step[i] = h2
        gp, g0, gm = grad(z + step), grad(z), grad(z - step)
        second = (gp - gm) / (2 * h2)
        third = (gp - 2 * g0 + gm) / h2 ** 2
        max2 = max(max2, float(np.max(np.abs(second))))
        max3 = max(max3, float(np.max(np.abs(third))))

    passes = (float(np.min(dets)) >= phase.declared_delta - 1e-9
              and mismatch < 1e-6
              and max2 <= phase.declared_deriv_bound + 1e-6
              and max3 <= phase.declared_deriv_bound + 1e-3)
    return TamenessReport(
        min_det_mixed_hessian=float(np.min(dets)),
        max_second_derivative=max2,
        max_third_derivative=max3,
        max_gradient_mismatch=mismatch,
        passes=passes)


def chi_prime_multiplicity(cm: CanonicalMap, lattice: Lattice) -> int:
    """Max preimage count of chi' over the lattice (almost-injectivity report)."""
    return int(np.bincount(
        lattice.indices_of(chi_prime_table(cm, lattice))).max())


# ------------------------------------------------------------------- fio

def gabor_cross(G: GaborMatrix) -> np.ndarray:
    """A^H T A in lattice order, [lam, mu]: G.cross with its rows scattered
    through Cosets.index, so a column equals the stored one bit for bit."""
    cross = np.empty_like(G.cross)
    cross[_cosets(G.spec.lattice).index.ravel()] = G.cross
    return cross


def polynomial_weight(s: float, z) -> np.ndarray:
    """v_s(z) = (1+|z|^2)^(s/2) at phase-space vectors z of shape (..., 2d)."""
    z = np.asarray(z, dtype=float)
    return (1.0 + np.sum(z * z, axis=-1)) ** (s / 2.0)


@dataclass
class EnvelopeReport:
    bins: np.ndarray         # (K, 2d) displacement bin centers
    envelope: np.ndarray     # (K,) per-bin max of |G|
    l1_mass: float           # sum of envelope * m(u)


def envelope_function_audit(G: GaborMatrix, phase: TamePhase,
                            weight_s: float = 0.0,
                            bin_width: float = 0.5) -> EnvelopeReport:
    """Empirical envelope H(u) over the displacement u(mu, lam).

    u = (eta' - grad_x Phi(x', eta), x - grad_eta Phi(x', eta)) with
    mu = (x, eta) the input point and lam = (x', eta') the output point;
    displacements are wrapped to the torus and binned on a cubic mesh of
    the given width; the mass weighs each bin by v_s, s = weight_s.
    """
    lat = G.spec.lattice
    grid = lat.grid
    d = grid.d
    c = lat.coords()
    x, eta = c[:, :d], c[:, d:]
    xp, etap = c[:, :d], c[:, d:]
    gx = phase.grad_x(xp[None, :, :], eta[:, None, :])      # [mu, lam, d]
    ge = phase.grad_eta(xp[None, :, :], eta[:, None, :])
    u = np.concatenate([etap[None, :, :] - gx, x[:, None, :] - ge], axis=-1)
    u = grid.wrap_coord(u)
    keys = np.round(u / bin_width).astype(int).reshape(-1, 2 * d)
    # One row-major integer per bin key sorts like the key rows, and fast.
    lo = keys.min(axis=0)
    span = keys.max(axis=0) - lo + 1
    flat, inverse = np.unique(np.ravel_multi_index(tuple((keys - lo).T), span),
                              return_inverse=True)
    env = np.zeros(flat.size)
    mag = np.abs(gabor_cross(G).T)   # [mu, lam], like u
    np.maximum.at(env, inverse.reshape(-1), mag.reshape(-1))
    centers = (np.column_stack(np.unravel_index(flat, span)) + lo) * bin_width
    mass = float(np.sum(env * polynomial_weight(weight_s, centers)))
    return EnvelopeReport(bins=centers, envelope=env, l1_mass=mass)
