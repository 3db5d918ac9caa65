"""Test oracles: independent forms of what the library computes another way.

No CLI run reaches these, so they live beside the tests that use them
(pytest collects only test_*.py files, so this module is imported, not
collected):

- GaborMultiplier, apply_multiplier and multiplier_matrix are the paper's
  elementary warped multipliers.  The library never applies one: its
  truncated sum T_L masks the Gabor matrix, A (cross o [|lambda -
  chi'(mu)| <= L]) A^H, which the multiplier tests check against these.
- dilation_integrand_quadrature is a fine Riemann sum of the integral the
  dilation closed form evaluates.
- canonical_inverse solves chi^{-1} by the same damped Newton iteration
  as CanonicalMap.forward, so a round trip checks the forward solve.
- tameness_audit, chi_prime_multiplicity and envelope_function_audit
  sample the paper's hypotheses (a tame phase, an almost-injective chi',
  a Gabor-matrix envelope in L^1_v).  envelope_function_audit builds
  N x N x 2 displacement tables: the dense form that a per-axis rebuild
  is to be checked against.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from gaborfio.core import Signal, Weight, TWO_PI
from gaborfio.frames import GaborFrameSpec, Lattice, analysis, synthesis
from gaborfio.phases import CanonicalMap, TamePhase, chi_prime_table
from gaborfio.fio import GaborMatrix
from gaborfio.multiplier import _sandwich


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


def multiplier_matrix(M: GaborMultiplier) -> np.ndarray:
    """A C A^H with C[chi'(lambda), lambda] = a_lambda."""
    N = M.a.size
    C = np.zeros((N, N), dtype=complex)
    C[M.warp_idx, np.arange(N)] = M.a
    return _sandwich(C, M.spec)


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

def polynomial_weight(m: Weight, z) -> np.ndarray:
    """v_s(z) = (1+|z|^2)^(s/2) at phase-space vectors z of shape (..., 2d)."""
    z = np.asarray(z, dtype=float)
    return (1.0 + np.sum(z * z, axis=-1)) ** (m.s / 2.0)


@dataclass
class EnvelopeReport:
    bins: np.ndarray         # (K, 2d) displacement bin centers
    envelope: np.ndarray     # (K,) per-bin max of |G|
    l1_mass: float           # sum of envelope * m(u)


def envelope_function_audit(G: GaborMatrix, phase: TamePhase,
                            m: Optional[Weight] = None,
                            bin_width: float = 0.5) -> EnvelopeReport:
    """Empirical envelope H(u) over the displacement u(mu, lam).

    u = (eta' - grad_x Phi(x', eta), x - grad_eta Phi(x', eta)) with
    mu = (x, eta) the input point and lam = (x', eta') the output point;
    displacements are wrapped to the torus and binned on a cubic mesh of
    the given width.
    """
    if m is None:
        m = Weight()
    lat = G.lattice
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
    np.maximum.at(env, inverse.reshape(-1), np.abs(G.entries).reshape(-1))
    centers = (np.column_stack(np.unravel_index(flat, span)) + lo) * bin_width
    mass = float(np.sum(env * polynomial_weight(m, centers)))
    return EnvelopeReport(bins=centers, envelope=env, l1_mass=mass)
