"""Closed-form multiplier symbols of the dilation operator D_s f(x) = f(s x).

For the Gaussian window g(t) = e^{-pi t^2} and the separable lattice
alpha Z x beta Z, the defining inner product

    <D_s pi(mu) g, pi(chi'(mu) + nu) g>,   mu = (alpha k, beta l),
                                           nu = (alpha k', beta l'),

is a Gaussian integral with an explicit answer.  Writing
theta = beta (s l - floor(s l) - l'), u0 = alpha k / s,
v0 = alpha (floor(k/s) + k'), the integral evaluates to

    (s^2+1)^{-1/2} exp(-pi [s^2 (u0-v0)^2 + theta^2] / (s^2+1))
                   exp(2 pi i theta (s^2 u0 + v0) / (s^2+1)).

The full multiplier symbol additionally carries the commutation factor
c_{nu,mu} = e^{2 pi i alpha k' beta floor(s l)}.

compare_dilation_symbols sets these against the symbols read from the
Gabor matrix of the raw Gaussian atoms: the one comparison that
dilation-demo and the acceptance gate both make.
"""

import warnings

import numpy as np

from .core import Signal, TWO_PI
from .frames import GaborFrameSpec, Lattice, NotAFrameError, is_frame
from .phases import canonical_map, dilation_phase
from .fio import constant_symbol, make_fio
from .multiplier import shift_symbols

# The gates of compare_dilation_symbols' two numbers: the largest relative
# error on the 99%-mass entries, and the deviation of |c_{nu,mu}| from 1.
CLOSED_FORM_RTOL = 5e-2
UNIMODULAR_TOL = 1e-12


def _distinct(x):
    """The distinct values of x as floats and, in the shape of x, the index
    of each."""
    x = np.asarray(x, dtype=float)
    values, inverse = np.unique(x, return_inverse=True)
    return values, inverse.reshape(x.shape)


def dilation_inner_product(s: float, alpha: float, beta: float,
                           k, l, kp, lp) -> np.ndarray:
    """Closed form of <D_s pi(mu) g, pi(chi'(mu)+nu) g> for g = e^{-pi t^2}.

    (k, kp) enter only through u0 and v0 and (l, lp) only through theta,
    so the closed form is tabulated once per distinct (k, kp, theta) and
    gathered: bit for bit what numpy's elementwise arithmetic gives each
    entry of the broadcast arguments, scalar arguments included.
    """
    k, ki = _distinct(k)
    kp, kpi = _distinct(kp)
    l, li = _distinct(l)
    lp, lpi = _distinct(lp)
    theta, ti = _distinct(
        beta * (s * l[:, None] - np.floor(s * l[:, None]) - lp[None, :]))
    u0 = (alpha * k / s)[:, None, None]
    v0 = (alpha * (np.floor(k / s)[:, None] + kp[None, :]))[:, :, None]
    denom = s * s + 1.0
    mag = np.exp(-np.pi * (s * s * (u0 - v0) ** 2 + theta ** 2) / denom) \
        / np.sqrt(denom)
    phase = np.exp(TWO_PI * 1j * theta * (s * s * u0 + v0) / denom)
    return (mag * phase)[ki, kpi, ti[li, lpi]]


def dilation_commutation_factor(s: float, alpha: float, beta: float,
                                l, kp) -> np.ndarray:
    """c_{nu,mu} = e^{2 pi i x_nu . eta_{chi'(mu)}} for the dilation setup,
    computed once per distinct (kp, l) and gathered."""
    l, li = _distinct(l)
    kp, kpi = _distinct(kp)
    return np.exp(TWO_PI * 1j * alpha * kp[:, None] * beta
                  * np.floor(s * l[None, :]))[kpi, li]


def dilation_symbol_closed_form(s: float, alpha: float, beta: float,
                                k, l, kp, lp) -> np.ndarray:
    """a_nu(mu) = c_{nu,mu} <D_s pi(mu) g, pi(chi'(mu)+nu) g>, closed form."""
    return dilation_commutation_factor(s, alpha, beta, l, kp) \
        * dilation_inner_product(s, alpha, beta, k, l, kp, lp)


def _mass_set(camp: np.ndarray) -> np.ndarray:
    """Indices of the largest entries of camp (>= 0) holding 99% of its sum.

    They are the first entries of the descending order that reverses a
    stable ascending sort, with the running sum of that order reaching
    99% of the total: every entry above the last value taken, tau, and
    of the entries equal to tau as many as are needed, the highest
    indices first.  One value sort gives the running sum, bit for bit.
    """
    desc = np.sort(camp)[::-1]
    csum = np.cumsum(desc)
    count = int(np.searchsorted(csum, 0.99 * csum[-1])) + 1
    tau = desc[count - 1]
    above = np.flatnonzero(camp > tau)
    ties = np.flatnonzero(camp == tau)
    return np.concatenate([above, ties[ties.size - (count - above.size):]])


def compare_dilation_symbols(window: Signal, lattice: Lattice, s: float,
                             nu_radius: float):
    """Symbols of D_s for the shifts |nu| <= nu_radius, closed form against
    numeric, on the separable lattice diag(a, b) in grid steps.

    window is the unit Gaussian sampled on its grid.  Its atoms are used
    as they are, neither normalized nor tightened, so h a_nu(mu) is the
    Riemann sum of the integral the closed form evaluates.  Returns
    (k, l, kp, lp, closed, numeric, max_rel, c_mod_dev): mu = (alpha k,
    beta l) per column and nu = (alpha kp, beta lp) per row of the (K, N)
    tables of closed-form and numeric h a_nu(mu), the largest relative
    error over the entries holding 99% of sum |closed|, and the largest
    deviation of |c_{nu,mu}| from 1.  Raises NotAFrameError when the
    lattice makes no frame.
    """
    grid = window.grid
    spec = GaborFrameSpec(window, lattice, normalize=False)
    if not is_frame(spec):
        raise NotAFrameError("lower frame bound vanishes")
    phase = dilation_phase(s)
    T = make_fio(phase, constant_symbol(grid), grid)
    nu_indices = np.flatnonzero(lattice.torus_norms() <= nu_radius + 1e-12)
    with warnings.catch_warnings():
        # Not Parseval on purpose: the closed form is the inner product of
        # the raw Gaussian atoms, not of the canonical tight ones.
        warnings.filterwarnings(
            "ignore", "Gabor matrix of a non-Parseval frame spec")
        a, factors = shift_symbols(T, spec, canonical_map(phase), nu_indices)
    steps = np.diag(lattice.A).astype(int)
    k, l = (lattice.int_coords / steps).T
    kp, lp = (lattice.int_coords[nu_indices] / steps).T
    alpha, beta = steps * grid.h
    closed = dilation_symbol_closed_form(s, alpha, beta, k[None, :],
                                         l[None, :], kp[:, None], lp[:, None])
    numeric = a * grid.h
    camp = np.abs(closed).ravel()
    keep = _mass_set(camp)
    rel = (np.abs(numeric.ravel()[keep] - closed.ravel()[keep])
           / camp[keep])
    return (k, l, kp, lp, closed, numeric, float(np.max(rel)),
            float(np.max(np.abs(np.abs(factors) - 1.0))))
