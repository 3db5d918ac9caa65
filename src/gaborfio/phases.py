"""Tame phase functions and the canonical transformation they generate.

A tame phase is supplied as an evaluator bundle (value, both gradients,
mixed Hessian).  The canonical transformation chi solves

    y  = grad_eta Phi(x, eta)      (for x, given (y, eta))
    xi = grad_x  Phi(x, eta)

by a damped Newton iteration seeded with the identity-phase guess x0 = y.
Raw continuum outputs are kept unwrapped; torus wrapping is applied only
when grid objects are built from them.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .frames import Lattice


class NewtonDivergenceError(RuntimeError):
    """Newton solve for the canonical transformation failed to converge."""

    def __init__(self, point, residuals):
        self.point = point
        self.residuals = residuals
        super().__init__(
            f"Newton iteration did not converge at {point}; residual trace "
            f"{[float(r) for r in residuals[-5:]]} (phase may not be tame)")


@dataclass(frozen=True)
class TamePhase:
    """Evaluator bundle for Phi and its derivatives.

    All callables take arrays x, eta of shape (..., d) and return
    value (...,), gradients (..., d), mixed Hessian (..., d, d) with
    entry [i, j] = d^2 Phi / dx_i deta_j.
    """

    name: str
    d: int
    phi: Callable
    grad_x: Callable
    grad_eta: Callable
    mixed_hessian: Callable
    declared_delta: float
    declared_deriv_bound: float

    def split(self, z):
        z = np.asarray(z, dtype=float)
        return z[..., :self.d], z[..., self.d:]


def dilation_phase(s: float, d: int = 1) -> TamePhase:
    """Phi = s x.eta, generating the dilation f -> f(s x)."""
    if s <= 0:
        raise ValueError("dilation needs s > 0")
    return TamePhase(
        name=f"dilation(s={s:g})", d=d,
        phi=lambda x, e: s * np.sum(x * e, axis=-1),
        grad_x=lambda x, e: s * np.broadcast_to(e, np.broadcast(x, e).shape).copy(),
        grad_eta=lambda x, e: s * np.broadcast_to(x, np.broadcast(x, e).shape).copy(),
        mixed_hessian=lambda x, e: _const_hessian(x, e, s * np.eye(d)),
        declared_delta=s ** d, declared_deriv_bound=s)


def linear_phase(d: int = 1) -> TamePhase:
    """Phi = x.eta, the identity operator's phase: the dilation s = 1,
    whose factor 1.0 leaves every value bit for bit the same."""
    return replace(dilation_phase(1.0, d), name="linear")


def chirp_phase(c: float, d: int = 1) -> TamePhase:
    """Phi = x.eta + (c/2)|eta|^2, a metaplectic shear."""
    return TamePhase(
        name=f"chirp(c={c:g})", d=d,
        phi=lambda x, e: np.sum(x * e, axis=-1) + 0.5 * c * np.sum(e * e, axis=-1),
        grad_x=lambda x, e: np.broadcast_to(e, np.broadcast(x, e).shape).copy(),
        grad_eta=lambda x, e: (np.broadcast_to(x, np.broadcast(x, e).shape) + c * e),
        mixed_hessian=lambda x, e: _const_hessian(x, e, np.eye(d)),
        declared_delta=1.0, declared_deriv_bound=max(1.0, abs(c)))


def perturbed_phase(eps: float) -> TamePhase:
    """Phi = x eta + eps sin(x) sin(eta), a genuinely nonlinear tame phase (d=1)."""
    if not 0 <= eps < 1:
        raise ValueError("perturbation strength must satisfy 0 <= eps < 1")

    def hess(x, e):
        h = 1.0 + eps * np.cos(x) * np.cos(e)
        return h[..., None]

    return TamePhase(
        name=f"perturbed(eps={eps:g})", d=1,
        phi=lambda x, e: (x * e + eps * np.sin(x) * np.sin(e))[..., 0],
        grad_x=lambda x, e: e + eps * np.cos(x) * np.sin(e),
        grad_eta=lambda x, e: x + eps * np.sin(x) * np.cos(e),
        mixed_hessian=hess,
        declared_delta=1.0 - eps, declared_deriv_bound=1.0 + eps)


BUILTIN_PHASES = {
    "linear": lambda params: linear_phase(int(params.get("d", 1))),
    "dilation": lambda params: dilation_phase(float(params.get("s", 2.0)),
                                              int(params.get("d", 1))),
    "chirp": lambda params: chirp_phase(float(params.get("c", 1.0)),
                                        int(params.get("d", 1))),
    "perturbed": lambda params: perturbed_phase(float(params.get("eps", 0.1))),
}


def _const_hessian(x, e, H):
    shape = np.broadcast(x, e).shape[:-1]
    return np.broadcast_to(H, shape + H.shape).copy()


# Newton stops once the largest residual is below NEWTON_TOL, and fails
# after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


@dataclass
class CanonicalMap:
    """chi solved from the phase by damped Newton iteration."""

    phase: TamePhase

    def forward(self, z) -> np.ndarray:
        """chi(y, eta) = (x, xi), vectorized over rows of z (..., 2d); one
        point (2d,) gives one point."""
        single = np.ndim(z) == 1
        z = np.atleast_2d(np.asarray(z, dtype=float))
        y, eta = self.phase.split(z)
        x = self._newton(
            target=y, fixed=eta,
            func=lambda u: self.phase.grad_eta(u, eta),
            jac=lambda u: np.swapaxes(self.phase.mixed_hessian(u, eta), -1, -2),
            seed=y.copy())
        xi = self.phase.grad_x(x, eta)
        out = np.concatenate([x, xi], axis=-1)
        return out[0] if single else out

    def _newton(self, target, fixed, func, jac, seed):
        u = seed
        res = func(u) - target
        resnorm = np.linalg.norm(res, axis=-1)
        trace = [float(np.max(resnorm))]
        for _ in range(NEWTON_MAX_ITER):
            if np.max(resnorm) < NEWTON_TOL:
                return u
            try:
                step = np.linalg.solve(jac(u), res[..., None])[..., 0]
            except np.linalg.LinAlgError:
                worst = int(np.argmax(resnorm))
                raise NewtonDivergenceError(np.concatenate(
                    [np.atleast_2d(target)[worst],
                     np.atleast_2d(fixed)[worst]]), trace) from None
            # Damped update: halve the step where the residual grew.
            scale = np.ones_like(resnorm)
            for _ in range(30):
                cand = u - scale[..., None] * step
                cres = func(cand) - target
                cnorm = np.linalg.norm(cres, axis=-1)
                bad = cnorm > resnorm
                if not np.any(bad):
                    break
                scale = np.where(bad, scale / 2.0, scale)
            u, res, resnorm = cand, cres, cnorm
            trace.append(float(np.max(resnorm)))
        if np.max(resnorm) >= NEWTON_TOL:
            worst = int(np.argmax(resnorm))
            raise NewtonDivergenceError(np.concatenate(
                [np.atleast_2d(target)[worst], np.atleast_2d(fixed)[worst]]), trace)
        return u


def canonical_map(phase: TamePhase) -> CanonicalMap:
    return CanonicalMap(phase)


def chi_prime_table(cm: CanonicalMap, lattice: Lattice) -> np.ndarray:
    """Lattice-rounded map chi'(lambda) = A floor(A^{-1} chi(lambda)).

    One row per lattice point, in lattice order: integer grid coordinates
    of the image, wrapped to the torus.
    """
    grid = lattice.grid
    cont = cm.forward(lattice.int_coords * grid.h)   # chi(lambda), unwrapped
    steps = np.atleast_2d(cont) / grid.h       # grid units
    Ainv = np.linalg.inv(lattice.A)
    m = np.floor(Ainv @ steps.T + 1e-9).T      # tolerate float fuzz at integers
    img = (lattice.A @ m.T).T
    img = np.round(img).astype(int)
    return np.asarray(grid.wrap_index(img))


def chi_prime_displacement_bound(lattice: Lattice) -> float:
    """sqrt(2d) ||A|| with the generator in continuum units."""
    d = lattice.grid.d
    A_cont = lattice.A * lattice.grid.h
    return float(np.sqrt(2 * d) * np.linalg.norm(A_cont, 2))
