import numpy as np
import pytest

from gaborfio.core import Grid
from gaborfio.frames import separable_lattice
from gaborfio.phases import (TamePhase, CanonicalMap, linear_phase,
                             dilation_phase, chirp_phase, perturbed_phase,
                             canonical_map, tameness_audit, chi_prime_table,
                             chi_prime_displacement_bound,
                             chi_prime_multiplicity,
                             NewtonDivergenceError, BUILTIN_PHASES)

PHASES = [linear_phase(), dilation_phase(2.0), chirp_phase(0.25),
          perturbed_phase(0.1)]
SEEDS = [0, 1, 2]


@pytest.mark.parametrize("phase", PHASES, ids=lambda p: p.name)
def test_tameness_audit_passes_builtins(phase):
    rep = tameness_audit(phase)
    assert rep.passes
    assert rep.min_det_mixed_hessian >= phase.declared_delta - 1e-9


def test_builtin_registry_constructs():
    for kind, make in BUILTIN_PHASES.items():
        assert isinstance(make({}), TamePhase)


def test_phase_param_validation():
    with pytest.raises(ValueError):
        dilation_phase(-1.0)
    with pytest.raises(ValueError):
        perturbed_phase(1.5)


@pytest.mark.parametrize("phase", PHASES, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_canonical_map_roundtrip(phase, seed):
    cm = canonical_map(phase)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-4, 4, size=(1000, 2 * phase.d))
    fwd = cm.forward(z)
    back = cm.inverse(fwd)
    assert np.max(np.abs(back - z)) < 1e-10
    # Newton residual of the defining system
    x, xi = phase.split(fwd)
    y, eta = phase.split(z)
    assert np.max(np.abs(phase.grad_eta(x, eta) - y)) < 1e-11
    assert np.max(np.abs(phase.grad_x(x, eta) - xi)) < 1e-11


def test_dilation_chi_closed_form():
    cm = canonical_map(dilation_phase(2.0))
    z = np.array([[1.5, -0.75], [0.0, 2.0]])
    out = cm.forward(z)
    expect = np.column_stack([z[:, 0] / 2.0, 2.0 * z[:, 1]])
    assert np.max(np.abs(out - expect)) < 1e-12


def test_chirp_chi_closed_form():
    c = 0.25
    cm = canonical_map(chirp_phase(c))
    z = np.array([[1.0, 2.0], [-0.5, 0.75]])
    out = cm.forward(z)
    expect = np.column_stack([z[:, 0] - c * z[:, 1], z[:, 1]])
    assert np.max(np.abs(out - expect)) < 1e-12


@pytest.mark.parametrize("phase", PHASES, ids=lambda p: p.name)
def test_canonical_map_is_symplectic(phase):
    # (D chi)^T J (D chi) = J at 50 sampled points, D chi by central
    # differences with step 1e-4.
    cm = canonical_map(phase)
    d, h = phase.d, 1e-4
    J = np.block([[np.zeros((d, d)), np.eye(d)],
                  [-np.eye(d), np.zeros((d, d))]])
    z = np.random.default_rng(0).uniform(-3, 3, size=(50, 2 * d))
    steps = h * np.eye(2 * d)
    for zi in z:
        D = np.column_stack([np.subtract(*cm.forward([zi + e, zi - e]))
                             / (2 * h) for e in steps])
        assert np.max(np.abs(D.T @ J @ D - J)) < 1e-6


def test_newton_divergence_reports_trace():
    # gradient saturates, so targets outside its range are unreachable
    bad = TamePhase(
        name="saturating", d=1,
        phi=lambda x, e: (np.tanh(x) * e)[..., 0],
        grad_x=lambda x, e: e / np.cosh(x) ** 2,
        grad_eta=lambda x, e: np.tanh(x),
        mixed_hessian=lambda x, e: (1.0 / np.cosh(x) ** 2)[..., None],
        declared_delta=0.0, declared_deriv_bound=2.0)
    with pytest.raises(NewtonDivergenceError) as exc, \
            np.errstate(over="ignore"):
        CanonicalMap(bad).forward(np.array([5.0, 1.0]))
    assert len(exc.value.residuals) >= 1


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("phase", PHASES, ids=lambda p: p.name)
def test_chi_prime_displacement_bound_exhaustive(n, phase):
    grid = Grid(n)
    lat = separable_lattice(2, 2, grid)
    cm = canonical_map(phase)
    table = chi_prime_table(cm, lat)
    cont = cm.forward(lat.coords())
    disp = np.linalg.norm(grid.wrap_coord(cont - table * grid.h), axis=1)
    assert np.max(disp) <= chi_prime_displacement_bound(lat) + 1e-9


def test_chi_prime_lands_on_lattice_and_single_point_api():
    grid = Grid(32)
    lat = separable_lattice(4, 2, grid)
    cm = canonical_map(dilation_phase(2.0))
    table = chi_prime_table(cm, lat)
    assert np.array_equal(lat.int_coords[lat.indices_of(table)] % grid.n,
                          table % grid.n)
    # One point (2d,) maps to one point; a (1, 2d) batch stays a batch.
    z = lat.coords()[3]
    for point in (cm.forward(z), cm.inverse(z)):
        assert point.shape == (2,)
    assert np.allclose(cm.forward(z), cm.forward(lat.coords())[3])
    assert np.allclose(cm.inverse(cm.forward(z)), z)
    assert cm.forward(z[None, :]).shape == cm.inverse(z[None, :]).shape \
        == (1, 2)


@pytest.mark.parametrize("phase", PHASES, ids=lambda p: p.name)
def test_chi_prime_multiplicity_finite(phase):
    grid = Grid(32)
    lat = separable_lattice(4, 4, grid)
    mult = chi_prime_multiplicity(canonical_map(phase), lat)
    assert 1 <= mult <= lat.npoints
