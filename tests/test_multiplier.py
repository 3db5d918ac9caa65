import numpy as np
import pytest

from gaborfio.core import Grid, Signal, Weight, TWO_PI, build_atoms
from gaborfio.frames import GaborFrameSpec, separable_lattice, tighten
from gaborfio.phases import (linear_phase, dilation_phase, chirp_phase,
                             perturbed_phase, canonical_map)
from gaborfio.fio import (constant_symbol, bandlimited_symbol,
                          weighted_symbol, make_fio, fio_matrix)
from gaborfio.multiplier import (warp_indices, extract_symbols,
                                 assemble_truncated, truncation_error_curve)
from gaborfio.windows import gaussian_window
from oracles import GaborMultiplier, apply_multiplier, multiplier_matrix

PHASES = [linear_phase(), dilation_phase(2.0), chirp_phase(0.25),
          perturbed_phase(0.1)]


def tight_spec(n, a, b):
    grid = Grid(n)
    return grid, tighten(GaborFrameSpec(gaussian_window(grid),
                                        separable_lattice(a, b, grid)))


def symbols_for(grid, seed=0):
    return [constant_symbol(grid),
            bandlimited_symbol(grid, 2, seed=seed),
            weighted_symbol(grid, 1.0, seed=seed)]


# --------------------------------------------------- exact representation

@pytest.mark.parametrize("n,a,b", [(16, 2, 2), (32, 4, 2), (64, 4, 4)])
@pytest.mark.parametrize("phase", PHASES, ids=lambda p: p.name)
def test_full_nu_assembly_is_exact(n, a, b, phase):
    grid, spec = tight_spec(n, a, b)
    cm = canonical_map(phase)
    for sym in symbols_for(grid):
        T = make_fio(phase, sym, grid)
        rebuilt = assemble_truncated(extract_symbols(T, spec, cm), np.inf)
        assert np.max(np.abs(fio_matrix(T) - rebuilt)) < 1e-9


def test_commutation_factor_consistency():
    # pi(chi'(mu)+nu) g = c_{nu,mu} pi(nu) pi(chi'(mu)) g, 100 random pairs
    grid, spec = tight_spec(16, 2, 2)
    lat = spec.lattice
    g = spec.window
    rng = np.random.default_rng(0)
    for _ in range(100):
        i, j = rng.integers(0, lat.npoints, 2)
        chi, nu = lat.int_coords[i], lat.int_coords[j]
        tgt = lat.int_coords[lat.indices_of(chi + nu)]
        lhs, mid = build_atoms(g, np.array([tgt, chi])).T
        rhs = build_atoms(Signal(grid, mid), nu[None, :])[:, 0]
        c = np.exp(TWO_PI * 1j * (nu[0] * chi[1]) / grid.n)
        assert np.max(np.abs(lhs - c * rhs)) < 1e-12


def test_identity_symbol_is_window_energy():
    grid, spec = tight_spec(16, 2, 2)
    cm = canonical_map(linear_phase())
    T = make_fio(linear_phase(), constant_symbol(grid), grid)
    zero = np.flatnonzero(spec.lattice.torus_norms() <= 0.2)  # nu = 0 only
    assert zero.size == 1
    a, _ = extract_symbols(T, spec, cm).symbols(zero)
    assert np.max(np.abs(a[0] - spec.window.norm() ** 2)) < 1e-12


def test_truncation_at_zero_is_single_multiplier():
    grid, spec = tight_spec(16, 2, 2)
    phase = dilation_phase(2.0)
    cm = canonical_map(phase)
    T = make_fio(phase, constant_symbol(grid), grid)
    tsym = extract_symbols(T, spec, cm)
    zero = np.flatnonzero(spec.lattice.torus_norms() < 1e-12)[:1]
    a, _ = tsym.symbols(zero)
    M = GaborMultiplier(a[0], spec, tsym.warp_idx)
    assert np.max(np.abs(assemble_truncated(tsym, 0.0)
                         - multiplier_matrix(M))) < 1e-12


# --------------------------------------------------------- multiplier ops

def test_apply_matches_matrix():
    grid, spec = tight_spec(32, 4, 2)
    cm = canonical_map(chirp_phase(0.25))
    rng = np.random.default_rng(1)
    a = rng.standard_normal(spec.lattice.npoints) \
        + 1j * rng.standard_normal(spec.lattice.npoints)
    M = GaborMultiplier(a, spec, warp_indices(cm, spec))
    from gaborfio.core import random_signal
    f = random_signal(grid, rng)
    out = apply_multiplier(M, f)
    assert np.max(np.abs(out.values - multiplier_matrix(M) @ f.values)) < 1e-10


def test_multiplier_linearity():
    grid, spec = tight_spec(16, 2, 2)
    widx = np.arange(spec.lattice.npoints)   # the identity warp
    rng = np.random.default_rng(2)
    a = rng.standard_normal(spec.lattice.npoints)
    b = rng.standard_normal(spec.lattice.npoints)
    Mab = multiplier_matrix(GaborMultiplier(a + b, spec, widx))
    Ma = multiplier_matrix(GaborMultiplier(a, spec, widx))
    Mb = multiplier_matrix(GaborMultiplier(b, spec, widx))
    assert np.max(np.abs(Mab - (Ma + Mb))) < 1e-12


def test_unit_symbol_identity_warp_norm_ratio():
    # ||M_a|| <= sup |a| on a Parseval frame; a = 1 with the identity warp
    # is A A^H, the identity.
    grid, spec = tight_spec(32, 4, 2)
    a = np.ones(spec.lattice.npoints)
    M = GaborMultiplier(a, spec, np.arange(spec.lattice.npoints))
    assert np.linalg.norm(multiplier_matrix(M), 2) <= np.max(np.abs(a)) + 1e-8


def test_multiplier_shape_validation():
    grid, spec = tight_spec(16, 2, 2)
    with pytest.raises(ValueError):
        GaborMultiplier(np.ones(3), spec, np.arange(spec.lattice.npoints))


# ------------------------------------------------------------- truncation

def test_error_curve_non_increasing_and_needs_three_radii():
    grid, spec = tight_spec(64, 4, 4)
    phase = dilation_phase(2.0)
    cm = canonical_map(phase)
    T = make_fio(phase, bandlimited_symbol(grid, 2), grid)
    tsym = extract_symbols(T, spec, cm)
    curve, slope = truncation_error_curve(T, tsym, [1, 2, 4, 8, 16])
    for (l0, e0), (l1, e1) in zip(curve, curve[1:]):
        assert e1 <= e0 + 1e-10
    assert slope < 0
    with pytest.raises(ValueError):
        truncation_error_curve(T, tsym, [1, 2])


def test_probe_sup_truncation_curve_runs():
    grid, spec = tight_spec(32, 4, 2)
    phase = chirp_phase(0.25)
    cm = canonical_map(phase)
    T = make_fio(phase, constant_symbol(grid), grid)
    tsym = extract_symbols(T, spec, cm)
    curve, slope = truncation_error_curve(
        T, tsym, [1, 2, 4], p=np.inf, m=Weight(1.0))
    assert len(curve) == 3 and all(e >= 0 for _, e in curve)
