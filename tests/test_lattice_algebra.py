"""Property tests of the lattice index algebra and the masked assembly.

Each fast path is checked against a brute-force oracle kept here: the
enumeration against all n^{2d} images A m mod n, the arithmetic index
against set membership, the sum of digits against the sum of coordinates,
the looked-up commutation phases against one float exponential per entry,
and the masked assembly A (C o mask_L) A^H against the sum over shifts of
pi(nu) M_{a_nu}, one matrix product each, and against the dense atoms
with a mask from integer coordinates.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaborfio.core import TWO_PI, Grid, build_atoms
from gaborfio.frames import (GaborFrameSpec, enumerate_lattice,
                             separable_lattice, tighten)
from gaborfio.phases import (dilation_phase, perturbed_phase, canonical_map,
                             chi_prime_table)
from gaborfio.fio import bandlimited_symbol, fio_matrix, gabor_matrix, make_fio
from gaborfio.multiplier import (extract_symbols, assemble_truncated,
                                 commutation_factors, shift_symbols,
                                 warp_indices)
from gaborfio.windows import gaussian_window
from oracles import gabor_cross, symbols

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def commensurate_generators(draw, sizes=((8, 12, 16, 24, 32), (8, 12)),
                            dims=(1, 2)):
    """(A, grid) with A = U D V: U, V unimodular, D diagonal dividing n.

    Every integer A with n A^{-1} integral has such a Smith form, so the
    strategy reaches non-diagonal generators of every shape; half of the
    draws keep U = V = I, a diagonal generator.  The dimension d is drawn
    from dims, and sizes[d - 1] lists the grid sizes n drawn for it.
    """
    d = draw(st.sampled_from(dims))
    n = draw(st.sampled_from(sizes[d - 1]))
    td = 2 * d
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    D = np.diag(draw(st.lists(st.sampled_from(divisors), min_size=td,
                              max_size=td)))
    A = D
    if not draw(st.booleans()):
        for side in (0, 1):
            U = np.eye(td, dtype=int)
            for i, j, k in draw(st.lists(
                    st.tuples(st.integers(0, td - 1), st.integers(0, td - 1),
                              st.integers(-2, 2)), max_size=4)):
                if i != j:
                    E = np.eye(td, dtype=int)
                    E[i, j] = k
                    U = U @ E
            A = U @ A if side == 0 else A @ U
    return A, Grid(n, d)


def brute_force_points(A, n):
    """Distinct A m mod n over all m in Z_n^{2d}, in lexicographic order."""
    td = A.shape[0]
    mesh = np.stack(np.meshgrid(*[np.arange(n)] * td, indexing="ij"),
                    axis=-1).reshape(-1, td)
    return np.unique(np.mod(mesh @ A.T, n), axis=0)


@SETTINGS
@given(commensurate_generators())
def test_hnf_enumeration_matches_brute_force(gen):
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    oracle = brute_force_points(A, grid.n)
    assert np.array_equal(np.mod(lat.int_coords, grid.n), oracle)
    assert np.array_equal(lat.int_coords, grid.wrap_index(oracle))


@pytest.mark.parametrize("A, grid", [
    ([[55, -134], [-16, 39]], Grid(32)),
    ([[39, 95], [94, 229]], Grid(8)),
    ([[1, 0, 0, 0], [0, 351, 0, -150], [0, 0, 1, 0], [0, -482, 0, 206]],
     Grid(12, 2))])
def test_ill_conditioned_generators_are_commensurate(A, grid):
    # n A^{-1} is integral here, but its float inverse is off by > 1e-9.
    lat = enumerate_lattice(np.array(A), grid)
    assert np.array_equal(np.mod(lat.int_coords, grid.n),
                          brute_force_points(np.array(A), grid.n))


@SETTINGS
@given(commensurate_generators(), st.integers(0, 2 ** 32 - 1))
def test_indices_of_round_trip_membership_and_periodicity(gen, seed):
    A, grid = gen
    n, td = grid.n, 2 * grid.d
    lat = enumerate_lattice(A, grid)
    idx = np.arange(lat.npoints)
    rng = np.random.default_rng(seed)
    assert np.array_equal(lat.indices_of(lat.int_coords), idx)
    shifts = n * rng.integers(-3, 4, size=lat.int_coords.shape)
    assert np.array_equal(lat.indices_of(lat.int_coords + shifts), idx)
    members = {tuple(row) for row in np.mod(lat.int_coords, n)}
    for p in rng.integers(-n, 2 * n, size=(8, td)):
        if tuple(np.mod(p, n)) in members:
            i = lat.indices_of(p)
            assert np.array_equal(np.mod(lat.int_coords[i], n), np.mod(p, n))
        else:
            try:
                lat.indices_of(p)
            except KeyError:
                continue
            raise AssertionError(f"{p} is not a lattice point")


@SETTINGS
@given(commensurate_generators(), st.integers(0, 2 ** 32 - 1))
def test_add_is_the_index_of_the_sum(gen, seed):
    A, grid = gen
    n = grid.n
    lat = enumerate_lattice(A, grid)
    N = lat.npoints
    rng = np.random.default_rng(seed)
    i = rng.integers(0, N, size=(5, 1))
    j = rng.integers(0, N, size=(1, 7))
    ij = lat.add(i, j)
    assert ij.shape == (5, 7)
    assert np.array_equal(
        ij, lat.indices_of(lat.int_coords[i] + lat.int_coords[j]))
    assert np.array_equal(np.mod(lat.int_coords[ij], n),
                          np.mod(lat.int_coords[i] + lat.int_coords[j], n))
    assert np.array_equal(lat.add(np.arange(N), lat.indices_of(np.zeros(
        2 * grid.d, dtype=int))), np.arange(N))
    assert lat.add(int(i[0, 0]), int(j[0, 0])) == ij[0, 0]


def float_commutation_factors(n, d, nu_int, chi_int):
    """e^{2 pi i x_nu . eta} from one float dot and one exp per entry."""
    dots = np.einsum("ka,ma->km", nu_int[:, :d].astype(float),
                     chi_int[:, d:].astype(float))
    return np.exp(TWO_PI * 1j * dots / n)


@SETTINGS
@given(commensurate_generators(), st.integers(0, 2 ** 32 - 1))
def test_commutation_phases_match_the_float_formula(gen, seed):
    A, grid = gen
    n, d = grid.n, grid.d
    lat = enumerate_lattice(A, grid)
    rng = np.random.default_rng(seed)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    # chi' rows are lattice points in any torus representative.
    chi_int = (lat.int_coords[rng.integers(0, lat.npoints, size=9)]
               + n * rng.integers(-1, 2, size=(9, 2 * d)))
    c = commutation_factors(spec, lat.int_coords, chi_int)
    assert np.array_equal(
        c, float_commutation_factors(n, d, lat.int_coords, chi_int))


@settings(max_examples=30, deadline=None, database=None)
@given(commensurate_generators(sizes=((8, 12, 16, 24),), dims=(1,)),
       st.sampled_from([dilation_phase(2.0), perturbed_phase(0.1)]),
       st.floats(0, 2), st.integers(0, 2 ** 16))
def test_row_table_indexes_the_shifted_curve(gen, phase, radius, seed):
    A, grid = gen
    n = grid.n
    lat = enumerate_lattice(A, grid)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    cm = canonical_map(phase)
    T = make_fio(phase, bandlimited_symbol(grid, 2, seed=seed), grid)
    # The shifts up to a fraction of the largest norm; radius >= 1 takes all.
    norms = lat.torus_norms()
    nu_indices = np.flatnonzero(norms <= radius * (np.max(norms) + 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the spec need not be Parseval
        a, c = shift_symbols(T, spec, cm, nu_indices)
        # A second Gabor matrix is compared to roundoff, not bit for bit.
        cross = gabor_cross(gabor_matrix(T, spec))
    chi_int = chi_prime_table(cm, lat)
    nu_int = lat.int_coords[nu_indices]
    rows = lat.indices_of(chi_int[None, :, :] + nu_int[:, None, :])
    assert np.array_equal(warp_indices(cm, spec), lat.indices_of(chi_int))
    assert np.array_equal(c, float_commutation_factors(n, 1, nu_int, chi_int))
    assert np.max(np.abs(a - c * cross[rows, np.arange(lat.npoints)])) \
        <= 1e-12 * np.max(np.abs(cross))


def per_shift_sum(tsym, L):
    """sum_{|nu| <= L} pi(nu) M_{a_nu}, one atom product per shift."""
    lat = tsym.G.spec.lattice
    n = lat.grid.n
    where = {tuple(row): i for i, row in enumerate(np.mod(lat.int_coords, n))}
    atoms = build_atoms(tsym.G.spec.window, lat.int_coords)
    chi_int = lat.int_coords[tsym.warp_idx]
    out = np.zeros((atoms.shape[0], atoms.shape[0]), dtype=complex)
    nu_indices = np.flatnonzero(lat.torus_norms() <= L + 1e-12)
    a, c = symbols(tsym, nu_indices)
    for k, nu in enumerate(lat.int_coords[nu_indices]):
        lam = [where[tuple(row)] for row in np.mod(chi_int + nu, n)]
        weights = a[k] * np.conj(c[k])
        out += (atoms[:, lam] * weights[None, :]) @ atoms.conj().T
    return out


@settings(max_examples=12, deadline=None, database=None)
@given(st.sampled_from([(16, 2, 2), (32, 4, 2), (32, 2, 4), (64, 4, 4)]),
       st.sampled_from([dilation_phase(2.0), perturbed_phase(0.1)]),
       st.integers(0, 2 ** 16))
def test_masked_assembly_matches_per_shift_sum(config, phase, seed):
    n, a, b = config
    grid = Grid(n)
    spec = tighten(GaborFrameSpec(gaussian_window(grid),
                                  separable_lattice(a, b, grid)))
    cm = canonical_map(phase)
    T = make_fio(phase, bandlimited_symbol(grid, 2, seed=seed), grid)
    tsym = extract_symbols(T, spec, cm)
    for L in (0, 1, 2, 4, np.inf):
        masked = assemble_truncated(tsym, L)
        assert np.max(np.abs(masked - per_shift_sum(tsym, L))) < 1e-13


def integer_mask(lat, warp_idx, L):
    """[lam, mu]: |lam - chi'(mu)| <= L, wrapped in integer grid steps."""
    n = lat.grid.n
    diff = lat.int_coords[:, None, :] - lat.int_coords[warp_idx][None, :, :]
    wrapped = (diff + n // 2) % n - n // 2
    return np.sqrt(np.sum(wrapped.astype(float) ** 2, axis=-1) / n) \
        <= L + 1e-12


@settings(max_examples=30, deadline=None, database=None)
@given(commensurate_generators(dims=(1,)),
       st.sampled_from([dilation_phase(2.0), perturbed_phase(0.1)]),
       st.one_of(st.floats(0, 4), st.sampled_from([0.5, 1.0, 2.0, np.inf])),
       st.integers(0, 2 ** 16))
@example(gen=(np.diag([2, 2]), Grid(64)), phase=dilation_phase(2.0), L=1.0,
         seed=0)
@example(gen=(np.diag([2, 4]), Grid(32)), phase=perturbed_phase(0.1),
         L=np.inf, seed=0)
def test_masked_assembly_matches_the_dense_mask(gen, phase, L, seed):
    # L = 1 on diag(2, 2) at n = 64 falls on the shifts of norm exactly 1;
    # L = inf keeps every entry, the full sum A cross A^H.
    A, grid = gen
    lat = enumerate_lattice(A, grid)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    cm = canonical_map(phase)
    T = make_fio(phase, bandlimited_symbol(grid, 2, seed=seed), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the spec need not be Parseval
        tsym = extract_symbols(T, spec, cm)
    atoms = build_atoms(spec.window, lat.int_coords)
    cross = atoms.conj().T @ fio_matrix(T) @ atoms
    mask = integer_mask(lat, lat.indices_of(chi_prime_table(cm, lat)), L)
    dense = atoms @ (cross * mask) @ atoms.conj().T
    masked = assemble_truncated(tsym, L)
    assert np.max(np.abs(masked - dense)) <= 1e-12 * np.max(np.abs(dense))
