import numpy as np
import pytest

from gaborfio.core import Grid, build_atoms
from gaborfio.frames import GaborFrameSpec, separable_lattice, tighten
from gaborfio.phases import (linear_phase, dilation_phase, chirp_phase,
                             perturbed_phase, canonical_map)
from gaborfio.fio import (SymbolTable, constant_symbol, bandlimited_symbol,
                          weighted_symbol, bandlimit_for, make_fio,
                          fio_matrix, gabor_matrix,
                          pair_distances, decay_envelope_fit,
                          transport_argmax_check,
                          InsufficientDecayRangeError, MAX_DENSE_SIZE)
from oracles import envelope_function_audit

PHASES = [linear_phase(), dilation_phase(2.0), chirp_phase(0.25),
          perturbed_phase(0.1)]


def tight_spec(n, a=4, b=4):
    grid = Grid(n)
    from gaborfio.windows import gaussian_window
    return grid, tighten(GaborFrameSpec(gaussian_window(grid),
                                        separable_lattice(a, b, grid)))


# ------------------------------------------------------------ symbols

def test_symbol_table_validation():
    grid = Grid(16)
    with pytest.raises(ValueError):
        SymbolTable(grid, np.ones((4, 4)))
    bad = np.ones((16, 16))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        SymbolTable(grid, bad)


def test_bandlimit_surrogate_value():
    grid = Grid(64)
    assert bandlimit_for(2.0, grid) == 8.0
    assert bandlimit_for(1.0, grid) == 16.0


def test_symbol_generators_are_seeded_and_normalized():
    grid = Grid(32)
    s1 = bandlimited_symbol(grid, 2, seed=0)
    s2 = bandlimited_symbol(grid, 2, seed=0)
    s3 = bandlimited_symbol(grid, 2, seed=1)
    assert np.array_equal(s1.values, s2.values)
    assert not np.array_equal(s1.values, s3.values)
    assert abs(np.max(np.abs(s1.values)) - 1.0) < 1e-12
    w = weighted_symbol(grid, 1.0, seed=0)
    assert abs(np.max(np.abs(w.values)) - 1.0) < 1e-12


def test_symbol_generators_reject_d2():
    grid = Grid(16, d=2)
    with pytest.raises(ValueError):
        bandlimited_symbol(grid, 2)
    with pytest.raises(ValueError):
        weighted_symbol(grid, 1.0)


# ------------------------------------------------------------ operator

def test_identity_phase_gives_identity_operator():
    grid = Grid(16)
    T = make_fio(linear_phase(), constant_symbol(grid), grid)
    assert np.max(np.abs(fio_matrix(T) - np.eye(16))) < 1e-12


def test_dilation_phase_gives_sampling_permutation():
    grid = Grid(16)
    T = make_fio(dilation_phase(2.0), constant_symbol(grid), grid)
    P = np.zeros((16, 16))
    for j in range(16):
        P[j, (2 * j) % 16] = 1.0
    assert np.max(np.abs(fio_matrix(T) - P)) < 1e-12


def test_dense_matrix_size_guard():
    grid = Grid(2048)
    T = make_fio(linear_phase(), constant_symbol(grid), grid)
    assert grid.size > MAX_DENSE_SIZE
    with pytest.raises(ValueError):
        fio_matrix(T)


# ------------------------------------------------------------ Gabor matrix

@pytest.mark.parametrize("n", [16, 32])
def test_gabor_matrix_of_identity_is_gram(n):
    grid, spec = tight_spec(n, 2, 2)
    T = make_fio(linear_phase(), constant_symbol(grid), grid)
    G = gabor_matrix(T, spec)
    atoms = build_atoms(spec.window, spec.lattice.int_coords)
    gram = atoms.conj().T @ atoms
    assert np.max(np.abs(G.entries - gram.T)) < 1e-10


def test_gabor_matrix_warns_without_parseval():
    grid = Grid(16)
    from gaborfio.windows import gaussian_window
    spec = GaborFrameSpec(gaussian_window(grid), separable_lattice(2, 2, grid))
    T = make_fio(linear_phase(), constant_symbol(grid), grid)
    with pytest.warns(UserWarning, match="non-Parseval"):
        gabor_matrix(T, spec)


@pytest.mark.parametrize("phase", PHASES, ids=lambda p: p.name)
def test_transport_argmax_within_bound(phase):
    grid, spec = tight_spec(64, 4, 4)
    cm = canonical_map(phase)
    T = make_fio(phase, constant_symbol(grid), grid)
    G = gabor_matrix(T, spec)
    dists, bound = transport_argmax_check(G, cm)
    assert np.max(dists) <= bound


def test_global_max_sits_in_nearest_diagonal_bin():
    grid, spec = tight_spec(64, 4, 4)
    cm = canonical_map(dilation_phase(2.0))
    T = make_fio(dilation_phase(2.0), constant_symbol(grid), grid)
    G = gabor_matrix(T, spec)
    r = pair_distances(G, cm)
    mag = np.abs(G.entries)
    # the s=2 dilation output is half-torus periodic, so the global max is
    # tied with its alias; the nearest tied maximizer must sit near the
    # diagonal r ~ 1
    tied = mag >= (1.0 - 1e-9) * np.max(mag)
    assert np.min(r[tied]) < 2.0


# ------------------------------------------------------------ decay fit

def test_identity_phase_decay_is_superpolynomial():
    grid, spec = tight_spec(64, 4, 4)
    cm = canonical_map(linear_phase())
    T = make_fio(linear_phase(), constant_symbol(grid), grid)
    G = gabor_matrix(T, spec)
    for s_claim in (2.0, 4.0, 6.0):
        rep = decay_envelope_fit(G, cm, s_claim)
        assert rep.verdict
        assert rep.slope < -s_claim


def test_decay_slope_monotone_in_band_limit():
    # smoother symbol (larger N, smaller band) -> steeper envelope
    grid, spec = tight_spec(64, 2, 2)
    phase = dilation_phase(2.0)
    cm = canonical_map(phase)
    slopes = []
    for N in (1, 2, 3):
        T = make_fio(phase, bandlimited_symbol(grid, N), grid)
        rep = decay_envelope_fit(gabor_matrix(T, spec), cm, 2.0 * N)
        slopes.append(rep.slope)
    assert slopes[1] <= slopes[0] and slopes[2] <= slopes[1]


def test_decay_fit_insufficient_range():
    grid, spec = tight_spec(16, 2, 2)
    cm = canonical_map(linear_phase())
    T = make_fio(linear_phase(), constant_symbol(grid), grid)
    G = gabor_matrix(T, spec)
    with pytest.raises(InsufficientDecayRangeError):
        decay_envelope_fit(G, cm, 2.0)   # torus too small: r_max/2 < 2


# ------------------------------------------------------------ envelope

def test_envelope_dominates_and_identity_reduction():
    grid, spec = tight_spec(32, 4, 4)
    phase = linear_phase()
    T = make_fio(phase, constant_symbol(grid), grid)
    G = gabor_matrix(T, spec)
    rep = envelope_function_audit(G, phase, bin_width=0.25)
    # identity phase: u = (eta'-eta, x-x'), so the bin at u covers the
    # cross-ambiguity of the window with itself at displacement u
    mag = np.abs(G.entries)
    c = spec.lattice.coords()
    x, eta = c[:, 0], c[:, 1]
    u = np.stack([eta[None, :] - eta[:, None], x[:, None] - x[None, :]], -1)
    keys = np.round(grid.wrap_coord(u) / 0.25).astype(int)      # [mu, lam]
    bin_keys = [tuple(k) for k in np.round(rep.bins / 0.25).astype(int)]
    assert bin_keys == sorted(set(bin_keys))           # lexicographic, unique
    pos = {k: i for i, k in enumerate(bin_keys)}
    inverse = np.array([[pos[tuple(k)] for k in row] for row in keys])
    assert np.all(mag <= rep.envelope[inverse])
    best = np.zeros(rep.envelope.size)
    for i, v in zip(inverse.ravel(), mag.ravel()):
        best[i] = max(best[i], v)
    assert np.array_equal(best, rep.envelope)
    assert abs(np.max(rep.envelope) - np.max(mag)) < 1e-12


def test_envelope_l1_mass_stable_under_refinement():
    phase = linear_phase()
    masses = []
    for n in (32, 64):
        grid, spec = tight_spec(n, 4, 4)
        T = make_fio(phase, constant_symbol(grid), grid)
        rep = envelope_function_audit(gabor_matrix(T, spec), phase)
        masses.append(rep.l1_mass)
    assert abs(masses[1] - masses[0]) <= 0.1 * masses[0]
