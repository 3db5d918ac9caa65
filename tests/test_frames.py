import numpy as np
import pytest

from gaborfio.core import Grid, Signal, random_signal, TWO_PI
from gaborfio.frames import (GaborFrameSpec, enumerate_lattice,
                             separable_lattice, frame_operator, frame_bounds,
                             canonical_tight_window, dual_window, tighten,
                             analysis, synthesis, gabor_mod_norm,
                             warped_frame_check, is_frame, is_parseval,
                             LatticeError, NotAFrameError)
from gaborfio.windows import gaussian_window

NS = [16, 32, 64]
SEEDS = [0, 1, 2]


def density4_lattice(grid):
    a = grid.n // 8 if grid.n >= 32 else 2
    b = (grid.n // 4) // a
    return separable_lattice(a, b, grid)


# ------------------------------------------------------------- lattices

def test_lattice_rejects_non_integer_with_suggestion():
    grid = Grid(16)
    with pytest.raises(LatticeError) as exc:
        enumerate_lattice(np.array([[2.3, 0.0], [0.0, 4.0]]), grid)
    assert str(exc.value).endswith("; nearest integer generator: "
                                   "[[2, 0], [0, 4]]")


def test_lattice_errors_claim_no_commensurate_generator():
    # At n = 64, [[3, 0], [0, 4]] is incommensurate, and it is also the
    # nearest integer generator to [[3.2, 0], [0, 4]].
    grid = Grid(64)
    for A in ([[3, 0], [0, 4]], [[3.2, 0], [0, 4]]):
        with pytest.raises(LatticeError) as exc:
            enumerate_lattice(np.array(A), grid)
        assert "commensurate generator" not in str(exc.value)
    assert str(exc.value).startswith("generator entries must be integers")


def test_lattice_rejects_incommensurate():
    grid = Grid(16)
    with pytest.raises(LatticeError, match="incommensurate"):
        enumerate_lattice(np.diag([3, 3]), grid)


def test_lattice_rejects_singular():
    grid = Grid(16)
    with pytest.raises(LatticeError, match="singular"):
        enumerate_lattice(np.zeros((2, 2)), grid)


def test_lattice_enumeration_and_index():
    grid = Grid(16)
    lat = separable_lattice(4, 2, grid)
    assert lat.npoints == 4 * 8
    assert lat.density == 2.0
    idx = np.arange(lat.npoints)
    assert np.array_equal(lat.indices_of(lat.int_coords), idx)
    assert np.array_equal(
        lat.indices_of(lat.int_coords + np.array([grid.n, -grid.n])), idx)
    with pytest.raises(KeyError):
        lat.indices_of([1, 0])
    assert np.all(lat.torus_norms() <= np.sqrt(2) * grid.span / 2 + 1e-12)


def test_nonseparable_generator_supported():
    grid = Grid(16)
    lat = enumerate_lattice(np.array([[2, 0], [1, 4]]), grid)
    assert lat.npoints == 16 * 16 // 8


# -------------------------------------------------------- frame operator

@pytest.mark.parametrize("n", NS)
def test_frame_operator_hermitian_psd(n):
    grid = Grid(n)
    spec = GaborFrameSpec(gaussian_window(grid), density4_lattice(grid))
    S = frame_operator(spec)
    assert np.max(np.abs(S - S.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(S)) > -1e-12


@pytest.mark.parametrize("n", [16, 32])
def test_frame_operator_commutes_with_lattice_shifts(n):
    grid = Grid(n)
    lat = density4_lattice(grid)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    S = frame_operator(spec)
    j = np.arange(n)
    for ic in lat.int_coords:
        x, m = int(ic[0]) % n, int(ic[1]) % n
        P = np.zeros((n, n), dtype=complex)
        P[j, (j - x) % n] = np.exp(TWO_PI * 1j * m * j / n)
        assert np.max(np.abs(S @ P - P @ S)) < 1e-10


@pytest.mark.parametrize("n", NS)
def test_tight_window_gives_parseval_bounds(n):
    grid = Grid(n)
    spec = GaborFrameSpec(gaussian_window(grid), density4_lattice(grid))
    tight = tighten(spec)
    lo, hi = frame_bounds(tight)
    assert abs(lo - 1.0) < 1e-8 and abs(hi - 1.0) < 1e-8
    assert is_parseval(tight)
    # natural scale: ||g_t||^2 = 1/redundancy
    assert abs(tight.window.norm() ** 2 - 1.0 / spec.lattice.density) < 1e-10


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("seed", SEEDS)
def test_parseval_identity_random_signals(n, seed):
    grid = Grid(n)
    tight = tighten(GaborFrameSpec(gaussian_window(grid),
                                   density4_lattice(grid)))
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    total = float(np.sum(np.abs(analysis(f, tight)) ** 2))
    assert abs(total - f.norm() ** 2) < 1e-8 * f.norm() ** 2


@pytest.mark.parametrize("n", [16, 64])
def test_redundancy_at_most_one_is_not_a_frame(n):
    grid = Grid(n)
    # critical density (redundancy exactly 1): Gaussian system degenerates
    a = int(np.sqrt(n))
    lat = separable_lattice(a, a, grid)
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    lo, hi = frame_bounds(spec)
    assert lo < 1e-10 * hi
    assert not is_frame(spec)
    with pytest.raises(NotAFrameError):
        canonical_tight_window(spec)
    with pytest.raises(NotAFrameError):
        dual_window(spec)


def test_undersampled_lattice_rank_deficient():
    grid = Grid(16)
    lat = separable_lattice(8, 4, grid)   # 8 atoms in dimension 16
    spec = GaborFrameSpec(gaussian_window(grid), lat)
    lo, hi = frame_bounds(spec)
    assert lo < 1e-10 * hi


@pytest.mark.parametrize("seed", SEEDS)
def test_dual_window_reconstruction(seed):
    grid = Grid(32)
    spec = GaborFrameSpec(gaussian_window(grid), density4_lattice(grid))
    dual = dual_window(spec)
    dual_spec = GaborFrameSpec(dual, spec.lattice, normalize=False)
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    rec = synthesis(analysis(f, dual_spec), spec)
    assert np.max(np.abs(rec.values - f.values)) < 1e-9 * f.norm()


def test_synthesis_rejects_wrong_length():
    grid = Grid(16)
    spec = GaborFrameSpec(gaussian_window(grid), density4_lattice(grid))
    with pytest.raises(ValueError):
        synthesis(np.ones(3), spec)


# -------------------------------------------------------- modulation norm

def test_gabor_mod_norm_p2_unweighted_is_l2_on_parseval():
    grid = Grid(32)
    tight = tighten(GaborFrameSpec(gaussian_window(grid),
                                   density4_lattice(grid)))
    rng = np.random.default_rng(0)
    f = random_signal(grid, rng)
    m = np.ones(tight.lattice.npoints)
    assert abs(gabor_mod_norm(f, 2.0, m, tight) - f.norm()) < 1e-8 * f.norm()
    assert gabor_mod_norm(f, np.inf, m, tight) <= gabor_mod_norm(f, 2.0, m, tight)
    with pytest.raises(ValueError):
        gabor_mod_norm(f, 0.5, m, tight)


@pytest.mark.parametrize("p", [2.0, 3.0, 400.0, 1e300])
def test_gabor_mod_norm_lies_between_sup_and_its_lp_bound(p):
    # sup <= ||c||_p <= N^(1/p) sup, on a small signal whose c^p
    # underflows at p = 400 and a weight whose c^p overflows at p = 1e300;
    # a zero column has norm 0.
    grid = Grid(32)
    spec = tighten(GaborFrameSpec(gaussian_window(grid),
                                  separable_lattice(4, 4, grid)))
    N = spec.lattice.npoints
    rng = np.random.default_rng(0)
    f = 1e-3 * random_signal(grid, rng).values
    X = np.column_stack([f, np.zeros_like(f)])
    for m in (np.ones(N), rng.uniform(1, 3, size=N)):
        sup = gabor_mod_norm(X, np.inf, m, spec)
        norm = gabor_mod_norm(X, p, m, spec)
        assert sup[0] > 0 and norm[1] == 0 == sup[1]
        assert sup[0] <= norm[0] <= N ** (1.0 / p) * sup[0] * (1 + 1e-12)


# ------------------------------------------------------------ warped check

def test_warped_frame_check_identity_matches_frame_bounds():
    grid = Grid(32)
    lat = density4_lattice(grid)
    g = gaussian_window(grid)
    rep = warped_frame_check(g, lat, lambda z: np.asarray(z, dtype=float))
    spec = GaborFrameSpec(g, lat)   # normalized window, same as the check
    lo, hi = frame_bounds(spec)
    assert abs(rep.bounds[0] - lo) < 1e-8
    assert abs(rep.bounds[1] - hi) < 1e-8
    assert rep.max_rounding_displacement < 1e-12
