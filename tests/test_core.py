import numpy as np
import pytest

from gaborfio.core import Grid, Signal, Weight, build_atoms, random_signal
from gaborfio.frames import GaborFrameSpec, analysis, enumerate_lattice

NS = [16, 32, 64]
D2_NS = [8, 12]
SEEDS = [0, 1, 2]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4)
    with pytest.raises(ValueError):
        Grid(16, d=3)


def test_grid_wrap_symmetric_ranges():
    grid = Grid(16)
    w = grid.wrap_index(np.arange(-40, 40))
    assert w.min() == -7 and w.max() == 8
    c = grid.wrap_coord(np.linspace(-20, 20, 401))
    half = grid.span / 2
    assert np.all(c > -half - 1e-12) and np.all(c <= half + 1e-12)


def grids(d1_ns, d2_ns=D2_NS):
    """Grids of both dimensions; a d = 1 grid's id is its plain n."""
    return ([pytest.param(Grid(n), id=str(n)) for n in d1_ns]
            + [pytest.param(Grid(n, 2), id=f"{n}x{n}") for n in d2_ns])


def seeded_grids(d1_n, d2_n=D2_NS[-1]):
    """(seed, grid) cases; a d = 1 case's id is its plain seed."""
    return ([pytest.param(s, Grid(d1_n), id=str(s)) for s in SEEDS]
            + [pytest.param(s, Grid(d2_n, 2), id=f"{s}-{d2_n}x{d2_n}")
               for s in SEEDS])


def full_spec(g):
    """Window g on the full lattice Z^{2d}: analysis is the discrete STFT."""
    lat = enumerate_lattice(np.eye(2 * g.grid.d, dtype=int), g.grid)
    return GaborFrameSpec(g, lat, normalize=False)


def lattice_stft(f, g):
    """V[x, m] = <f, M_m T_x g> as an (n,) * 2d table, by coset analysis."""
    spec = full_spec(g)
    V = np.empty((g.grid.n,) * (2 * g.grid.d), dtype=complex)
    V[tuple(np.mod(spec.lattice.int_coords, g.grid.n).T)] = analysis(f, spec)
    return V


@pytest.mark.parametrize("grid", grids(NS))
@pytest.mark.parametrize("seed", SEEDS)
def test_shifts_norm_preserving(grid, seed):
    # Translation, modulation and their product are unitary.
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    x, m = (3, -1)[:grid.d], (5, 2)[:grid.d]
    z = np.array([x + (0,) * grid.d, (0,) * grid.d + m, x + m])
    norms = np.linalg.norm(build_atoms(f, z), axis=0)
    assert np.max(np.abs(norms - f.norm())) < 1e-12 * f.norm()


@pytest.mark.parametrize("grid", grids([16], [8]))
def test_stft_matches_direct_inner_products(grid):
    # Oracle: V[x, .] is the DFT of f times the conjugate rolled window.
    rng = np.random.default_rng(0)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    shape = (grid.n,) * grid.d
    axes = tuple(range(grid.d))
    fv, gv = f.values.reshape(shape), g.values.reshape(shape)
    V = lattice_stft(f, g)
    for x in grid.multi_index():
        ref = np.fft.fftn(fv * np.roll(gv, tuple(x), axis=axes).conj())
        assert np.max(np.abs(V[tuple(x)] - ref)) < 1e-10


@pytest.mark.parametrize("seed,grid", seeded_grids(16))
def test_stft_moyal_identity(seed, grid):
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    total = np.sum(np.abs(lattice_stft(f, g)) ** 2) * grid.h ** (2 * grid.d)
    ref = f.norm() ** 2 * g.norm() ** 2
    assert abs(total - ref) < 1e-10 * ref


@pytest.mark.parametrize("grid", grids([16]))
def test_stft_covariance_under_shift(grid):
    # |V(pi(z) f, g)| is |V(f, g)| rolled by z.
    rng = np.random.default_rng(1)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    z = (3, -1)[:grid.d] + (5, 2)[:grid.d]
    V = np.abs(lattice_stft(f, g))
    fz = Signal(grid, build_atoms(f, np.array([z]))[:, 0])
    Vs = np.abs(lattice_stft(fz, g))
    axes = tuple(range(2 * grid.d))
    assert np.max(np.abs(Vs - np.roll(V, z, axis=axes))) < 1e-10


def test_stft_rejects_zero_window():
    grid = Grid(16)
    with pytest.raises(ValueError):
        full_spec(Signal(grid, np.zeros(16)))


def test_weight_polynomial():
    v1 = Weight(1.0)
    z = np.array([[3.0, 4.0]])
    assert abs(v1(z)[0] - np.sqrt(26.0)) < 1e-12
    with pytest.raises(ValueError):
        Weight(-1.0)


@pytest.mark.parametrize("grid", grids([16], [8]))
def test_random_signal_count_is_successive_draws(grid):
    # One draw of count signals is the columns of count successive calls,
    # bit for bit, in a C-contiguous (n^d, count) array.
    many = random_signal(grid, np.random.default_rng(5), count=7)
    rng = np.random.default_rng(5)
    one_by_one = np.column_stack([random_signal(grid, rng).values
                                  for _ in range(7)])
    assert many.shape == (grid.size, 7) and many.flags.c_contiguous
    assert np.array_equal(many, one_by_one)
