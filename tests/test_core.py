import numpy as np
import pytest

from gaborfio.core import (Grid, Signal, PhasePoint, Weight, translate,
                           modulate, tf_shift, tf_shift_inverse,
                           commutation_phase, stft, inner, random_signal,
                           GridRepresentabilityError)

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


def test_to_steps_error_carries_suggestion():
    grid = Grid(16)
    with pytest.raises(GridRepresentabilityError) as exc:
        grid.to_steps(0.3)
    assert exc.value.suggestion.shape == (1,)
    assert abs(exc.value.suggestion[0] - 0.25) < 1e-12


def grids(d1_ns, d2_ns=D2_NS):
    """Grids of both dimensions; a d = 1 grid's id is its plain n."""
    return ([pytest.param(Grid(n), id=str(n)) for n in d1_ns]
            + [pytest.param(Grid(n, 2), id=f"{n}x{n}") for n in d2_ns])


def seeded_grids(d1_n, d2_n=D2_NS[-1]):
    """(seed, grid) cases; a d = 1 case's id is its plain seed."""
    return ([pytest.param(s, Grid(d1_n), id=str(s)) for s in SEEDS]
            + [pytest.param(s, Grid(d2_n, 2), id=f"{s}-{d2_n}x{d2_n}")
               for s in SEEDS])


def point(grid, x_steps, eta_steps):
    """Phase-space point from the first d of the given grid steps per axis."""
    return PhasePoint.make(np.asarray(x_steps[:grid.d]) * grid.h,
                           np.asarray(eta_steps[:grid.d]) * grid.h)


@pytest.mark.parametrize("grid", grids(NS))
@pytest.mark.parametrize("seed", SEEDS)
def test_shifts_norm_preserving(grid, seed):
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    lam = point(grid, (3, -1), (5, 2))
    for g in (translate(f, lam.x), modulate(f, lam.eta), tf_shift(f, lam)):
        assert abs(g.norm() - f.norm()) < 1e-12 * f.norm()


@pytest.mark.parametrize("grid", grids([16]))
def test_commutation_identity_on_basis(grid):
    # M_eta T_x = e^{2 pi i x.eta} T_x M_eta on every basis vector.
    lam = point(grid, (3, -1), (5, 2))
    for k in range(grid.size):
        e = Signal(grid, np.eye(grid.size)[k])
        lhs = modulate(translate(e, lam.x), lam.eta)
        rhs = translate(modulate(e, lam.eta), lam.x)
        phase = commutation_phase(lam.x, lam.eta)
        assert np.max(np.abs(lhs.values - phase * rhs.values)) < 1e-12


@pytest.mark.parametrize("seed,grid", seeded_grids(32))
def test_tf_shift_inverse_roundtrip(seed, grid):
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    lam = point(grid, (7, 2), (-4, 3))
    back = tf_shift_inverse(tf_shift(f, lam), lam)
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * f.norm()


@pytest.mark.parametrize("grid", grids([16], [8]))
def test_stft_matches_direct_inner_products(grid):
    rng = np.random.default_rng(0)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    V = stft(f, g)
    steps = grid.multi_index()   # flat index -> steps per axis
    for j in range(grid.size):
        for m in range(grid.size):
            atom = tf_shift(g, PhasePoint.make(steps[j] * grid.h,
                                               steps[m] * grid.h))
            assert abs(V[j, m] - inner(f, atom)) < 1e-10


@pytest.mark.parametrize("seed,grid", seeded_grids(16))
def test_stft_moyal_identity(seed, grid):
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    V = stft(f, g)
    total = np.sum(np.abs(V) ** 2) * grid.h ** (2 * grid.d)
    ref = f.norm() ** 2 * g.norm() ** 2
    assert abs(total - ref) < 1e-10 * ref


@pytest.mark.parametrize("grid", grids([16]))
def test_stft_covariance_under_shift(grid):
    rng = np.random.default_rng(1)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    x, eta = (3, -1)[:grid.d], (5, 2)[:grid.d]
    V = np.abs(stft(f, g)).reshape((grid.n,) * (2 * grid.d))
    Vs = np.abs(stft(tf_shift(f, point(grid, x, eta)), g)).reshape(V.shape)
    axes = tuple(range(2 * grid.d))
    assert np.max(np.abs(Vs - np.roll(V, x + eta, axis=axes))) < 1e-10


def test_stft_rejects_zero_window():
    grid = Grid(16)
    f = Signal(grid, np.ones(16))
    with pytest.raises(ValueError):
        stft(f, Signal(grid, np.zeros(16)))


def test_weight_polynomial():
    v1 = Weight(1.0)
    z = np.array([[3.0, 4.0]])
    assert abs(v1(z)[0] - np.sqrt(26.0)) < 1e-12
    with pytest.raises(ValueError):
        Weight(-1.0)
