import numpy as np
import pytest

from gaborfio.core import (Grid, Signal, PhasePoint, Weight, translate,
                           modulate, tf_shift, tf_shift_inverse,
                           commutation_phase, stft, inner, random_signal,
                           GridRepresentabilityError)

NS = [16, 32, 64]
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


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("seed", SEEDS)
def test_shifts_norm_preserving(n, seed):
    grid = Grid(n)
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    lam = PhasePoint.make(3 * grid.h, 5 * grid.h)
    for g in (translate(f, lam.x), modulate(f, lam.eta), tf_shift(f, lam)):
        assert abs(g.norm() - f.norm()) < 1e-12 * f.norm()


def test_commutation_identity_on_basis():
    # M_eta T_x = e^{2 pi i x.eta} T_x M_eta on every basis vector.
    grid = Grid(16)
    x = np.array([3 * grid.h])
    eta = np.array([5 * grid.h])
    for k in range(grid.n):
        e = Signal(grid, np.eye(grid.n)[k])
        lhs = modulate(translate(e, x), eta)
        rhs = translate(modulate(e, eta), x)
        phase = commutation_phase(x, eta)
        assert np.max(np.abs(lhs.values - phase * rhs.values)) < 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_tf_shift_inverse_roundtrip(seed):
    grid = Grid(32)
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    lam = PhasePoint.make(7 * grid.h, -4 * grid.h)
    back = tf_shift_inverse(tf_shift(f, lam), lam)
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * f.norm()


def test_stft_matches_direct_inner_products():
    grid = Grid(16)
    rng = np.random.default_rng(0)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    V = stft(f, g)
    for j in range(grid.n):
        for m in range(grid.n):
            atom = tf_shift(g, PhasePoint.make(j * grid.h, m * grid.h))
            assert abs(V[j, m] - inner(f, atom)) < 1e-10


@pytest.mark.parametrize("seed", SEEDS)
def test_stft_moyal_identity(seed):
    grid = Grid(16)
    rng = np.random.default_rng(seed)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    V = stft(f, g)
    total = np.sum(np.abs(V) ** 2) * grid.h ** 2
    ref = f.norm() ** 2 * g.norm() ** 2
    assert abs(total - ref) < 1e-10 * ref


def test_stft_covariance_under_shift():
    grid = Grid(16)
    rng = np.random.default_rng(1)
    f = random_signal(grid, rng)
    g = random_signal(grid, rng)
    jx, jm = 3, 5
    V = np.abs(stft(f, g))
    Vs = np.abs(stft(tf_shift(f, PhasePoint.make(jx * grid.h, jm * grid.h)), g))
    assert np.max(np.abs(Vs - np.roll(np.roll(V, jx, axis=0), jm, axis=1))) < 1e-10


def test_stft_rejects_zero_window():
    grid = Grid(16)
    f = Signal(grid, np.ones(16))
    with pytest.raises(ValueError):
        stft(f, Signal(grid, np.zeros(16)))


def test_weight_polynomial_and_custom():
    v1 = Weight("polynomial", 1.0)
    z = np.array([[3.0, 4.0]])
    assert abs(v1(z)[0] - np.sqrt(26.0)) < 1e-12
    with pytest.raises(ValueError):
        Weight("polynomial", -1.0)
    with pytest.raises(ValueError):
        Weight("custom")
    bad = Weight("custom", table=lambda z: -np.ones(len(np.atleast_2d(z))))
    with pytest.raises(ValueError):
        bad(z)
