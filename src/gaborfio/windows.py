"""Built-in window generators: gaussian, cardinal B-spline, box."""

import numpy as np

from .core import Grid, Signal


def _tensor(grid: Grid, samples: np.ndarray) -> Signal:
    """The window prod_a samples[j_a] at every multi-index j of the grid."""
    return Signal(grid, np.prod(samples[grid.multi_index()], axis=1))


def gaussian_window(grid: Grid, width: float = 1.0) -> Signal:
    """Samples of e^{-pi (t/width)^2} (tensor product over the d axes)."""
    if width <= 0:
        raise ValueError("width must be positive")
    x = grid.coords()
    return _tensor(grid, np.exp(-np.pi * (x / width) ** 2))


def bspline_window(grid: Grid, order: int = 3) -> Signal:
    """Cardinal B-spline of the given order, supported on [-order/2, order/2]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _tensor(grid, _cardinal_bspline(grid.coords() + order / 2.0, order))


def _cardinal_bspline(t, order):
    # B_1 = indicator of [0, 1); B_k(t) = (t B_{k-1}(t) + (k - t)
    # B_{k-1}(t - 1)) / (k - 1) (Cox-de Boor), built bottom-up over the
    # shifts t, t - 1, t - 2, ... in O(order^2) array operations.
    shifts = [np.asarray(t, dtype=float)]
    for _ in range(order - 1):
        shifts.append(shifts[-1] - 1.0)
    table = [((s >= 0) & (s < 1)).astype(float) for s in shifts]
    for k in range(2, order + 1):
        table = [(s * table[i] + (k - s) * table[i + 1]) / (k - 1)
                 for i, s in enumerate(shifts[:order - k + 1])]
    return table[0]


def box_window(grid: Grid, halfwidth: float = 0.5) -> Signal:
    """Indicator of [-halfwidth, halfwidth]."""
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    inside = np.abs(grid.coords()) <= halfwidth + 1e-12
    return _tensor(grid, inside.astype(float))


WINDOW_KINDS = {
    "gaussian": lambda grid, params: gaussian_window(
        grid, float(params.get("width", 1.0))),
    "bspline": lambda grid, params: bspline_window(
        grid, int(params.get("order", 3))),
    "box": lambda grid, params: box_window(
        grid, float(params.get("halfwidth", 0.5))),
}


def make_window(grid: Grid, kind: str, params=None) -> Signal:
    params = params or {}
    try:
        factory = WINDOW_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown window kind {kind!r}; "
                         f"choose from {sorted(WINDOW_KINDS)}") from None
    return factory(grid, params)
