import time

import numpy as np
import pytest

from gaborfio.core import Grid
from gaborfio.windows import _cardinal_bspline, bspline_window, make_window


def recursive_bspline(t, order):
    """The two-call Cox-de Boor recursion, about 2^order calls."""
    t = np.asarray(t, dtype=float)
    if order == 1:
        return ((t >= 0) & (t < 1)).astype(float)
    prev = recursive_bspline(t, order - 1)
    prev_shift = recursive_bspline(t - 1.0, order - 1)
    return (t * prev + (order - t) * prev_shift) / (order - 1)


@pytest.mark.parametrize("order", range(1, 15))
def test_bspline_table_equals_the_recursion(order):
    t = Grid(64).coords() + order / 2.0
    assert np.array_equal(_cardinal_bspline(t, order),
                          recursive_bspline(t, order))


def test_high_order_bspline_is_fast():
    t0 = time.process_time()
    w = bspline_window(Grid(64), order=30)
    assert time.process_time() - t0 < 0.1
    assert np.all(np.isfinite(w.values)) and np.max(w.values.real) > 0


@pytest.mark.parametrize("kind", ["gaussian", "bspline", "box"])
@pytest.mark.parametrize("n", [8, 12, 64])
def test_d2_window_is_the_outer_product_of_d1(kind, n):
    w1 = make_window(Grid(n), kind).values
    w2 = make_window(Grid(n, 2), kind).values
    assert np.array_equal(w2, np.outer(w1, w1).reshape(-1))
