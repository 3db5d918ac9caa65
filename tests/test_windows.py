import time

import numpy as np
import pytest

from gaborfio.core import Grid
from gaborfio.windows import _cardinal_bspline, bspline_window


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
