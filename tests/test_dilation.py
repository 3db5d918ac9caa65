import numpy as np
import pytest

from gaborfio.dilation import (dilation_inner_product,
                               dilation_commutation_factor,
                               dilation_symbol_closed_form)
from oracles import dilation_integrand_quadrature

ALPHA = BETA = 0.25


@pytest.mark.parametrize("klkplp", [(0, 0, 0, 0), (2, 3, 1, -1),
                                    (-5, 7, 2, 3), (4, -2, -3, 1),
                                    (1, 1, 0, 2), (-3, -4, -1, -2)])
@pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
def test_closed_form_matches_quadrature_oracle(s, klkplp):
    k, l, kp, lp = klkplp
    cf = dilation_inner_product(s, ALPHA, BETA, k, l, kp, lp)
    q = dilation_integrand_quadrature(s, ALPHA, BETA, k, l, kp, lp)
    assert abs(cf - q) < 1e-10


def test_s1_modulus_reduction():
    # at s = 1 the modulus is (1/sqrt 2) e^{-pi (alpha k')^2/2} e^{-pi theta^2/2}
    for kp in range(-3, 4):
        for lp in range(-3, 4):
            v = dilation_inner_product(1.0, ALPHA, BETA, 2, 3, kp, lp)
            theta = BETA * (-lp)
            ref = np.exp(-np.pi * ((ALPHA * kp) ** 2 + theta ** 2) / 2) \
                / np.sqrt(2)
            assert abs(abs(v) - ref) < 1e-14


def test_diagonal_modulus_at_integer_sl():
    # k' = l' = 0 and s*l integer: all exponents vanish
    for s in (2.0, 3.0):
        v = dilation_inner_product(s, ALPHA, BETA, 0, 2, 0, 0)
        assert abs(abs(v) - 1.0 / np.sqrt(s * s + 1.0)) < 1e-14


def test_commutation_factor_unimodular():
    l = np.arange(-8, 9)
    kp = np.arange(-8, 9)
    c = dilation_commutation_factor(2.0, ALPHA, BETA, l[:, None], kp[None, :])
    assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-15


def test_full_symbol_is_factor_times_inner_product():
    v = dilation_symbol_closed_form(2.0, ALPHA, BETA, 3, 5, 1, -2)
    c = dilation_commutation_factor(2.0, ALPHA, BETA, 5, 1)
    ip = dilation_inner_product(2.0, ALPHA, BETA, 3, 5, 1, -2)
    assert abs(v - c * ip) < 1e-15
