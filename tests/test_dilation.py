import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from gaborfio.dilation import (_mass_set, dilation_inner_product,
                               dilation_commutation_factor,
                               dilation_symbol_closed_form)
from oracles import dilation_integrand_quadrature

ALPHA = BETA = 0.25
SETTINGS = settings(max_examples=60, deadline=None, database=None)
S_VALUES = (0.5, 1.5, 2.0, 3.0)


@st.composite
def index_args(draw, count, one_array=False):
    """count lattice-index arguments, each a scalar, a (1, N) row or a
    (K, 1) column, as compare_dilation_symbols broadcasts them; with
    one_array, at least one is an array."""
    K, N = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    forms = draw(st.lists(st.sampled_from(("scalar", "row", "column")),
                          min_size=count, max_size=count)
                 .filter(lambda f: not one_array or set(f) != {"scalar"}))
    args = []
    for form in forms:
        if form == "scalar":
            args.append(draw(st.integers(-12, 12)))
        else:
            size = N if form == "row" else K
            values = np.array(draw(st.lists(st.integers(-12, 12),
                                            min_size=size, max_size=size)))
            args.append(values[None, :] if form == "row" else values[:, None])
    return args


@SETTINGS
@given(st.sampled_from(S_VALUES), index_args(4, one_array=True))
def test_tabulated_inner_product_equals_entrywise_oracle(s, args):
    got = dilation_inner_product(s, ALPHA, BETA, *args)
    want = oracles.dilation_inner_product(s, ALPHA, BETA, *args)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@SETTINGS
@given(st.sampled_from(S_VALUES),
       st.lists(st.integers(-12, 12), min_size=4, max_size=4))
@example(0.5, [3, 0, 1, 1])
def test_scalar_inner_product_is_the_array_value(s, args):
    # On four scalars the entrywise form falls into Python's complex
    # division, which can differ in the last bit from numpy's (a product
    # with the reciprocal).  The table takes numpy's on scalars too, so a
    # value does not depend on whether its indices come inside arrays.
    got = dilation_inner_product(s, ALPHA, BETA, *args)
    want = oracles.dilation_inner_product(s, ALPHA, BETA,
                                          *(np.array([a]) for a in args))
    assert np.shape(got) == ()
    assert np.array_equal(got, want[0])


@SETTINGS
@given(st.sampled_from(S_VALUES), index_args(2))
def test_tabulated_commutation_factor_equals_entrywise_oracle(s, args):
    got = dilation_commutation_factor(s, ALPHA, BETA, *args)
    want = oracles.dilation_commutation_factor(s, ALPHA, BETA, *args)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@SETTINGS
@given(st.lists(st.sampled_from((0.0, 0.25, 1.0, 3.0)), min_size=1,
                max_size=300).map(np.array))
@example(np.ones(100))      # 99 of 100 ties are kept: index 0 is dropped
def test_mass_set_equals_reversed_stable_argsort(camp):
    # Few levels, so ties fall at the cut: the set keeps the ties of the
    # highest indices, as the reversed stable order takes them.
    assert np.array_equal(np.sort(_mass_set(camp)),
                          np.sort(oracles.mass_set(camp)))


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
