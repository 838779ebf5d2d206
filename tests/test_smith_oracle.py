"""Unit tests of the Smith-form oracle in `smith_oracle`, and of the
production diagonal form against it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck.polyalg import CoefficientField, diagonal_form, rank_over_fraction_field
from kernel_oracle import divmod_poly
from smith_oracle import order_of, rank_of, smith_normal_form
from test_polyalg import _assert_factors_match_minor_gcds, _laurent_matrices, _rand_matrix

Q = CoefficientField.rationals()
F2 = CoefficientField.prime(2)
F3 = CoefficientField.prime(3)
F5 = CoefficientField.prime(5)


def test_snf_divisibility_chain():
    rng = random.Random(6)
    for _ in range(30):
        m = _rand_matrix(rng, F5, rng.randrange(1, 4), rng.randrange(1, 4))
        factors = smith_normal_form(m)
        for d1, d2 in zip(factors, factors[1:]):
            if d1.is_zero:
                assert d2.is_zero
            elif not d2.is_zero:
                assert divmod_poly(d2, d1)[1].is_zero


def test_oracle_factor_products_match_all_minor_gcds():
    rng = random.Random(7)
    for _ in range(12):
        m = _rand_matrix(rng, F5, 3, 3, max_deg=2)
        _assert_factors_match_minor_gcds(m, smith_normal_form(m), range(1, 4))


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=40)
@given(data=st.data())
def test_oracle_is_a_smith_form_with_the_diagonal_product(field, data):
    m = data.draw(_laurent_matrices(field))
    factors = smith_normal_form(m)
    assert rank_of(factors) == rank_over_fraction_field(m)
    assert all(d == d.canonical() for d in factors)
    for d1, d2 in zip(factors, factors[1:]):
        assert d2.is_zero or (not d1.is_zero and divmod_poly(d2, d1)[1].is_zero)
    _assert_factors_match_minor_gcds(m, factors, range(1, min(m.rows, m.cols) + 1))
    form = diagonal_form(m)
    assert len(form) == rank_of(factors)
    assert order_of(field, form, len(form)) == order_of(field, factors, rank_of(factors))
