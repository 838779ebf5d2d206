"""Unit tests of the kernel-route oracle in `kernel_oracle`."""

import random

import pytest

from fibrecheck.polyalg import CoefficientField, NotInSpan, rank_over_fraction_field
from dense_oracle import PolyMatrix
from kernel_oracle import clear_denominators, hermite_normal_form, kernel_basis, solve_in_span
from test_polyalg import P, _rand_matrix

Q = CoefficientField.rationals()
F5 = CoefficientField.prime(5)


def test_hnf_examples():
    # gcd(t, t^2) = t: second column eliminated
    m = PolyMatrix.from_int_rows(Q, [[{1: 1}, {2: 1}]])
    h, u = hermite_normal_form(m)
    assert h == PolyMatrix.from_int_rows(Q, [[{1: 1}, 0]])
    assert m @ u == h

    ident = PolyMatrix.identity(Q, 2)
    h, u = hermite_normal_form(ident)
    assert h == ident and u == ident

    m = PolyMatrix.from_int_rows(Q, [[0, 1], [1, 0]])
    h, u = hermite_normal_form(m)
    assert h == PolyMatrix.from_int_rows(Q, [[1, 0], [0, 1]])
    assert m @ u == h


def test_kernel_examples():
    m = PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -1}, 0]])
    k = kernel_basis(m)
    assert k.cols == 1
    assert (m @ k).is_zero
    assert k.entries[0][0].is_zero and not k.entries[1][0].is_zero

    zero = PolyMatrix.zeros(Q, 1, 2)
    assert kernel_basis(zero).cols == 2
    assert kernel_basis(PolyMatrix.identity(Q, 2)).cols == 0


def test_solve_in_span_examples():
    ident = PolyMatrix.identity(Q, 2)
    target = PolyMatrix.from_int_rows(Q, [[{1: 1}], [{0: 7}]])
    assert solve_in_span(ident, target) == target

    basis = PolyMatrix.from_int_rows(Q, [[{1: 1}]])
    target = PolyMatrix.from_int_rows(Q, [[{3: 1}]])
    assert solve_in_span(basis, target) == PolyMatrix.from_int_rows(Q, [[{2: 1}]])

    basis = PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -1}]])
    target = PolyMatrix.from_int_rows(Q, [[1]])
    with pytest.raises(NotInSpan):
        solve_in_span(basis, target)


def test_kernel_properties():
    rng = random.Random(4)
    for _ in range(30):
        m = _rand_matrix(rng, F5, rng.randrange(1, 4), rng.randrange(1, 4))
        k = kernel_basis(m)
        assert (m @ k).is_zero
        assert k.cols == m.cols - rank_over_fraction_field(m)
        if k.cols:
            assert rank_over_fraction_field(k) == k.cols


def test_hnf_preserves_column_span():
    rng = random.Random(5)
    for _ in range(20):
        m = _rand_matrix(rng, Q, rng.randrange(1, 4), rng.randrange(1, 4))
        h, u = hermite_normal_form(m)
        assert m @ u == h
        # every original column solves inside the HNF columns
        x = solve_in_span(h, m)
        assert h @ x == m


def test_clear_denominators():
    m = PolyMatrix.from_int_rows(Q, [[{-2: 1}, {1: 3}], [1, 0]])
    c = clear_denominators(m)
    assert c.entries[0][0] == P(Q, {0: 1})
    assert c.entries[0][1] == P(Q, {3: 3})
    assert c.entries[1][0] == P(Q, {0: 1})
    assert rank_over_fraction_field(c) == rank_over_fraction_field(m)
