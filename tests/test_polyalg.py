import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import alexander
from fibrecheck.alexander import TwistedChain
from fibrecheck.polyalg import (
    EVALUATION_POINT,
    CoefficientField,
    LaurentPoly,
    NotInSpan,
    PolyMatrix,
    clear_denominators,
    poly_gcd,
    rank_lower_bound,
    rank_over_fraction_field,
    smith_normal_form,
)

Q = CoefficientField.rationals()
F3 = CoefficientField.prime(3)
F5 = CoefficientField.prime(5)
F2 = CoefficientField.prime(2)
F101 = CoefficientField.prime(101)  # p^2 > 2^13: t maps into F_p itself


def P(field, coeffs):
    return LaurentPoly.from_int_coeffs(field, coeffs)


def test_field_construction():
    assert Q.name == "Q"
    assert F3.name == "F3"
    with pytest.raises(ValueError):
        CoefficientField.prime(4)


def test_field_axioms_spot_check():
    rng = random.Random(1)
    for field in (Q, F5):
        for _ in range(100):
            a, b, c = (field.of_int(rng.randrange(-20, 20)) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one


def test_poly_arith_examples():
    # (t - 2) + 2 = t
    assert P(Q, {1: 1, 0: -2}) + P(Q, {0: 2}) == P(Q, {1: 1})
    # (t - 1)(t + 1) = t^2 - 1
    assert P(Q, {1: 1, 0: -1}) * P(Q, {1: 1, 0: 1}) == P(Q, {2: 1, 0: -1})
    # over F3, t - 2 == t + 1
    assert P(F3, {1: 1, 0: -2}) == P(F3, {1: 1, 0: 1})


def test_poly_arith_properties():
    rng = random.Random(2)

    def rand_poly(field):
        return LaurentPoly(field, {rng.randrange(-3, 4): field.of_int(rng.randrange(-4, 5))
                                   for _ in range(rng.randrange(4))})

    for field in (Q, F3):
        for _ in range(150):
            a, b, c = (rand_poly(field) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero:
                assert a.low == min(a.coeffs) and a.high == max(a.coeffs)


def test_poly_field_mismatch():
    with pytest.raises(ValueError, match="field mismatch"):
        P(Q, {0: 1}) + P(F3, {0: 1})


def test_render():
    assert P(Q, {1: 1, 0: -2}).render() == "-2 + t"
    assert P(Q, {}).render() == "0"
    assert P(Q, {2: 3, -1: 1}).render() == "t^-1 + 3*t^2"
    assert P(F3, {0: 1, 1: 1}).render() == "1 + t"


def test_exact_div():
    t3 = P(Q, {3: 1})
    t = P(Q, {1: 1})
    assert t3.exact_div(t) == P(Q, {2: 1})
    assert P(Q, {0: 1}).exact_div(P(Q, {-2: 1})) == P(Q, {2: 1})
    with pytest.raises(NotInSpan):
        P(Q, {0: 1}).exact_div(P(Q, {1: 1, 0: -1}))


def test_rank_examples():
    m = PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -1}], [0]])
    assert rank_over_fraction_field(m) == 1
    # rows proportional: det = t*t - t^2 = 0
    m = PolyMatrix.from_int_rows(Q, [[{1: 1}, 1], [{2: 1}, {1: 1}]])
    assert rank_over_fraction_field(m) == 1
    assert rank_over_fraction_field(PolyMatrix.identity(Q, 2)) == 2


@st.composite
def _factored_matrices(draw, field):
    """(L @ R, r) with L k x r and R r x n of integer Laurent entries, so rank <= r."""
    k, r, n = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    coeffs = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)

    def factor(rows, cols):
        return PolyMatrix(field, [[LaurentPoly.from_int_coeffs(field, draw(coeffs))
                                   for _ in range(cols)] for _ in range(rows)])

    return factor(k, r) @ factor(r, n), r


@pytest.mark.parametrize("field", [Q, F2, F3, F101], ids=lambda f: f.name)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_certified_rank_equals_bareiss(field, data):
    m, r = data.draw(_factored_matrices(field))
    exact = rank_over_fraction_field(m)
    assert rank_lower_bound(m) <= exact
    assert alexander._certified_rank(m, min(r, m.rows, m.cols)) == exact


def test_rank_lower_bound_falls_back_at_a_root(monkeypatch):
    # t - a vanishes at the point t -> a, so the bound is 0 and only Bareiss
    # finds the rank 1 of the 1 x 1 matrix.
    calls = []

    def counted(m):
        calls.append(m)
        return rank_over_fraction_field(m)

    monkeypatch.setattr(alexander, "rank_over_fraction_field", counted)
    for field in (Q, F101):
        b1 = PolyMatrix(field, [[P(field, {1: 1, 0: -EVALUATION_POINT})]])
        assert rank_lower_bound(b1) == 0
        chain = TwistedChain(None, None, b1, PolyMatrix.zeros(field, 0, 1))
        assert chain.rank_b1() == 1 and chain.rank_b2() == 0
    assert [m.rows for m in calls] == [1, 1]


def test_snf_examples():
    tm1 = {1: 1, 0: -1}
    prod = {2: 1, 1: -3, 0: 2}  # (t-1)(t-2)
    m = PolyMatrix.from_int_rows(Q, [[tm1, 0], [0, prod]])
    snf = smith_normal_form(m)
    assert [d.render() for d in snf.invariant_factors] == ["-1 + t", "2 + -3*t + t^2"]

    m = PolyMatrix.from_int_rows(Q, [[{1: 1}, 1], [0, {1: 1}]])
    snf = smith_normal_form(m)
    assert [d.render() for d in snf.invariant_factors] == ["1", "t^2"]

    snf = smith_normal_form(PolyMatrix.zeros(Q, 2, 2))
    assert snf.rank == 0
    assert all(d.is_zero for d in snf.invariant_factors)


def _rand_matrix(rng, field, rows, cols, max_deg=3):
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            row.append(LaurentPoly(field, {
                e: field.of_int(rng.randrange(-2, 3)) for e in range(rng.randrange(max_deg + 1))
            }))
        entries.append(row)
    return PolyMatrix(field, entries, rows, cols)


def test_rank_equals_nonzero_invariant_factors():
    rng = random.Random(3)
    for _ in range(40):
        m = _rand_matrix(rng, F5, rng.randrange(1, 4), rng.randrange(1, 4))
        assert rank_over_fraction_field(m) == smith_normal_form(m).rank


def test_snf_divisibility_chain():
    rng = random.Random(6)
    for _ in range(30):
        m = _rand_matrix(rng, F5, rng.randrange(1, 4), rng.randrange(1, 4))
        factors = smith_normal_form(m).invariant_factors
        for d1, d2 in zip(factors, factors[1:]):
            if d1.is_zero:
                assert d2.is_zero
            elif not d2.is_zero:
                assert d2.divmod_poly(d1)[1].is_zero


def _minor_det(m: PolyMatrix, rows, cols):
    # Leibniz expansion; independent of the elimination code paths.
    field = m.field
    total = LaurentPoly.zero(field)
    for perm in itertools.permutations(range(len(cols))):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        term = LaurentPoly.term(field, sign)
        for i, jp in enumerate(perm):
            term = term * m.entries[rows[i]][cols[jp]]
        total = total + term
    return total


def test_snf_factor_products_match_minor_gcds():
    rng = random.Random(7)
    for _ in range(12):
        m = _rand_matrix(rng, F5, 3, 3, max_deg=2)
        factors = smith_normal_form(m).invariant_factors
        for k in range(1, 4):
            minors = [
                _minor_det(m, rows, cols)
                for rows in itertools.combinations(range(3), k)
                for cols in itertools.combinations(range(3), k)
            ]
            nonzero = [d for d in minors if not d.is_zero]
            if not nonzero:
                gcd = LaurentPoly.zero(F5)
            else:
                gcd = nonzero[0]
                for d in nonzero[1:]:
                    gcd = poly_gcd(gcd, d)
            prod = LaurentPoly.one(F5)
            for d in factors[:k]:
                prod = prod * d
            if gcd.is_zero:
                assert prod.is_zero
            else:
                assert prod.monic() == gcd.monic()


def test_clear_denominators():
    m = PolyMatrix.from_int_rows(Q, [[{-2: 1}, {1: 3}], [1, 0]])
    c = clear_denominators(m)
    assert c.entries[0][0] == P(Q, {0: 1})
    assert c.entries[0][1] == P(Q, {3: 3})
    assert c.entries[1][0] == P(Q, {0: 1})
    assert rank_over_fraction_field(c) == rank_over_fraction_field(m)


def test_canonical_representative():
    p = P(Q, {3: 2, 1: -4})  # -4t + 2t^3 = 2t(t^2 - 2)
    c = p.canonical()
    assert c == P(Q, {0: -2, 2: 1}).monic()
    assert c.low == 0
    assert c.coeffs[c.high] == Fraction(1)
    assert LaurentPoly.zero(Q).canonical().is_zero
