import hashlib
import itertools
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import alexander
from fibrecheck.alexander import IntegralChain, TwistedChain
from fibrecheck.polyalg import (
    EVALUATION_POINT,
    CoefficientField,
    LaurentPoly,
    NotInSpan,
    SparseMatrix,
    _PRIMITIVE_LOW,
    _zech_field,
    diagonal_form,
    integral_diagonal_form,
    rank_lower_bound,
    rank_over_fraction_field,
)
from dense_oracle import PolyMatrix, to_dense
from kernel_oracle import divmod_poly
from smith_oracle import order_of
from zech_oracle import first_primitive_low

Q = CoefficientField.rationals()
F3 = CoefficientField.prime(3)
F5 = CoefficientField.prime(5)
F2 = CoefficientField.prime(2)
F101 = CoefficientField.prime(101)  # p^2 > 2^13: t maps into F_p itself


def P(field, coeffs):
    return LaurentPoly.from_int_coeffs(field, coeffs)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd in F[t] (inputs must have low >= 0)."""
    while not b.is_zero:
        a, b = b, divmod_poly(a, b)[1]
    return a.monic()


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
@settings(max_examples=25)
@given(data=st.data())
def test_certified_rank_equals_bareiss(field, data):
    m, r = data.draw(_factored_matrices(field))
    exact = rank_over_fraction_field(m)
    lower, upper = rank_lower_bound(m), min(r, m.rows, m.cols)
    assert lower <= exact
    rank, route = alexander._certified_rank(m, upper)
    assert rank == exact
    assert route == ("by this field's bound" if lower == upper else "by Bareiss")


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
        chain = TwistedChain(IntegralChain(None, [], [], (0, 1)), b1, PolyMatrix.zeros(field, 0, 1))
        assert chain.rank_b1() == 1 and chain.rank_b2() == 0
    assert [m.rows for m in calls] == [1, 1]


def test_snf_examples():
    tm1 = {1: 1, 0: -1}
    prod = {2: 1, 1: -3, 0: 2}  # (t-1)(t-2)
    m = PolyMatrix.from_int_rows(Q, [[tm1, 0], [0, prod]])
    form = diagonal_form(m)
    assert [d.render() for d in form.diagonal] == ["-1 + t", "2 + -3*t + t^2"]

    # Already diagonal, so left as it is: no divisibility chain (the Smith form
    # would be 1, t^2 - 1), but the same product.
    m = PolyMatrix.from_int_rows(Q, [[tm1, 0], [0, {1: 1, 0: 1}]])
    assert [d.render() for d in diagonal_form(m).diagonal] == ["-1 + t", "1 + t"]

    # t^2 is a unit of F[t^{+-1}]
    m = PolyMatrix.from_int_rows(Q, [[{1: 1}, 1], [0, {1: 1}]])
    form = diagonal_form(m)
    assert [d.render() for d in form.diagonal] == ["1", "1"]

    # over F[t] the entries would be t and t^3 (t - 1): the t-powers drop out, t - 1 stays
    m = PolyMatrix.from_int_rows(Q, [[{2: 1, 1: -1}, 0], [0, {3: 1}]])
    form = diagonal_form(m)
    assert [d.render() for d in form.diagonal] == ["1", "-1 + t"]

    # negative exponents are valid input; t^-1 (t - 2) is t - 2 up to a unit
    m = PolyMatrix.from_int_rows(Q, [[{0: 1, -1: -2}, 0], [{-3: 1}, {-1: 1, -2: -2}]])
    form = diagonal_form(m)
    assert [d.render() for d in form.diagonal] == ["1", "4 + -4*t + t^2"]

    form = diagonal_form(PolyMatrix.zeros(Q, 2, 2))
    assert form.rank == 0
    assert all(d.is_zero for d in form.diagonal)


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
        assert rank_over_fraction_field(m) == diagonal_form(m).rank


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


def _assert_factors_match_minor_gcds(m: PolyMatrix, factors, ks):
    """d1 * ... * dk is the gcd of the k x k minors, both up to units, for each k in ks."""
    field = m.field
    for k in ks:
        gcd = LaurentPoly.zero(field)
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                d = _minor_det(m, rows, cols)
                if not d.is_zero:
                    gcd = d.canonical() if gcd.is_zero else poly_gcd(gcd, d.canonical())
        prod = LaurentPoly.one(field)
        for d in factors[:k]:
            prod = prod * d
        assert prod.canonical() == gcd.canonical()


def _assert_is_a_diagonal_form(m: PolyMatrix):
    """The rank is the Bareiss rank, the nonzero entries come first and are
    canonical, and their product is the gcd of the r x r minors (r the rank)."""
    form = diagonal_form(m)
    r = form.rank
    assert r == rank_over_fraction_field(m)
    assert all(not d.is_zero and d == d.canonical() for d in form.diagonal[:r])
    _assert_factors_match_minor_gcds(m, form.diagonal, [r] if r else [])


def test_snf_factor_products_match_minor_gcds():
    rng = random.Random(7)
    for _ in range(12):
        _assert_is_a_diagonal_form(_rand_matrix(rng, F5, 3, 3, max_deg=2))


@st.composite
def _laurent_matrices(draw, field):
    """At most 3 x 3 with exponents down to -3: zero and longer entries, and
    in about half the matrices monomial (unit) entries as well."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coeff = st.sampled_from([1, -1, 2, 3])
    longer = st.dictionaries(st.integers(-3, 2), coeff, min_size=2, max_size=3)
    kinds = [st.just({}), longer]
    if draw(st.booleans()):
        kinds.append(st.dictionaries(st.integers(-3, 3), coeff, min_size=1, max_size=1))
    entry = st.one_of(kinds)
    return PolyMatrix(field, [[LaurentPoly.from_int_coeffs(field, draw(entry)) for _ in range(cols)]
                              for _ in range(rows)])


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=40)
@given(data=st.data())
def test_laurent_snf_is_a_smith_form(field, data):
    # A diagonal form, not a Smith form: the divisibility chain and the gcds of
    # the k x k minors for every k are checked on the oracle in test_smith_oracle.
    _assert_is_a_diagonal_form(data.draw(_laurent_matrices(field)))


@st.composite
def _sparse_laurent_matrices(draw, field):
    """Up to 10 x 15, shaped like a twisted chain's b2: three entries in four
    zero, two monomials to each short binomial among the rest, and some rows
    and columns zero throughout.  At about half density, over Q, a few
    matrices in a hundred make the Euclidean steps of diagonal_form grow
    spans and coefficients for minutes, under this pivot rule and the
    row-major one before it; that open defect is not what this checks."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 15))
    coeff = st.sampled_from([1, -1, 2, 3])
    kinds = [
        st.just({}),
        st.dictionaries(st.integers(-3, 3), coeff, min_size=1, max_size=1),
        st.dictionaries(st.integers(-2, 2), coeff, min_size=2, max_size=2),
    ]
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=3))

    def entry(i, j):
        if i in zero_rows or j in zero_cols:
            return {}
        kind = draw(st.integers(0, 11))  # 9 in 12 zero, 2 monomial, 1 binomial
        return draw(kinds[0 if kind < 9 else 1 if kind < 11 else 2])

    return PolyMatrix(field, [[LaurentPoly.from_int_coeffs(field, entry(i, j)) for j in range(cols)]
                              for i in range(rows)])


@pytest.mark.parametrize("field", [Q, F2, F3, F101], ids=lambda f: f.name)
@settings(max_examples=25)
@given(data=st.data())
def test_sparse_kernels_on_large_sparse_matrices(field, data):
    # Sizes the 3 x 3 strategies above never reach, where the sparse rows fill in.
    from smith_oracle import order_of, smith_normal_form

    m = data.draw(_sparse_laurent_matrices(field))
    form = diagonal_form(m)
    exact = rank_over_fraction_field(m)
    assert len(form.diagonal) == min(m.rows, m.cols)
    assert form.rank == exact
    product = reduce(mul, form.diagonal[:form.rank], LaurentPoly.one(field)).canonical()
    assert product == order_of(field, smith_normal_form(m), exact)
    assert rank_lower_bound(m) <= exact


@pytest.mark.parametrize("field", [Q, F2, F3, F101], ids=lambda f: f.name)
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3)])
def test_empty_and_zero_matrices(field, shape):
    m = PolyMatrix.zeros(field, *shape)
    form = diagonal_form(m)
    assert len(form.diagonal) == min(shape) and all(d.is_zero for d in form.diagonal)
    assert form.rank == rank_lower_bound(m) == rank_over_fraction_field(m) == 0


@pytest.mark.parametrize("field", [Q, F3], ids=lambda f: f.name)
def test_divmod_laurent_is_a_division_with_remainder(field):
    rng = random.Random(11)
    for _ in range(200):
        a = LaurentPoly(field, {rng.randrange(-4, 5): field.of_int(rng.randrange(-3, 4))
                                for _ in range(rng.randrange(6))})
        b = LaurentPoly(field, {rng.randrange(-3, 4): field.of_int(rng.choice([1, -1, 2]))
                                for _ in range(rng.randrange(1, 4))})
        q, r = a.divmod_laurent(b)
        assert q * b + r == a
        assert r.is_zero or (r.span < b.span and r.low >= a.low)
        assert (q * b).divmod_laurent(b) == (q, LaurentPoly.zero(field))


@pytest.mark.parametrize("field", [Q, F3], ids=lambda f: f.name)
def test_division_tracks_the_top_and_bottom_exponents(field, monkeypatch):
    # t^2000 - 1 = (t - 1)(1 + t + ... + t^1999) takes 2000 steps, each
    # cancelling the top term.  The division keeps the top and bottom
    # exponents as it goes: O(1) calls to min and max, where taking both
    # afresh at every step makes about 2000 of each and costs span^2.
    from fibrecheck import polyalg

    calls = {"min": 0, "max": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    a, b = P(field, {2000: 1, 0: -1}), P(field, {1: 1, 0: -1})
    monkeypatch.setattr(polyalg, "min", counted("min", min), raising=False)
    monkeypatch.setattr(polyalg, "max", counted("max", max), raising=False)
    q, r = a.divmod_laurent(b)
    monkeypatch.undo()
    assert r.is_zero
    assert q == P(field, {k: 1 for k in range(2000)})
    assert calls["min"] <= 2 and calls["max"] <= 2, calls


def test_canonical_representative():
    p = P(Q, {3: 2, 1: -4})  # -4t + 2t^3 = 2t(t^2 - 2)
    c = p.canonical()
    assert c == P(Q, {0: -2, 2: 1}).monic()
    assert c.low == 0
    assert c.coeffs[c.high] == Fraction(1)
    assert LaurentPoly.zero(Q).canonical().is_zero


def test_rational_inverse_keeps_integral_values_int():
    assert type(Q.of_int(3)) is int and type(Q.zero) is int and type(Q.one) is int
    for unit in (1, -1):
        assert Q.inv(unit) == unit and type(Q.inv(unit)) is int
    assert Q.inv(2) == Fraction(1, 2) and type(Q.inv(2)) is Fraction
    assert Q.inv(Fraction(1, 2)) == 2 and type(Q.inv(Fraction(1, 2))) is int
    assert Q.inv(Fraction(-2, 3)) == Fraction(-3, 2)


def test_int_and_fraction_coefficients_are_interchangeable():
    as_int, as_fraction = LaurentPoly(Q, {0: 2}), LaurentPoly(Q, {0: Fraction(2)})
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
    assert as_int.render() == as_fraction.render() == "2"
    assert LaurentPoly(Q, {1: Fraction(1, 2)}).render() == "1/2*t"


def test_non_unit_leading_pivot_over_q_matches_smith_oracle():
    # No entry is a monomial and the least-span pivot 2t - 1 has leading
    # coefficient 2, so the int entries meet Fraction quotients during
    # elimination and the order is monic only with a Fraction constant term.
    from smith_oracle import order_of, smith_normal_form

    m = PolyMatrix.from_int_rows(Q, [[{0: -1, 1: 2}, {0: 3, 1: 1}],
                                     [{0: 1, 1: 1}, {0: 2, 2: 1}]])
    form = diagonal_form(m)
    order = reduce(mul, form.diagonal, LaurentPoly.one(Q))
    assert order == order_of(Q, smith_normal_form(m), 2)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]  # 2t^3 - 2t^2 - 5
    assert order == det.canonical() == LaurentPoly(Q, {0: Fraction(-5, 2), 2: -1, 3: 1})
    assert order.render() == "-5/2 + -t^2 + t^3"


# SHA-256 of repr((n, neg_one, zech, prime_log)), the tables as lists: pins the
# chosen primitive polynomial and every table entry.
_ZECH_DIGESTS = {
    2: "7d24d21703e1767adab7bf3023e02b61499699bac52cb4c446123ab0851fe16f",
    3: "bf0ee2c6d130557a973e5f7a04d104e04215ad0f2fceb74a953b0a1fdf7dccfc",
    5: "3455244321bd8706313b3d9be4ff216fbb617587979ed5366e9c9ce19702a96b",
    7: "851cf30f28bd11480a1d01cd72b3b2ffe25602d0fd117cb9af5e19cc53bd6b93",
}


@pytest.mark.parametrize("p", sorted(_ZECH_DIGESTS))
def test_zech_tables_are_pinned(p):
    n, neg_one, zech, prime_log = _zech_field.__wrapped__(p)  # built afresh, not cached
    text = repr((n, neg_one, zech.tolist(), prime_log.tolist()))
    assert hashlib.sha256(text.encode()).hexdigest() == _ZECH_DIGESTS[p]


def test_pinned_primitive_polynomials_match_the_search():
    # Every prime with p^2 <= 2^13 has a pinned polynomial, and it is the
    # first primitive one that the search in `zech_oracle` finds.
    primes = [p for p in range(2, 91) if all(p % d for d in range(2, p))]
    assert sorted(_PRIMITIVE_LOW) == primes and len(primes) == 24
    for p in primes:
        assert _PRIMITIVE_LOW[p] == first_primitive_low(p)
    assert _PRIMITIVE_LOW[2] == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1)  # x^13 + x^12 + x^10 + x^9 + 1


def test_sparse_integer_rows_are_reduced_into_each_field():
    # The b2 of <a, t | a^2> at the trivial quotient is the 1 x 2 row (2, 0):
    # rank 1 over Q and F3, but over F2 the entry 2 is 0.
    for field, rank, diagonal in ((Q, 1, ["1"]), (F3, 1, ["1"]), (F2, 0, ["0"])):
        m = SparseMatrix(field, [{0: {0: 2}}], 1, 2)
        assert rank_lower_bound(m) == rank_over_fraction_field(m) == rank
        assert [d.render() for d in diagonal_form(m).diagonal] == diagonal
        assert to_dense(m) == PolyMatrix.from_int_rows(field, [[2, 0]])


@st.composite
def _integer_sparse_rows(draw):
    """Up to 6 x 8 integer rows in ascending column order, with coefficients
    that vanish modulo 2 or 3, and some entries that vanish entirely there."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    entry = st.dictionaries(st.integers(-2, 2), st.sampled_from([1, -1, 2, 3, -4, 6]),
                            min_size=1, max_size=3)
    data = []
    for _ in range(rows):
        present = draw(st.sets(st.integers(0, cols - 1), max_size=cols)) if cols else set()
        data.append({j: draw(entry) for j in sorted(present)})
    return data, rows, cols


@pytest.mark.parametrize("field", [Q, F2, F3, F101], ids=lambda f: f.name)
@settings(max_examples=40)
@given(data=st.data())
def test_sparse_rows_read_as_their_dense_matrix(field, data):
    # The kernels read integer rows, reducing as they go, exactly as they read
    # the dense matrix of the same entries over the field; the rows are shared
    # between fields, so nothing may change them.
    rows, n, m = data.draw(_integer_sparse_rows())
    before = repr(rows)
    sparse = SparseMatrix(field, rows, n, m)
    dense = to_dense(sparse)
    assert rank_lower_bound(sparse) == rank_lower_bound(dense)
    assert diagonal_form(sparse) == diagonal_form(dense)
    assert rank_over_fraction_field(sparse) == rank_over_fraction_field(dense)
    assert repr(rows) == before


def test_integral_phase_stops_at_a_remainder_it_cannot_divide():
    # The row [t - 1, 2]: over Z the pivot t - 1 leaves the remainder 2,
    # whose top coefficient is not +-1, so the phase stops with the whole row
    # as its residual, and each field finishes it.  2 is a unit over Q, F3
    # and F5, so the order is 1 there; over F2 it is 0 and t - 1 is left.
    rows = [{0: {1: 1, 0: -1}, 1: {0: 2}}]
    phase = integral_diagonal_form(rows, 1, 2)
    assert phase.diagonal == () and phase.residual == rows
    for field, order in ((Q, "1"), (F2, "1 + t"), (F3, "1"), (F5, "1")):
        form = phase.over(field)
        assert [d.render() for d in form.diagonal] == [order]
        assert form == diagonal_form(SparseMatrix(field, rows, 1, 2))
    assert rows == [{0: {1: 1, 0: -1}, 1: {0: 2}}]


def test_integral_phase_reads_as_the_diagonal_form_over_each_field():
    # Rows eliminated once over Z[t^{+-1}] and read over Q, F2, F3 and F5
    # give the rank and the canonical order of `diagonal_form` over that
    # field.  The entries 2, 3, -4 and 6 make remainders that the phase
    # cannot divide by, so it stops on some examples and not on others, and
    # both must occur; the shared rows stay as they were.
    residuals = []

    @settings(max_examples=100)
    @given(data=st.data())
    def check(data):
        rows, n, m = data.draw(_integer_sparse_rows())
        before = repr(rows)
        phase = integral_diagonal_form(rows, n, m)
        assert all(min(d) == 0 and d[max(d)] == 1 for d in phase.diagonal)
        for field in (Q, F2, F3, F5):
            read, direct = phase.over(field), diagonal_form(SparseMatrix(field, rows, n, m))
            assert len(read.diagonal) == len(direct.diagonal) == min(n, m)
            assert read.rank == direct.rank >= len(phase.diagonal)
            assert all(d == d.canonical() for d in read.diagonal)
            assert order_of(field, read, read.rank) == order_of(field, direct, direct.rank)
        assert repr(rows) == before
        residuals.append(bool(phase.residual))

    check()
    assert set(residuals) == {False, True}


@settings(max_examples=40)
@given(data=st.data())
def test_rank_over_q_is_at_least_the_rank_over_each_prime(data):
    # A minor of the integer rows that is nonzero mod p is nonzero over Z, so
    # a rank that F_p(t) proves is a lower bound over Q(t); the rows' entries
    # 2, 3, -4 and 6 vanish mod 2 or 3, so the inequality can be strict.
    rows, n, m = data.draw(_integer_sparse_rows())
    exact = rank_over_fraction_field(SparseMatrix(Q, rows, n, m))
    for field in (F2, F3):
        assert rank_over_fraction_field(SparseMatrix(field, rows, n, m)) <= exact
