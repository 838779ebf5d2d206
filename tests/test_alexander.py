import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import alexander
from fibrecheck.alexander import (
    InternalCheckError,
    TwistedChain,
    _h0_closed_form,
    chain_reports,
    full_report,
    h0_report,
    h1_vanishing,
    integral_chain,
)
from fibrecheck.fixtures import load_fixture
from fibrecheck.foxcalc import Representation, build_representation
from fibrecheck.polyalg import CoefficientField, IntegralDiagonal, LaurentPoly, SnfResult, diagonal_form
from fibrecheck.quotients import (
    cyclic_group,
    enumerate_homs,
    make_quotient,
    restrict_to_image,
    symmetric_group,
    trivial_quotient,
)
from fibrecheck.reidschreier import rewrite_subgroup
from fibrecheck.words import (
    Character,
    Presentation,
    Word,
    parse_presentation,
    render_presentation,
    validate_character,
)
from dense_oracle import DenseRepresentation, PolyMatrix, chain_over, dense_chain, h1_order, to_dense
from free_group_oracle import tietze_variant
from quotient_oracle import same_kernel
from smith_oracle import order_of, smith_normal_form

Q = CoefficientField.rationals()
F2 = CoefficientField.prime(2)
F3 = CoefficientField.prime(3)
F5 = CoefficientField.prime(5)


def poly(field, coeffs):
    return LaurentPoly.from_int_coeffs(field, coeffs)


def _transposed(rep: Representation, field) -> DenseRepresentation:
    """The partner convention built on the left regular action.

    Generator i maps to t^{phi(x_i)} * transpose(P(alpha(x_i)^-1)); this is
    again a homomorphism, and cross-testing against it checks that vanishing
    and normalized orders do not depend on the side convention.
    """
    dense = DenseRepresentation.of(rep, field)

    def shift_all(m: PolyMatrix, k: int) -> PolyMatrix:
        return PolyMatrix(field, [[e.shifted(k) for e in row] for row in m.entries],
                          m.rows, m.cols)

    mats = [shift_all(m.transpose(), 2 * v)
            for m, v in zip(dense.inverses, rep.character.values)]
    invs = [shift_all(m.transpose(), -2 * v)
            for m, v in zip(dense.matrices, rep.character.values)]
    return DenseRepresentation(field, rep.dim, mats, invs)


def _chain(p, chi, q, field=Q):
    return chain_over(build_representation(p, chi, q), field)


def test_build_chain_z():
    z, chi = load_fixture("zn:1")
    c = _chain(z, chi, trivial_quotient(z))
    assert to_dense(c.b1) == PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -1}]])
    assert c.b2.rows == 0 and c.b2.cols == 1


def test_build_chain_bs12():
    p, chi = load_fixture("bs:1:2")
    c = _chain(p, chi, trivial_quotient(p))
    # phi(a) - 1 = 0, phi(t) - 1 = t - 1; Fox rows (t - 2, 0)
    b1, b2 = to_dense(c.b1), to_dense(c.b2)
    assert b1 == PolyMatrix.from_int_rows(Q, [[0], [{1: 1, 0: -1}]])
    assert b2 == PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -2}, 0]])
    assert (b2 @ b1).is_zero


def test_build_chain_f2xz():
    p, chi = load_fixture("f2xz")
    c = _chain(p, chi, trivial_quotient(p))
    b1 = to_dense(c.b1)
    assert b1 == PolyMatrix.from_int_rows(Q, [[0], [0], [{1: 1, 0: -1}]])
    assert (to_dense(c.b2) @ b1).is_zero


def _perturbed_fox_images(monkeypatch, perturb):
    """Make chain assembly see its first relator's Fox images changed by `perturb`."""
    import fibrecheck.alexander as alexander

    original = alexander.fox_images

    def fox_images(rep, r):
        blocks = original(rep, r)
        if r == rep.presentation.relators[0]:
            perturb(blocks)
        return blocks

    monkeypatch.setattr(alexander, "fox_images", fox_images)


def _bump_coefficient(blocks):
    shifts = next(iter(blocks[0].values()))
    k = next(iter(shifts))
    shifts[k] += 1


def _move_image(blocks):
    g = next(iter(blocks[0]))
    h = next(h for h in range(6) if h not in blocks[0])  # an element of S3 with no term yet
    blocks[0][h] = blocks[0].pop(g)


@pytest.mark.parametrize("perturb", [_bump_coefficient, _move_image], ids=["coefficient", "image"])
def test_chain_check_rejects_wrong_fox_images(perturb, monkeypatch):
    # The fundamental formula in Z[Q x Z] catches one wrong term in one block.
    p, chi = load_fixture("trefoil")
    q = make_quotient(p, symmetric_group(3), (2, 1))
    rep = build_representation(p, chi, q)
    chain_over(rep, Q)
    _perturbed_fox_images(monkeypatch, perturb)
    with pytest.raises(InternalCheckError, match="chain condition"):
        chain_over(rep, Q)


def test_h1_vanishing_examples():
    p, chi = load_fixture("bs:1:2")
    vanish, rank = h1_vanishing(_chain(p, chi, trivial_quotient(p)))
    assert (vanish, rank) == (False, 0)

    p, _ = load_fixture("f2xz")
    chi = validate_character(p, [1, 0, 0])
    vanish, rank = h1_vanishing(_chain(p, chi, trivial_quotient(p)))
    assert (vanish, rank) == (True, 1)

    z, chi = load_fixture("zn:1")
    vanish, rank = h1_vanishing(_chain(z, chi, trivial_quotient(z)))
    assert (vanish, rank) == (False, 0)


def test_h1_order_hand_values():
    # BS(1,2): d(t a t^-1 a^-2)/da evaluates to t - 2, /dt to 0, so the
    # kernel of b1 = (0, t-1)^T is spanned by (1, 0) and the single relator
    # row (t-2, 0) has coordinate t-2: order t - 2.
    p, chi = load_fixture("bs:1:2")
    assert h1_order(_chain(p, chi, trivial_quotient(p))) == poly(Q, {1: 1, 0: -2})

    # Trefoil, phi = (1,1): d r/dx -> 1 - t + t^2, d r/dy -> -1 + t - t^2,
    # kernel of (t-1, t-1)^T spanned by (1, -1): order t^2 - t + 1.
    p, chi = load_fixture("trefoil")
    assert h1_order(_chain(p, chi, trivial_quotient(p))) == poly(Q, {2: 1, 1: -1, 0: 1})

    # Klein bottle t a t^-1 a: d r/da -> t + 1 on the kernel direction (1, 0).
    p, chi = load_fixture("klein")
    assert h1_order(_chain(p, chi, trivial_quotient(p))) == poly(Q, {1: 1, 0: 1})


def test_h0_examples():
    z, chi = load_fixture("zn:1")
    r = h0_report(_chain(z, chi, trivial_quotient(z)))
    assert not r.vanishing and r.order == poly(Q, {1: 1, 0: -1})

    # zero character: b1 = 0, coker is not torsion
    p = parse_presentation("gens: a b\nrels:")
    chi0 = validate_character(p, [0, 0])
    r = h0_report(_chain(p, chi0, trivial_quotient(p)))
    assert r.vanishing and r.order.is_zero

    p, chi = load_fixture("bs:1:2")
    r = h0_report(_chain(p, chi, trivial_quotient(p)))
    assert r.order == poly(Q, {1: 1, 0: -1})


def test_full_report_bs12():
    p, chi = load_fixture("bs:1:2")
    deg0, deg1 = full_report(p, chi, trivial_quotient(p), Q)
    assert deg0.order == poly(Q, {1: 1, 0: -1}) and not deg0.vanishing
    assert deg1.order == poly(Q, {1: 1, 0: -2}) and not deg1.vanishing
    deg0, deg1 = full_report(p, chi, trivial_quotient(p), F3)
    assert deg1.order == poly(F3, {1: 1, 0: 1})  # t - 2 = t + 1 mod 3


def test_full_report_f2xz():
    p, chi = load_fixture("f2xz")
    square = {2: 1, 1: -2, 0: 1}  # (t-1)^2
    for field in (Q, F5):
        deg0, deg1 = full_report(p, chi, trivial_quotient(p), field)
        assert deg1.order == poly(field, square)
        assert not deg1.vanishing

    chi_a = validate_character(p, [1, 0, 0])
    deg0, deg1 = full_report(p, chi_a, trivial_quotient(p), Q)
    assert deg1.vanishing and deg1.rank_over_frac == 1 and deg1.order.is_zero


# SHA-256 of render() of the degree-0 and degree-1 orders on the first
# surjection of f2xz onto S5 in `enumerate_homs` order.
_S5_ORDER_DIGESTS = {
    "F3": ("0aea3efd20a226f2dd7bbe19a4a78a051cf9133a785d95040dc1f249ebad40d0",
           "e7e2c442e72d988cfb5315d85909c330d0e35d4c23463c90072afb72bc95d386"),
    "Q": ("afc43b26f974335954f4047e4b2a15705ef99da88c93ab37587294e0e75f56bc",
          "5ffcf5cebda3c5f87fa565e40d672a5a68b99442ada8cf2a10f7d612de4a035f"),
}


@pytest.mark.parametrize("field", [F3, Q], ids=lambda f: f.name)
def test_full_report_on_an_s5_quotient_of_f2xz(field):
    # b1 is 360 x 120 and b2 240 x 360: both routes and both cross-checks run
    # on the largest blocks in the suite.  Enumerating the 6840 surjections
    # takes a second, so the first one's images are given directly.
    import hashlib

    p, chi = load_fixture("f2xz")
    q = make_quotient(p, symmetric_group(5), (1, 32, 0))
    assert q.surjective
    reports = full_report(p, chi, q, field)
    assert [(r.degree, r.vanishing, r.rank_over_frac) for r in reports] == [(0, False, 0), (1, False, 0)]
    digests = tuple(hashlib.sha256(r.order.render().encode()).hexdigest() for r in reports)
    assert digests == _S5_ORDER_DIGESTS[field.name]


def test_h0_closed_form_walks_once_per_report(monkeypatch):
    # h0_report and the order route both read the closed form; the chain
    # keeps it, so the walk over the image runs once per full_report.
    from fibrecheck import alexander

    walk, calls = alexander._h0_closed_form, []
    monkeypatch.setattr(alexander, "_h0_closed_form", lambda c: calls.append(c) or walk(c))
    p, chi = load_fixture("f2xz")
    quotients = [trivial_quotient(p)] + [h for h in enumerate_homs(p, symmetric_group(3))
                                         if h.surjective][:2]
    for q in quotients:
        for field in (Q, F2, F3):
            calls.clear()
            full_report(p, chi, q, field)
            assert len(calls) == 1, (q.label(), field.name)


def test_rational_f2xz_chains_hold_int_coefficients():
    # Over Q the Fox data is integral and every pivot of these chains is a
    # unit or monic, so b1, b2 and the diagonal of b2 hold ints only; a
    # Fraction(n) coefficient, equal to n but built at a cost, fails here.
    from fibrecheck.fibring import ScanConfig, _quotient_stream

    p, chi = load_fixture("f2xz")
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=4)
    kept = [q for kind, q, _ in _quotient_stream(p, cfg) if kind == "kept"]
    checked = 0
    for q in kept:
        for c in (chi, chi.negate()):
            chain = _chain(p, c, restrict_to_image(p, q))
            polys = [e for m in (chain.b1, chain.b2) for row in to_dense(m).entries for e in row]
            polys += diagonal_form(chain.b2).diagonal
            for e in polys:
                assert all(type(x) is int for x in e.coeffs.values()), (q.label(), e)
            checked += 1
    assert checked == 2 * len(kept) > 2


def test_rank_and_snf_routes_agree_everywhere():
    # Equivalence battery: the rank verdict must equal the
    # order-is-zero verdict on every instance we can build.
    rng = random.Random(31)
    fixtures = ["bs:1:2", "trefoil", "klein", "f2xz", "zn:2", "f:2", "surface:1"]
    fields = [Q, F2, F3]
    for name in fixtures:
        p, chi = load_fixture(name)
        quotients = [trivial_quotient(p)]
        for target in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
            quotients.extend(enumerate_homs(p, target))
        sample = quotients if len(quotients) <= 8 else rng.sample(quotients, 8)
        for q in sample:
            for field in fields:
                c = _chain(p, chi, restrict_to_image(p, q), field)
                vanish, _ = h1_vanishing(c)
                order = h1_order(c)
                assert vanish == order.is_zero, (name, q.gen_images, field.name)


def test_probe_fields_agree_on_bs12():
    p, chi = load_fixture("bs:1:2")
    verdicts = []
    for field in (Q, F2, F3, F5):
        _, deg1 = full_report(p, chi, trivial_quotient(p), field)
        verdicts.append(deg1.vanishing)
    assert verdicts == [False, False, False, False]


def test_fibred_certificates_nonvanishing_to_order_8():
    # Fixtures with finitely generated kernel: every quotient of order <= 8
    # must give nonvanishing degree-0 and degree-1 reports.
    from fibrecheck.quotients import build_catalog

    for name in ("zn:1", "trefoil", "f2xz", "klein"):
        p, chi = load_fixture(name)
        quotients = [trivial_quotient(p)]
        for group in build_catalog(8):
            quotients.extend(enumerate_homs(p, group))
        kept = []
        for q in quotients:
            if not any(same_kernel(p, q, r) for r in kept):
                kept.append(q)
        for q in kept:
            for field in (Q, F2):
                deg0, deg1 = full_report(p, chi, q, field)
                assert not deg0.vanishing, (name, q.group.name, q.gen_images, field.name)
                assert not deg1.vanishing, (name, q.group.name, q.gen_images, field.name)


def test_untwisting_matches_subgroup_computation():
    cases = [
        ("bs:1:2", cyclic_group(2), (0, 1)),
        ("bs:1:2", cyclic_group(3), (0, 1)),
        ("trefoil", cyclic_group(2), (1, 1)),
        ("trefoil", symmetric_group(3), (2, 1)),
        ("klein", cyclic_group(2), (0, 1)),
        ("klein", symmetric_group(3), (4, 2)),
        ("f2xz", cyclic_group(2), (1, 0, 0)),
    ]
    for name, group, images in cases:
        p, chi = load_fixture(name)
        q = make_quotient(p, group, images)
        twisted = full_report(p, chi, q, Q)[1]
        sub = rewrite_subgroup(p, q, chi)
        untwisted = full_report(sub.presentation, sub.restricted_character,
                                trivial_quotient(sub.presentation), Q)[1]
        assert twisted.order == untwisted.order, (name, group.name, images)
        assert twisted.vanishing == untwisted.vanishing


def test_sign_flip_invariance():
    for name in ("bs:1:2", "trefoil", "klein", "f2xz"):
        p, chi = load_fixture(name)
        plus = full_report(p, chi, trivial_quotient(p), Q)[1]
        minus = full_report(p, chi.negate(), trivial_quotient(p), Q)[1]
        assert plus.vanishing == minus.vanishing
        assert minus.order == plus.order.reciprocal().canonical()


def test_tietze_invariance():
    for name in ("trefoil", "zn:2"):
        p, chi = load_fixture(name)
        base = full_report(p, chi, trivial_quotient(p), Q)[1]

        doubled = tietze_variant(p, "redundant-relator",
                                 recipe=[(Word(), 0, 1), (Word(), 0, 1)])
        conj = tietze_variant(p, "redundant-relator", recipe=[(Word((1,)), 0, 1)])
        extended = tietze_variant(p, "new-generator", name="c", defining=Word((1, 2)))
        chi_ext = validate_character(extended, list(chi.values) + [chi.of_word(Word((1, 2)))])

        for variant, vchi in ((doubled, chi), (conj, chi), (extended, chi_ext)):
            r = full_report(variant, vchi, trivial_quotient(variant), Q)[1]
            assert r.vanishing == base.vanishing
            assert r.order == base.order, name


def test_h0_nonvanishing_whenever_character_hits_a_generator():
    rng = random.Random(32)
    for name in ("bs:1:2", "trefoil", "klein", "f2xz", "surface:1"):
        p, chi = load_fixture(name)
        quotients = [trivial_quotient(p)] + enumerate_homs(p, cyclic_group(3))
        for q in rng.sample(quotients, min(3, len(quotients))):
            r = full_report(p, chi, q, Q)[0]
            assert not r.vanishing


def test_same_kernel_quotients_same_verdict():
    p, chi = load_fixture("trefoil")
    s3 = symmetric_group(3)
    epis = [q for q in enumerate_homs(p, s3, surjective_only=True)]
    assert len(epis) >= 2
    for q1, q2 in zip(epis, epis[1:]):
        if same_kernel(p, q1, q2):
            r1 = full_report(p, chi, q1, Q)[1]
            r2 = full_report(p, chi, q2, Q)[1]
            assert r1.vanishing == r2.vanishing
            assert r1.order == r2.order

    z, chiz = load_fixture("zn:1")
    q1 = make_quotient(z, cyclic_group(3), (1,))
    q2 = make_quotient(z, cyclic_group(3), (2,))
    assert same_kernel(z, q1, q2)
    assert full_report(z, chiz, q1, Q)[1].order == full_report(z, chiz, q2, Q)[1].order


def test_transpose_convention_cross_check():
    # The opposite (column-left) convention must produce the same vanishing
    # verdicts and normalized orders.
    cases = [
        ("bs:1:2", trivial_quotient(load_fixture("bs:1:2")[0])),
        ("trefoil", make_quotient(load_fixture("trefoil")[0], symmetric_group(3), (2, 1))),
        ("klein", make_quotient(load_fixture("klein")[0], cyclic_group(2), (0, 1))),
    ]
    for name, q in cases:
        p, chi = load_fixture(name)
        rep = build_representation(p, chi, q)
        c1 = chain_over(rep, Q)
        c2 = dense_chain(_transposed(rep, Q), rep)
        assert (c2.b2 @ c2.b1).is_zero
        assert h1_vanishing(c1) == h1_vanishing(c2)
        assert h1_order(c1) == h1_order(c2)


def test_cross_check_failure_names_its_inputs(monkeypatch):
    # A wrong rank on either route makes the two routes disagree, also on the
    # 99 x 33 b1 of f2xz at Z/33, where both checks must still run.  The
    # message names the route of each rank that was computed, and how many
    # diagonal entries of b2 came from Z; over Q after F2, both ranks are
    # inherited from F2's certificate, so a wrong order route is what makes
    # them disagree there: F2 has taken the integral diagonal form of b2, and
    # Q's reading of it is made wrong.
    trefoil, trefoil_chi = load_fixture("trefoil")
    f2xz, f2xz_chi = load_fixture("f2xz")
    cases = [
        (trefoil, trefoil_chi, make_quotient(trefoil, symmetric_group(3), (2, 1)),
         "quotient: S3 (order 6), images [2, 1]", "b1: 12x6, b2: 6x12", "d: 2 (closed-form rank 0)"),
        (f2xz, f2xz_chi, make_quotient(f2xz, cyclic_group(33), (1, 0, 0)),
         "quotient: Z/33 (order 33), images [1, 0, 0]", "b1: 99x33, b2: 66x99", "d: 1 (closed-form rank 0)"),
    ]
    for p, chi, q, quotient_line, shapes, d_line in cases:
        for method, degree, detail in (("rank_b1", 0, d_line),
                                       ("rank_b2", 1, "diagonal of b2: [1, ")):
            with monkeypatch.context() as m:
                m.setattr(TwistedChain, method, lambda chain: 0)
                with pytest.raises(InternalCheckError) as err:
                    full_report(p, chi, q, Q)
            msg = str(err.value)
            assert f"degree-{degree} cross-check failed" in msg
            assert render_presentation(p).replace("\n", " | ") in msg
            assert quotient_line in msg and shapes in msg and detail in msg
            assert "PolyMatrix(" not in msg
            n = q.group.order
            if degree == 1:
                assert f"({(p.generator_count - 1) * n} entries from Z, no residual)" in msg
            routes = [] if method == "rank_b1" else [f"rank of b1: {n} by this field's bound"]
            assert [line for line in msg.splitlines() if line.startswith("rank of")] == routes

        chain = integral_chain(p, chi, q)
        chain_reports(chain.over(F2))
        with monkeypatch.context() as m:
            m.setattr(IntegralDiagonal, "over", lambda form, field: SnfResult(()))
            with pytest.raises(InternalCheckError) as err:
                chain_reports(chain.over(Q))
        msg = str(err.value)
        assert "degree-1 cross-check failed" in msg and "field: Q" in msg and shapes in msg
        assert [line for line in msg.splitlines() if line.startswith("rank of")] == [
            f"rank of b1: {n} inherited from the F2 certificate",
            f"rank of b2: {(p.generator_count - 1) * n} inherited from the F2 certificate"]

    # At Z/10 with images (2, 5, 7) the elimination over Z stops and leaves
    # two rows of b2 (20 x 30) in 12 columns for each field to finish.
    with monkeypatch.context() as m:
        m.setattr(TwistedChain, "rank_b2", lambda chain: 0)
        with pytest.raises(InternalCheckError) as err:
            full_report(f2xz, f2xz_chi, make_quotient(f2xz, cyclic_group(10), (2, 5, 7)), Q)
    assert "(18 entries from Z, residual 2x12 finished over Q)" in str(err.value)


def test_q_decides_for_itself_where_a_prime_falls_short(monkeypatch):
    # <a, t | a^2> at the trivial quotient: b2 is the 1 x 2 row (2, 0), of
    # rank 0 over F2, short of its upper bound 1.  That certificate proves
    # nothing over Q, which runs its own bound for b2 and finds rank 1; the
    # rank 1 of b1 over F2 reaches its bound, so Q reads it.
    p = parse_presentation("gens: a t\nrels: a^2\n")
    chain = integral_chain(p, validate_character(p, [0, 1]), trivial_quotient(p))
    over_f2 = chain.over(F2)
    assert (over_f2.rank_b1(), over_f2.rank_b2()) == (1, 0)
    assert chain.proved == {"b1": (1, F2), "b2": (0, F2)}
    bound, calls = alexander.rank_lower_bound, []
    monkeypatch.setattr(alexander, "rank_lower_bound", lambda m: calls.append(m.field) or bound(m))
    over_q = chain.over(Q)
    assert (over_q.rank_b1(), over_q.rank_b2()) == (1, 1)
    assert calls == [Q]
    assert [r.vanishing for r in chain_reports(over_q)] == [False, False]
    assert chain.proved == {"b1": (1, F2), "b2": (0, F2)}  # Q records nothing


def test_bs13_order_is_t_minus_3_and_a_unit_mod_3():
    # d(t a t^-1 a^-3)/da evaluates to t - 3 at the trivial quotient; over F3
    # that is the monomial t, a unit, whose canonical form is 1.
    p, chi = load_fixture("bs:1:3")
    _, deg1 = full_report(p, chi, trivial_quotient(p), Q)
    assert deg1.order == poly(Q, {1: 1, 0: -3})
    _, deg1 = full_report(p, chi, trivial_quotient(p), F3)
    assert deg1.order == LaurentPoly.one(F3)
    assert not deg1.vanishing


def test_surface_group_vanishes_at_trivial_quotient():
    # A closed genus-2 surface group has empty BNS invariant, so any
    # coordinate character must already be obstructed: the boundary block of
    # the single relator has rank 1 while the kernel of b1 has rank 3.
    p, chi = load_fixture("surface:2")
    _, deg1 = full_report(p, chi, trivial_quotient(p), Q)
    assert deg1.vanishing and deg1.rank_over_frac == 2


def _random_commutator_presentation(rng, generators=2, relators=1, max_len=4):
    # Relators of the shape [u, v] have zero exponent sums in every
    # generator, so every integer character is a homomorphism.
    def rand_word():
        letters = [rng.choice([i for i in range(-generators, generators + 1) if i])
                   for _ in range(rng.randrange(1, max_len + 1))]
        return Word.of(letters)

    rels = []
    while len(rels) < relators:
        u, v = rand_word(), rand_word()
        r = u * v * u.inverse() * v.inverse()
        if not r.is_identity:
            rels.append(r)
    names = tuple(chr(ord("a") + i) for i in range(generators))
    return Presentation(names, tuple(rels))


def test_random_commutator_battery():
    # End-to-end fuzz over random one-relator commutator presentations:
    # rank route vs SNF route, and twisted vs untwisted orders for a small
    # quotient, must agree exactly.
    rng = random.Random(41)
    checked = 0
    for _ in range(25):
        p = _random_commutator_presentation(rng)
        chi = validate_character(p, [rng.randrange(-2, 3) for _ in range(p.generator_count)])
        if chi.is_zero:
            continue
        for field in (Q, F2):
            chain = _chain(p, chi, trivial_quotient(p), field)
            vanish, _ = h1_vanishing(chain)
            assert vanish == h1_order(chain).is_zero
        for q in enumerate_homs(p, cyclic_group(2))[:3]:
            q = restrict_to_image(p, q)
            twisted = full_report(p, chi, q, Q)[1]
            sub = rewrite_subgroup(p, q, chi)
            untwisted = full_report(sub.presentation, sub.restricted_character,
                                    trivial_quotient(sub.presentation), Q)[1]
            assert twisted.vanishing == untwisted.vanishing
            assert twisted.order == untwisted.order
            checked += 1
    assert checked >= 30


def test_minus_fold_and_b2_order_match_full_computation():
    # Two identities the scan relies on, on every kernel class up to order 4:
    # the minus-direction reports that `_scan_job` derives by t -> t^-1 equal
    # a full computation for the negated character, and ord H1 from SNF(b2)
    # equals the kernel-route order of the test oracle.
    from fibrecheck.fibring import ScanConfig, _quotient_stream, _scan_job
    from kernel_oracle import kernel_route_h1_order

    cases = [load_fixture(name) for name in
             ("bs:1:2", "trefoil", "klein", "f2xz", "zn:2", "surface:1")]
    trefoil, chi = load_fixture("trefoil")
    for recipe in ([(Word(), 0, 1), (Word(), 0, 1)], [(Word((1,)), 0, 1)]):
        cases.append((tietze_variant(trefoil, "redundant-relator", recipe=recipe), chi))
    checked = 0
    for p, chi in cases:
        cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=4)
        kept = [q for kind, q, _ in _quotient_stream(p, cfg) if kind == "kept"]
        for q in kept:
            for field in (Q, F2, F3):
                derived = _scan_job((p, chi, q, (field,)))[2:]
                computed = full_report(p, chi.negate(), q, field)
                assert derived == computed, (q.label(), field.name)
                chain = _chain(p, chi, restrict_to_image(p, q), field)
                assert h1_order(chain) == kernel_route_h1_order(chain), (q.label(), field.name)
                checked += 1
    assert checked == 300


_PROPERTY_TARGETS = [cyclic_group(m) for m in range(2, 7)] + [symmetric_group(3)]


@st.composite
def _presentations_with_quotient(draw):
    """2-3 generators, 1-2 short relators, each balanced to character sum 0
    by a power of a generator of character value +-1, and a homomorphism into
    Z/2..Z/6 or S3, onto it where one exists."""
    g = draw(st.integers(2, 3))
    values = draw(st.lists(st.integers(-2, 2), min_size=g, max_size=g))
    j = draw(st.integers(1, g))
    values[j - 1] = draw(st.sampled_from([-1, 1]))
    letters = st.sampled_from([x for i in range(1, g + 1) for x in (i, -i)])
    relators = []
    for _ in range(draw(st.integers(1, 2))):
        w = Word.of(draw(st.lists(letters, min_size=2, max_size=5)))
        k = -Character(tuple(values)).of_word(w) * values[j - 1]  # x_j^k balances w
        relators.append(Word.of(w.letters + (j if k > 0 else -j,) * abs(k)))
    p = Presentation(("a", "b", "c")[:g], tuple(relators))
    chi = validate_character(p, values)
    homs = enumerate_homs(p, draw(st.sampled_from(_PROPERTY_TARGETS)))
    return p, chi, draw(st.sampled_from([h for h in homs if h.surjective] or homs))


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_monomial_chain_matches_dense_oracle(field, data):
    # The chain fills b2 from one walk per relator; the oracle multiplies
    # dense generator matrices letter by letter for every Fox term.
    p, chi, q = data.draw(_presentations_with_quotient())
    rep = build_representation(p, chi, q)
    chain = chain_over(rep, field)
    dense = dense_chain(DenseRepresentation.of(rep, field), rep)
    assert to_dense(chain.b1) == dense.b1
    assert to_dense(chain.b2) == dense.b2


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_closed_form_h0_and_diagonal_h1_match_smith_oracle(field, data):
    # H0 from the walk over the image and H1 from the diagonal form of b2 agree
    # with the Smith forms of b1 and b2; the order route reads no rank.
    p, chi, q = data.draw(_presentations_with_quotient())
    chain = chain_over(build_representation(p, chi, q), field)
    n = chain.block_size
    snf_b1 = smith_normal_form(to_dense(chain.b1))
    with pytest.MonkeyPatch.context() as m:
        for method in ("rank_b1", "rank_b2"):
            m.setattr(TwistedChain, method, lambda c: pytest.fail("the order route read a rank"))
        d, rank_h0, order_h0 = _h0_closed_form(chain)
        order_h1 = h1_order(chain)
    assert rank_h0 == n - snf_b1.rank
    assert order_h0 == order_of(field, snf_b1, n)
    assert (rank_h0 == 0) == (d != 0)
    assert chain.rank_b1() == n - rank_h0
    assert order_h1 == order_of(field, smith_normal_form(to_dense(chain.b2)), chain.b1.rows - snf_b1.rank)
    assert order_h1 == order_h1.canonical()


def test_integral_phase_reads_as_each_fields_diagonal_form_on_random_chains():
    # b2 eliminated once over Z[t^{+-1}] and read over Q, F2, F3 and F5 gives
    # the rank and the canonical order of `diagonal_form` of b2 over that
    # field, and leaves the shared rows as they were; the phase stops on some
    # chains and not on others, and both must occur.  The per-example
    # deadline (ms) is a time budget: a chain on which the elimination over
    # Q runs away fails here instead of passing slowly.
    residuals = []

    @settings(max_examples=60, deadline=2000)
    @given(data=st.data())
    def check(data):
        p, chi, q = data.draw(_presentations_with_quotient())
        chain = integral_chain(p, chi, q)
        before = repr(chain.b2)
        phase = chain.b2_form()
        for field in (Q, F2, F3, F5):
            read, direct = phase.over(field), diagonal_form(chain.over(field).b2)
            assert read.rank == direct.rank
            assert all(d == d.canonical() for d in read.diagonal)
            assert order_of(field, read, read.rank) == order_of(field, direct, direct.rank)
        assert repr(chain.b2) == before
        residuals.append(bool(phase.residual))

    check()
    assert set(residuals) == {False, True}


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_minus_reports_match_the_negated_character_on_random_presentations(field, data):
    # `_scan_job` derives the reports of -chi from those of chi by t -> t^-1;
    # they must equal a full computation for -chi.
    from fibrecheck.fibring import _scan_job

    p, chi, q = data.draw(_presentations_with_quotient())
    assert _scan_job((p, chi, q, (field,)))[2:] == full_report(p, chi.negate(), q, field)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_tietze_moves_keep_verdicts_and_orders_on_random_presentations(field, data):
    # A redundant relator (a conjugate of a relator power) and a new generator
    # with its defining relator present the same group, with the same
    # character and quotient map: every vanishing verdict and canonical order
    # must stay the same.
    p, chi, q = data.draw(_presentations_with_quotient())
    letters = st.sampled_from([x for i in range(1, p.generator_count + 1) for x in (i, -i)])
    words = st.lists(letters, max_size=4).map(Word.of)
    base = [(r.vanishing, r.order) for r in full_report(p, chi, q, field)]

    defining = Word.of(data.draw(st.lists(letters, min_size=1, max_size=4)))
    extended = tietze_variant(p, "new-generator", name="d", defining=defining)
    chi_ext = validate_character(extended, list(chi.values) + [chi.of_word(defining)])
    q_ext = make_quotient(extended, q.group,
                          tuple(q.gen_images) + (q.group.word_image(defining, q.gen_images),))
    variants = [(extended, chi_ext, q_ext)]
    if p.relators:  # a drawn relator may reduce to the empty word
        recipe = [(data.draw(words), data.draw(st.integers(0, len(p.relators) - 1)),
                   data.draw(st.sampled_from([-2, -1, 1, 2])))]
        variants.append((tietze_variant(p, "redundant-relator", recipe=recipe), chi, q))
    for vp, vchi, vq in variants:
        assert [(r.vanishing, r.order) for r in full_report(vp, vchi, vq, field)] == base
