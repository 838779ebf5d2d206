import random

from fibrecheck.alexander import (
    build_chain,
    full_report,
    h0_report,
    h1_order,
    h1_vanishing,
)
from fibrecheck.fixtures import load_fixture
from fibrecheck.foxcalc import Representation, build_representation
from fibrecheck.polyalg import CoefficientField, LaurentPoly, PolyMatrix
from fibrecheck.quotients import (
    cyclic_group,
    enumerate_homs,
    make_quotient,
    restrict_to_image,
    same_kernel,
    symmetric_group,
    trivial_quotient,
)
from fibrecheck.reidschreier import rewrite_subgroup
from fibrecheck.words import Presentation, Word, parse_presentation, validate_character, tietze_variant

Q = CoefficientField.rationals()
F2 = CoefficientField.prime(2)
F3 = CoefficientField.prime(3)
F5 = CoefficientField.prime(5)


def poly(field, coeffs):
    return LaurentPoly.from_int_coeffs(field, coeffs)


def _transposed(rep: Representation) -> Representation:
    """The partner convention built on the left regular action.

    Generator i maps to t^{phi(x_i)} * transpose(P(alpha(x_i)^-1)); this is
    again a homomorphism, and cross-testing against it checks that vanishing
    and normalized orders do not depend on the side convention.
    """
    def shift_all(m: PolyMatrix, k: int) -> PolyMatrix:
        return PolyMatrix(rep.field, [[e.shifted(k) for e in row] for row in m.entries],
                          m.rows, m.cols)

    mats = [shift_all(m.transpose(), 2 * v)
            for m, v in zip(rep.inverses, rep.character.values)]
    invs = [shift_all(m.transpose(), -2 * v)
            for m, v in zip(rep.matrices, rep.character.values)]
    return Representation(rep.presentation, rep.character, rep.quotient, rep.field, mats, invs)


def _chain(p, chi, q, field=Q):
    rep = build_representation(p, chi, q, field)
    return build_chain(p, rep)


def test_build_chain_z():
    z, chi = load_fixture("zn:1")
    c = _chain(z, chi, trivial_quotient(z))
    assert c.b1 == PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -1}]])
    assert c.b2.rows == 0 and c.b2.cols == 1


def test_build_chain_bs12():
    p, chi = load_fixture("bs:1:2")
    c = _chain(p, chi, trivial_quotient(p))
    # phi(a) - 1 = 0, phi(t) - 1 = t - 1; Fox rows (t - 2, 0)
    assert c.b1 == PolyMatrix.from_int_rows(Q, [[0], [{1: 1, 0: -1}]])
    assert c.b2 == PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -2}, 0]])
    assert (c.b2 @ c.b1).is_zero


def test_build_chain_f2xz():
    p, chi = load_fixture("f2xz")
    c = _chain(p, chi, trivial_quotient(p))
    assert c.b1 == PolyMatrix.from_int_rows(Q, [[0], [0], [{1: 1, 0: -1}]])
    assert (c.b2 @ c.b1).is_zero


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
        rep = build_representation(p, chi, q, Q)
        c1 = build_chain(p, rep)
        c2 = build_chain(p, _transposed(rep))
        assert h1_vanishing(c1) == h1_vanishing(c2)
        assert h1_order(c1) == h1_order(c2)


def test_order_ceiling_skips_snf():
    p, chi = load_fixture("bs:1:2")
    deg0, deg1 = full_report(p, chi, trivial_quotient(p), Q, order_ceiling=1)
    assert deg1.order_skipped and deg1.order is None
    assert not deg1.vanishing  # rank route still decides


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
                derived = _scan_job((p, chi, q, field, cfg.order_ceiling))[2:]
                computed = full_report(p, chi.negate(), q, field)
                assert derived == computed, (q.label(), field.name)
                chain = _chain(p, chi, restrict_to_image(p, q), field)
                assert h1_order(chain) == kernel_route_h1_order(chain), (q.label(), field.name)
                checked += 1
    assert checked == 300
