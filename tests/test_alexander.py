import io
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import alexander
from fibrecheck.alexander import (
    InternalCheckError,
    TwistedChain,
    chain_reports,
    full_report,
    h0_report,
    h1_vanishing,
    integral_chain,
)
from fibrecheck.fixtures import load_fixture
from fibrecheck.foxcalc import Representation, build_representation
from fibrecheck.polyalg import (
    CoefficientField,
    IntegralDiagonal,
    LaurentPoly,
    diagonal_form,
    rank_over_fraction_field,
)
from fibrecheck.quotients import (
    cyclic_group,
    enumerate_homs,
    make_quotient,
    symmetric_group,
    trivial_quotient,
)
from fibrecheck.reidschreier import rewrite_subgroup
from fibrecheck.words import (
    Presentation,
    Word,
    automorphisms,
    parse_presentation,
    render_presentation,
    validate_character,
)
from dense_oracle import (DenseRepresentation, PolyMatrix, chain_over, dense_chain, evaluate, h1_order,
                          image_elements, to_dense)
from free_group_oracle import GroupRingElement, fox_derivative, inverse, product, tietze_variant
from quotient_oracle import same_kernel
from random_presentations import (PROPERTY_TARGETS, presentations_with_quotient,
                                  product_presentations_with_quotient,
                                  symmetric_presentations_with_quotient)
from smith_oracle import order_of, rank_of, smith_normal_form

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
    return DenseRepresentation(field, rep.action.order, mats, invs)


def _chain(p, chi, q, field=Q):
    return chain_over(build_representation(p, chi, q), field)


def _oracle_b1(rep: Representation, field) -> PolyMatrix:
    """b1 as the dense oracle writes it out; the chain keeps only its shape."""
    return dense_chain(DenseRepresentation.of(rep, field), rep)[1]


def _chain_and_oracle_b1(p, chi, q, field=Q):
    rep = build_representation(p, chi, q)
    c = chain_over(rep, field)
    b1 = _oracle_b1(rep, field)
    assert (c.b1.field, c.b1.rows, c.b1.cols) == (field, b1.rows, b1.cols)
    return c, b1


def test_build_chain_z():
    z, chi = load_fixture("zn:1")
    c, b1 = _chain_and_oracle_b1(z, chi, trivial_quotient(z))
    assert b1 == PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -1}]])
    assert c.b2.rows == 0 and c.b2.cols == 1


def test_build_chain_bs12():
    p, chi = load_fixture("bs:1:2")
    c, b1 = _chain_and_oracle_b1(p, chi, trivial_quotient(p))
    # phi(a) - 1 = 0, phi(t) - 1 = t - 1; Fox rows (t - 2, 0)
    b2 = to_dense(c.b2)
    assert b1 == PolyMatrix.from_int_rows(Q, [[0], [{1: 1, 0: -1}]])
    assert b2 == PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -2}, 0]])
    assert (b2 @ b1).is_zero


def test_build_chain_f2xz():
    p, chi = load_fixture("f2xz")
    c, b1 = _chain_and_oracle_b1(p, chi, trivial_quotient(p))
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


def test_schreier_tree_walks_once_per_integral_chain(monkeypatch):
    # d of H0's closed form and the tree that the order route collapses come
    # from one walk of the image's Schreier tree when the integral chain is
    # built; the chains over F2, F3 and Q read both from there and walk
    # nothing, in either order of the fields.
    from fibrecheck import quotients

    calls = []
    monkeypatch.setattr(alexander, "schreier_tree",
                        lambda *args: calls.append(args) or quotients.schreier_tree(*args))
    p, chi = load_fixture("f2xz")
    for q in [trivial_quotient(p)] + [h for h in enumerate_homs(p, symmetric_group(3))
                                      if h.surjective][:2]:
        for fields in ((F2, F3, Q), (Q, F3, F2)):
            calls.clear()
            chain = integral_chain(p, chi, q)
            for field in fields:
                chain_reports(chain.over(field))
            assert len(calls) == 1, (q.label(), fields)


def test_rational_f2xz_chains_hold_int_coefficients():
    # Over Q the Fox data is integral and every pivot of these chains is a
    # unit or monic, so b2 and its diagonal hold ints only; a Fraction(n)
    # coefficient, equal to n but built at a cost, fails here.
    from fibrecheck.fibring import ScanConfig, _quotient_stream

    p, chi = load_fixture("f2xz")
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=4)
    kept = [q for kind, q, _ in _quotient_stream(p, cfg) if kind == "kept"]
    checked = 0
    for q in kept:
        for c in (chi, chi.negate()):
            chain = _chain(p, c, q)
            polys = [e for row in to_dense(chain.b2).entries for e in row]
            polys += diagonal_form(chain.b2)
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
                c = _chain(p, chi, q, field)
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
        c2, b1 = dense_chain(_transposed(rep, Q), rep)
        assert (c2.b2 @ b1).is_zero
        assert h1_vanishing(c1) == h1_vanishing(c2)
        assert h1_order(c1) == h1_order(c2)


def test_cross_check_failure_names_its_inputs(monkeypatch):
    # A wrong rank of b2 makes the two degree-1 routes disagree, also on the
    # 99 x 33 b1 of f2xz at Z/33, where the check must still run.  The
    # message names the unit minor of b1 that gives its rank, the route of
    # the rank of b2 where it was computed, with the shape of b2 less that
    # minor's column block, which is what the rank of b2 reads, and how many
    # diagonal entries of b2 came from Z; over Q after F2, the rank of b2 is
    # inherited from F2's certificate, so a wrong order route is what makes
    # them disagree there: F2 has taken the integral diagonal form of b2 and
    # its product, and Q's order from them is made zero.  The message still
    # names the diagonal of b2, which only the failure builds over the field.
    trefoil, trefoil_chi = load_fixture("trefoil")
    f2xz, f2xz_chi = load_fixture("f2xz")
    cases = [
        (trefoil, trefoil_chi, make_quotient(trefoil, symmetric_group(3), (2, 1)),
         "quotient: S3 (order 6), images [2, 1]", "b1: 12x6, b2: 6x12",
         "by the minor of block 0, t^1 P - I", "b2 less column block 0 (6x6)"),
        (f2xz, f2xz_chi, make_quotient(f2xz, cyclic_group(33), (1, 0, 0)),
         "quotient: Z/33 (order 33), images [1, 0, 0]", "b1: 99x33, b2: 66x99",
         "by the minor of block 2, t^1 P - I", "b2 less column block 2 (66x66)"),
    ]
    for p, chi, q, quotient_line, shapes, minor, rest in cases:
        with monkeypatch.context() as m:
            m.setattr(TwistedChain, "rank_b2", lambda chain: 0)
            with pytest.raises(InternalCheckError) as err:
                full_report(p, chi, q, Q)
        msg = str(err.value)
        assert "degree-1 cross-check failed" in msg
        assert render_presentation(p).replace("\n", " | ") in msg
        assert quotient_line in msg and shapes in msg and "diagonal of b2: [1, " in msg
        assert "PolyMatrix(" not in msg
        n = q.group.order
        assert f"({(p.generator_count - 1) * n} entries from Z, no residual)" in msg
        assert [line for line in msg.splitlines() if line.startswith("rank of")] == [
            f"rank of b1: {n} {minor}"]

        chain = integral_chain(p, chi, q)
        chain_reports(chain.over(F2))
        with monkeypatch.context() as m:
            m.setattr(IntegralDiagonal, "order", lambda form, field, rank: LaurentPoly.zero(field))
            with pytest.raises(InternalCheckError) as err:
                chain_reports(chain.over(Q))
        msg = str(err.value)
        assert "degree-1 cross-check failed" in msg and "field: Q" in msg and shapes in msg
        assert "order: 0" in msg and "diagonal of b2: [1, " in msg
        assert f"({(p.generator_count - 1) * n} entries from Z, no residual)" in msg
        assert [line for line in msg.splitlines() if line.startswith("rank of")] == [
            f"rank of b1: {n} {minor}",
            f"rank of b2: {(p.generator_count - 1) * n} inherited from the F2 certificate, read on {rest}"]

    # At Z/10 with images (2, 5, 7) the elimination over Z of b2 (20 x 30)
    # less its 9 tree columns stops and leaves two rows in 3 columns for
    # each field to finish.
    with monkeypatch.context() as m:
        m.setattr(TwistedChain, "rank_b2", lambda chain: 0)
        with pytest.raises(InternalCheckError) as err:
            full_report(f2xz, f2xz_chi, make_quotient(f2xz, cyclic_group(10), (2, 5, 7)), Q)
    assert "(18 entries from Z, residual 2x3 finished over Q)" in str(err.value)


@pytest.mark.parametrize("values, d, chi_is", [((1, 0, 0), 0, "nonzero"), ((0, 0, 0), 1, "zero")],
                         ids=["d-zero-at-nonzero-chi", "d-nonzero-at-zero-chi"])
def test_a_schreier_walk_that_disagrees_with_chi_fails_the_degree_0_check(monkeypatch, values,
                                                                          d, chi_is):
    # chi(ker alpha) = dZ has finite index in chi(G) for a finite image, so
    # d = 0 exactly when chi = 0.  A walk that gives d = 0 for a nonzero chi,
    # or d != 0 at chi = 0, aborts the run: the message names the walk's d
    # and the minor of b1, or that there is none, and ends in an `alex`
    # line that reproduces the report; `alex` exits 3.
    p, _ = load_fixture("f2xz")
    chi = validate_character(p, list(values))
    q = make_quotient(p, cyclic_group(4), (1, 0, 0))
    walk = alexander._schreier_walk
    monkeypatch.setattr(alexander, "_schreier_walk", lambda rep: (d, walk(rep)[1]))
    with pytest.raises(InternalCheckError) as err:
        full_report(p, chi, q, Q)
    lines = str(err.value).splitlines()
    assert lines[0] == f"degree-0 check failed: the Schreier walk gives d = {d}, but chi is {chi_is}"
    assert f"d: {d}" in lines
    assert [line for line in lines if line.startswith("rank of")] == [
        "rank of b1: 4 by the minor of block 0, t^1 P - I" if any(values)
        else "rank of b1: 3 by the Schreier tree of the image, |Q| - 1"]
    assert lines[-1] == "reproduce: " + alexander._alex_command(p, chi, q, Q)
    assert lines[-1].endswith("--quotient 'z4:1,0,0' --field q")

    from fibrecheck import cli

    char = ",".join(f"{x}={v}" for x, v in zip(p.generator_names, values))
    assert cli.main(["alex", "--fixture", "f2xz", "--char", char, "--quotient", "z4:1,0,0",
                     "--field", "q"], out=io.StringIO()) == 3


def test_q_decides_for_itself_where_a_prime_falls_short(monkeypatch):
    # <a, t | a^2> at the trivial quotient: b2 is the 1 x 2 row (2, 0), and
    # b1's block of t is t - 1, a unit minor, so rank b1 is 1 over every field
    # and rank b2 is read on b2 less column block 1, the 1 x 1 matrix (2): of
    # rank 0 over F2, short of its upper bound 1.  That certificate proves
    # nothing over Q, which runs its own bound for b2, once, and finds rank 1;
    # b1 is never bounded, and only a field that proves b2's full rank is
    # recorded, so neither F2 nor Q records one.
    p = parse_presentation("gens: a t\nrels: a^2\n")
    chain = integral_chain(p, validate_character(p, [0, 1]), trivial_quotient(p))
    assert chain.minor == (1, 1)
    over_f2 = chain.over(F2)
    assert (over_f2.rank_b1(), over_f2.rank_b2()) == (1, 0)
    assert chain.proved is None
    bound, calls = alexander.rank_lower_bound, []
    monkeypatch.setattr(alexander, "rank_lower_bound",
                        lambda m: calls.append((m.field, m.rows, m.cols)) or bound(m))
    over_q = chain.over(Q)
    assert (over_q.rank_b1(), over_q.rank_b2()) == (1, 1)
    assert calls == [(Q, 1, 1)]
    assert [r.vanishing for r in chain_reports(over_q)] == [False, False]
    assert chain.proved is None  # Q records nothing


@pytest.mark.parametrize("values, minor", [((0, 0, -2), (2, -2)), ((1, 0, 1), (0, 1))],
                         ids=["trivial-image", "two-blocks"])
def test_unit_minor_of_b1_and_rank_of_b2_less_its_column_block(values, minor):
    # f2xz at Z/4 with images (1, 0, 0).  With chi = (0, 0, -2) the only
    # nonzero value sits on z, whose image is trivial, so its block of b1 is
    # (t^-2 - 1) I; with chi = (1, 0, 1) the blocks of a and z both qualify,
    # and the first is taken.  The rows of b2 less that column block are made
    # once and share b2's entry dicts; both ranks are Bareiss's ranks of the
    # full b1, as the dense oracle writes it out, and b2 over every field,
    # and b2 @ b1 = 0 there.
    p, _ = load_fixture("f2xz")
    chain = integral_chain(p, validate_character(p, list(values)),
                           make_quotient(p, cyclic_group(4), (1, 0, 0)))
    assert chain.minor == minor
    k, s = minor
    rest = chain.b2_less()
    assert rest is chain.b2_less() and len(rest) == 8
    entries = {id(f) for row in chain.b2 for f in row.values()}
    assert all(j < 8 and id(f) in entries for row in rest for j, f in row.items())
    for field in (F2, F3, F5, Q):
        c = chain.over(field)
        b1 = _oracle_b1(chain.representation, field)
        assert c.rank_b1() == rank_over_fraction_field(b1) == 4
        assert c.rank_b2() == rank_over_fraction_field(c.b2)
        assert (to_dense(c.b2) @ b1).is_zero
        assert c._rank_b2[1].endswith(f", read on b2 less column block {k} (8x8)")


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
        r = product(u, v, inverse(u), inverse(v))
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
                assert [r.as_dict(p) for r in derived] == [r.as_dict(p) for r in computed], \
                    (q.label(), field.name)
                chain = _chain(p, chi, q, field)
                assert h1_order(chain) == kernel_route_h1_order(chain), (q.label(), field.name)
                checked += 1
    assert checked == 300


def _assert_reports_agree_across_an_orbit(p, chi, q, sigma, fields):
    """sigma, a map that `automorphisms` keeps, fixes chi and induces an
    automorphism of the group, so q o sigma kills every relator and has the
    same ranks and canonical orders as q, for chi and for -chi: what a scan
    reuses for every quotient of an orbit, computed directly."""
    assert [chi.of_word(Word(w)) for w in sigma] == list(chi.values)
    images = tuple(q.group.word_image(Word(w), q.gen_images) for w in sigma)
    moved = make_quotient(p, q.group, images)  # checks that q o sigma kills every relator
    assert moved.surjective == q.surjective
    for field in fields:
        for c in (chi, chi.negate()):
            assert ([(r.degree, r.vanishing, r.rank_over_frac, r.order)
                     for r in full_report(p, c, moved, field)]
                    == [(r.degree, r.vanishing, r.rank_over_frac, r.order)
                        for r in full_report(p, c, q, field)]), (sigma, q.label(), field.name)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_reports_agree_across_an_orbit_of_a_symmetry(field, data):
    # A symmetric presentation is closed under a drawn signed transposition,
    # which must be among the maps found.
    p, chi, q, sigma = data.draw(symmetric_presentations_with_quotient())
    sigma = tuple((x,) for x in sigma)
    assert sigma in automorphisms(p, chi)
    _assert_reports_agree_across_an_orbit(p, chi, q, sigma, (field,))


@settings(max_examples=30)
@given(data=st.data())
def test_reports_agree_across_an_orbit_of_a_nielsen_move(data):
    # Every map found, signed or a move, over F2, F3 and Q.  Half the
    # presentations are random, where a move is kept mostly on a generator
    # that no relator contains; half are products of free, surface and
    # cyclic groups, where every one of them has a move.
    product = data.draw(st.booleans())
    p, chi, q = data.draw(product_presentations_with_quotient() if product
                          else presentations_with_quotient())
    maps = automorphisms(p, chi)
    assert any(max(map(len, sigma)) > 1 for sigma in maps) or not product
    for sigma in maps:
        _assert_reports_agree_across_an_orbit(p, chi, q, sigma, (F2, F3, Q))


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_monomial_chain_matches_dense_oracle(field, data):
    # The chain fills b2 from one walk per relator and keeps only b1's shape;
    # the oracle multiplies dense generator matrices letter by letter for
    # every Fox term, and writes b1 out, against which b2 @ b1 = 0.
    p, chi, q = data.draw(presentations_with_quotient())
    rep = build_representation(p, chi, q)
    chain = chain_over(rep, field)
    dense, b1 = dense_chain(DenseRepresentation.of(rep, field), rep)
    assert (chain.b1.field, chain.b1.rows, chain.b1.cols) == (field, b1.rows, b1.cols)
    assert to_dense(chain.b2) == dense.b2
    assert (dense.b2 @ b1).is_zero


def _assert_rows_match_the_table_oracle(p, chi, q):
    """b2 of the chain, read off the image's action, and b1 of the dense
    oracle, against the Fox derivatives evaluated over the target's table by
    `evaluate`, on the image's elements in ascending ambient id."""
    rep = build_representation(p, chi, q)
    chain = chain_over(rep, Q)
    one = GroupRingElement.of_word(Word())
    b1 = PolyMatrix.vstack([evaluate(rep, GroupRingElement.of_word(Word((i,))) - one, Q)
                            for i in range(1, p.generator_count + 1)])
    b2 = PolyMatrix.vstack([PolyMatrix.hstack([evaluate(rep, fox_derivative(r, i), Q)
                                               for i in range(1, p.generator_count + 1)])
                            for r in p.relators] or [PolyMatrix.zeros(Q, 0, b1.rows)])
    assert _oracle_b1(rep, Q) == b1, q.label()
    assert (chain.b1.rows, chain.b1.cols) == (b1.rows, b1.cols)
    assert to_dense(chain.b2) == b2, q.label()


@settings(max_examples=40)
@given(data=st.data())
def test_chain_rows_match_the_table_oracle_on_any_image(data):
    # Any homomorphism into S4 or a property target, onto it or not, so
    # images such as D4, A4 and S3 in S4 are drawn too.
    p, chi, q = data.draw(presentations_with_quotient(PROPERTY_TARGETS + [symmetric_group(4)],
                                                      onto=False))
    _assert_rows_match_the_table_oracle(p, chi, q)


def test_chain_rows_match_the_table_oracle_on_every_subgroup_of_s4_that_f2xz_reaches():
    # One homomorphism of f2xz into S4 per image: every order from 1 to 24
    # that a subgroup of S4 has, D4, A4 and S3 among them.
    p, chi = load_fixture("f2xz")
    s4 = symmetric_group(4)
    images = {}
    for q in enumerate_homs(p, s4):
        images.setdefault(tuple(image_elements(q)), q)
    assert {len(e) for e in images} == {1, 2, 3, 4, 6, 8, 12, 24}
    for q in images.values():
        _assert_rows_match_the_table_oracle(p, chi, q)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_closed_form_h0_and_diagonal_h1_match_smith_oracle(field, data):
    # H0 in closed form from the walk over the image and H1 from the diagonal
    # form of b2 agree with the Smith forms of the oracle's b1 and of b2;
    # neither reads rank b2, only the identity for rank b1.
    p, chi, q = data.draw(presentations_with_quotient())
    rep = build_representation(p, chi, q)
    chain = chain_over(rep, field)
    n = chain.block_size
    snf_b1 = smith_normal_form(_oracle_b1(rep, field))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(TwistedChain, "rank_b2", lambda c: pytest.fail("H0 or the order route read rank b2"))
        h0 = h0_report(chain)
        order_h1 = h1_order(chain)
    assert h0.rank_over_frac == n - rank_of(snf_b1) == (chain.integral.d == 0)
    assert h0.order == order_of(field, snf_b1, n)
    assert chain.rank_b1() == rank_of(snf_b1)
    assert order_h1 == order_of(field, smith_normal_form(to_dense(chain.b2)), chain.b1.rows - rank_of(snf_b1))
    assert order_h1 == order_h1.canonical()


def _reads_as_each_fields_diagonal_form(chain) -> bool:
    """Check b2 eliminated once over Z[t^{+-1}] against `diagonal_form` of b2
    over Q, F2, F3 and F5, each taken by itself; whether a residual is left.

    Read over a field, the phase gives the rank and the canonical order of
    that field's diagonal form, and its order, the product of D's entries
    over Z reduced into the field with R's entries multiplied in, is the
    canonical product of the nonzero entries there, and zero at any other
    rank.  The shared rows are left as they were.
    """
    before = repr(chain.b2)
    phase = chain.b2_form()
    for field in (Q, F2, F3, F5):
        read, direct = phase.entries(field), diagonal_form(chain.over(field).b2)
        assert len(read) == len(direct)
        assert all(d == d.canonical() for d in read)
        assert order_of(field, read, len(read)) == order_of(field, direct, len(direct))
        for rank in (len(direct), len(direct) + 1):
            assert phase.order(field, rank) == order_of(field, direct, rank)
    assert repr(chain.b2) == before
    return bool(phase.residual)


@pytest.mark.parametrize("zero", [False, True], ids=["chi", "zero-chi"])
@settings(max_examples=40, deadline=2000)
@given(data=st.data())
def test_b2_less_the_schreier_tree_has_the_invariant_factors_of_b2(zero, data):
    # The order route eliminates b2 less the columns of the image's Schreier
    # tree.  With e_0, the rows of b1 at the tree's edges are a unitriangular
    # basis of C0, so b2 @ b1 = 0 makes b2 equivalent over Z[t^{+-1}] to that
    # matrix and n - 1 zero columns, for any character and any image, onto
    # its target or not.  Over Q, F2 and F3 both have diagonal forms of the
    # same rank and the same canonical order, and the order that the route
    # reads off its form is the Smith oracle's order of the full b2.
    p, chi, q = data.draw(presentations_with_quotient(onto=False))
    if zero:
        chi = validate_character(p, [0] * p.generator_count)
    chain = integral_chain(p, chi, q)
    n = chain.representation.action.order
    assert len(set(chain.tree)) == n - 1
    phase = chain.b2_form()
    for field in (Q, F2, F3):
        b2 = to_dense(chain.over(field).b2)
        less = PolyMatrix(field, [[e for j, e in enumerate(row) if j not in chain.tree]
                                  for row in b2.entries], b2.rows, b2.cols - (n - 1))
        full, collapsed = diagonal_form(b2), diagonal_form(less)
        assert len(full) == len(collapsed)
        assert order_of(field, full, len(full)) == order_of(field, collapsed, len(collapsed))
        snf = smith_normal_form(b2)
        for rank in (rank_of(snf), rank_of(snf) + 1):
            assert phase.order(field, rank) == order_of(field, snf, rank)


def test_integral_phase_reads_as_each_fields_diagonal_form_on_random_chains():
    # The phase stops on some chains and not on others, and both must occur.
    # The per-example deadline (ms) is a time budget: a chain on which the
    # elimination over Q runs away fails here instead of passing slowly.
    residuals = []

    @settings(max_examples=60, deadline=2000)
    @given(data=st.data())
    def check(data):
        p, chi, q = data.draw(presentations_with_quotient())
        residuals.append(_reads_as_each_fields_diagonal_form(integral_chain(p, chi, q)))

    check()
    assert set(residuals) == {False, True}


def test_integral_phase_reads_as_each_fields_diagonal_form_where_it_stops():
    # f2xz at a=1, b=2, z=3 to order 10 runs 677 jobs, and the elimination
    # over Z of b2 less the tree's columns stops on 27 of them, each leaving
    # 2 or 3 rows of R that every field finishes and multiplies into the
    # product of D.  The count follows the pivot order, not the algebra:
    # the unit sweep, shortest rows first, leaves fewer remainders of top
    # coefficient 2 than pivoting one least-span entry at a time did (31).
    from fibrecheck.fibring import ScanConfig, _quotient_stream

    p, _ = load_fixture("f2xz")
    chi = validate_character(p, [1, 2, 3])
    cfg = ScanConfig(presentation=p, character=chi, max_quotient_order=10)
    chains = [integral_chain(p, chi, q) for kind, q, rep in _quotient_stream(p, cfg)
              if kind == "kept" and rep is None]
    stopped = [c for c in chains if c.b2_form().residual]
    assert (len(chains), len(stopped)) == (677, 27)
    assert all(_reads_as_each_fields_diagonal_form(c) for c in stopped)


def test_a_passing_scan_builds_no_diagonal_form_of_b2(monkeypatch):
    # The order route reads the product of D over Z into each field; b2 is
    # read over a field only for the diagnostic of a failed check.  So the
    # default f2xz scan to order 4 over F2, F3 and Q builds no diagonal form
    # over a field and multiplies no two Laurent polynomials, and the scan at
    # a=1, b=2, z=3 to order 10 finishes only each residual R, of 2 or 3
    # rows, by `diagonal_form`: 27 chains over 3 fields.
    import hashlib
    import io

    from fibrecheck import polyalg
    from fibrecheck.cli import main

    products, forms = [], []
    mul, form = LaurentPoly.__mul__, polyalg.diagonal_form
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(polyalg, "diagonal_form", lambda m: forms.append(m.rows) or form(m))
    monkeypatch.setattr(IntegralDiagonal, "entries", lambda phase, field: pytest.fail("b2 read over a field"))
    for char, order, digest, residuals in (
            ("a=0,b=0,z=1", "4", "4442d173e2d1b4b3c3bb5ec94e55ceb8a59ab5f4197a49ebe3b428abea84083d", 0),
            ("a=1,b=2,z=3", "10", "420536e59d8fc0400dfb9e8e134f06d8c61a70aba7884f39deb08d0be802f8f5", 81)):
        products.clear()
        forms.clear()
        out = io.StringIO()
        assert main(["scan", "--fixture", "f2xz", "--char", char, "--max-quotient-order", order], out) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
        assert len(forms) == residuals and set(forms) <= {2, 3}
        assert bool(products) == bool(residuals)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_minus_reports_match_the_negated_character_on_random_presentations(field, data):
    # `_scan_job` derives the reports of -chi from those of chi by t -> t^-1;
    # they must equal a full computation for -chi.
    from fibrecheck.fibring import _scan_job

    p, chi, q = data.draw(presentations_with_quotient())
    derived, computed = _scan_job((p, chi, q, (field,)))[2:], full_report(p, chi.negate(), q, field)
    assert [r.as_dict(p) for r in derived] == [r.as_dict(p) for r in computed]


@pytest.mark.parametrize("field", [Q, F2, F3], ids=lambda f: f.name)
@settings(max_examples=30)
@given(data=st.data())
def test_tietze_moves_keep_verdicts_and_orders_on_random_presentations(field, data):
    # A redundant relator (a conjugate of a relator power) and a new generator
    # with its defining relator present the same group, with the same
    # character and quotient map: every vanishing verdict and canonical order
    # must stay the same.
    p, chi, q = data.draw(presentations_with_quotient())
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


@pytest.mark.parametrize("zero", [False, True], ids=["chi", "zero-chi"])
@settings(max_examples=30)
@given(data=st.data())
def test_certified_ranks_are_those_of_the_full_matrices(zero, data):
    # With chi != 0, rank b1 is |Q| by the unit minor that chi gives and rank
    # b2 is read on b2 less one column block; with chi = 0 there is no such
    # minor, rank b1 is |Q| - 1 and rank b2 is read on the full b2.  Either
    # way, over F2, F3, F5 and then Q, which may inherit a prime's
    # certificate, they are Bareiss's ranks of the full b1, which the dense
    # oracle writes out, and b2, and b2 @ b1 = 0.  And d of the closed form of H0,
    # with dZ = chi(ker alpha), is the gcd of the character that
    # Reidemeister-Schreier restricts to the kernel.
    p, chi, q = data.draw(presentations_with_quotient())
    if zero:
        chi = validate_character(p, [0] * p.generator_count)
    chain = integral_chain(p, chi, q)
    assert chain.minor is None if zero else chi.values[chain.minor[0]] == chain.minor[1] != 0
    assert chain.d == gcd(*rewrite_subgroup(p, q, chi).restricted_character.values)
    for field in (F2, F3, F5, Q):
        c = chain.over(field)
        b1 = _oracle_b1(chain.representation, field)
        assert c.rank_b1() == rank_over_fraction_field(b1) == c.block_size - zero
        assert c.rank_b2() == rank_over_fraction_field(c.b2)
        assert (to_dense(c.b2) @ b1).is_zero
