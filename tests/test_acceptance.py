"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All polynomial comparisons are exact (zero tolerance); the only tolerances
are the stated wall-clock budgets.
"""

import functools
import io
import itertools
import time

from fibrecheck.alexander import InternalCheckError, full_report, h1_vanishing
from fibrecheck.fibring import ScanConfig, product_vanishing_test, scan
from fibrecheck.fixtures import load_fixture
from fibrecheck.foxcalc import build_representation
from fibrecheck.polyalg import CoefficientField, LaurentPoly
from fibrecheck.quotients import (
    cyclic_group,
    enumerate_homs,
    image_closure,
    restrict_to_image,
    symmetric_group,
    trivial_quotient,
)
from fibrecheck.reidschreier import rewrite_subgroup
from fibrecheck.words import Word, validate_character
from dense_oracle import chain_over, h1_order
from free_group_oracle import tietze_variant
from quotient_oracle import same_kernel

Q = CoefficientField.rationals()
F2 = CoefficientField.prime(2)
F3 = CoefficientField.prime(3)
F5 = CoefficientField.prime(5)


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {summary}")
                raise
            print(f"criterion {number:2d}: PASS  {summary}")
        return run
    return wrap


def poly(field, coeffs):
    return LaurentPoly.from_int_coeffs(field, coeffs)


@criterion(1, "BS(1,2) trivial-quotient orders: t-2 over Q, t+1 over F3, deg0 t-1, <1s")
def test_criterion_1_bs12_orders():
    # Hand Fox-calculus oracle for r = t a t^-1 a^-2 with phi(a)=0, phi(t)=1:
    #   dr/da = t - (t a t^-1 a^-1) - (t a t^-1 a^-2)
    #         |-> t^1 - t^(1+0-1-0) - t^(1+0-1-0-0) = t - 1 - 1 = t - 2
    #   dr/dt = 1 - (t a t^-1)     |-> 1 - t^(1+0-1) = 0
    # so b1 = (phi(a)-1, phi(t)-1)^T = (0, t-1)^T and b2 = (t-2, 0):
    #   H0 = coker(b1) has order t - 1,
    #   H1 = ker(b1)/im(b2) = <(1,0)> / (t-2)<(1,0)> has order t - 2;
    # over F3 the coefficient -2 is 1, giving t + 1.
    p, chi = load_fixture("bs:1:2")
    start = time.perf_counter()
    deg0_q, deg1_q = full_report(p, chi, trivial_quotient(p), Q)
    _, deg1_f3 = full_report(p, chi, trivial_quotient(p), F3)
    elapsed = time.perf_counter() - start
    assert deg1_q.order == poly(Q, {1: 1, 0: -2})
    assert deg1_f3.order == poly(F3, {1: 1, 0: 1})
    assert deg0_q.order == poly(Q, {1: 1, 0: -1})
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(2, "BS(1,2) scan to order 12 over F2,F3,Q: no obstruction, <10s")
def test_criterion_2_bs12_scan():
    p, chi = load_fixture("bs:1:2")
    start = time.perf_counter()
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=12,
                        fields=(F2, F3, Q)))
    elapsed = time.perf_counter() - start
    assert v.status == "no_obstruction_up_to" and v.bound == 12
    assert sum(1 for r in v.reports if r.vanishing) == 0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion(3, "trefoil: order t^2-t+1; scan to 6 clean and S3 epimorphism tested")
def test_criterion_3_trefoil():
    p, chi = load_fixture("trefoil")
    _, deg1 = full_report(p, chi, trivial_quotient(p), Q)
    assert deg1.order == poly(Q, {2: 1, 1: -1, 0: 1})
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=6))
    assert v.status == "no_obstruction_up_to"
    s3_tested = [q for q in v.tested_quotients if q.group.name == "S3" and q.surjective]
    assert s3_tested, "S3 epimorphism missing from the tested quotients"


@criterion(4, "Klein bottle: order t+1 over Q; nonvanishing for all quotients of order <= 8")
def test_criterion_4_klein():
    p, chi = load_fixture("klein")
    _, deg1 = full_report(p, chi, trivial_quotient(p), Q)
    assert deg1.order == poly(Q, {1: 1, 0: 1})
    v = scan(ScanConfig(presentation=p, character=chi, max_quotient_order=8))
    assert v.status == "no_obstruction_up_to"
    assert all(not r.vanishing for r in v.reports)


@criterion(5, "F2xZ: z-projection order (t-1)^2 over Q and F5, scan to 8 clean; "
              "a-character obstructed at the trivial quotient")
def test_criterion_5_f2xz():
    p, chi_z = load_fixture("f2xz")
    square = {2: 1, 1: -2, 0: 1}
    for field in (Q, F5):
        _, deg1 = full_report(p, chi_z, trivial_quotient(p), field)
        assert deg1.order == poly(field, square)
    v = scan(ScanConfig(presentation=p, character=chi_z, max_quotient_order=8), jobs=2)
    assert v.status == "no_obstruction_up_to"

    chi_a = validate_character(p, [1, 0, 0])
    v = scan(ScanConfig(presentation=p, character=chi_a, max_quotient_order=8))
    assert v.status == "obstructed"
    assert v.witness.quotient.group.name == "trivial"
    assert v.witness.rank_over_frac == 1
    assert any("not FP1-semi-fibred; kernel not finitely generated" in line
               for line in v.interpretation)


def _kernel_classes(p, max_order, cap=None):
    kept = [trivial_quotient(p)]
    for m in range(2, max_order + 1):
        for hom in enumerate_homs(p, cyclic_group(m)):
            if not any(same_kernel(p, hom, k) for k in kept):
                kept.append(hom)
    if max_order >= 6:
        for hom in enumerate_homs(p, symmetric_group(3)):
            if not any(same_kernel(p, hom, k) for k in kept):
                kept.append(hom)
    return kept[:cap] if cap else kept


@criterion(6, "untwisting: >= 20 (fixture, quotient) triples match the "
              "Reidemeister-Schreier subgroup order exactly")
def test_criterion_6_untwisting():
    triples = []
    for name, cap in (("bs:1:2", None), ("trefoil", None), ("klein", None), ("f2xz", 5)):
        p, chi = load_fixture(name)
        for q in _kernel_classes(p, 6, cap=cap):
            triples.append((name, p, chi, q))
    assert len(triples) >= 20, f"only {len(triples)} triples"
    for name, p, chi, q in triples:
        twisted = full_report(p, chi, q, Q)[1]
        sub = rewrite_subgroup(p, q, chi)
        untwisted = full_report(sub.presentation, sub.restricted_character,
                                trivial_quotient(sub.presentation), Q)[1]
        assert twisted.vanishing == untwisted.vanishing, (name, q.label())
        assert twisted.order == untwisted.order, (name, q.label())


@criterion(7, "rank route and SNF route agree on every computed instance; "
              "a forced disagreement exits with code 3")
def test_criterion_7_route_agreement():
    instances = 0
    for name in ("bs:1:2", "trefoil", "klein", "f2xz", "zn:2", "surface:1", "f:2"):
        p, chi = load_fixture(name)
        for q in _kernel_classes(p, 4):
            for field in (Q, F2, F3):
                chain = chain_over(build_representation(
                    p, chi, restrict_to_image(p, q)), field)
                vanish, _ = h1_vanishing(chain)
                assert vanish == h1_order(chain).is_zero, (name, q.label(), field.name)
                instances += 1
    assert instances >= 60

    # The CLI maps an internal cross-check failure to exit code 3.
    import fibrecheck.cli as cli

    def boom(*args, **kwargs):
        raise InternalCheckError("forced disagreement for the exit-code check")

    original = cli.full_report
    cli.full_report = boom
    try:
        code = cli.main(["alex", "--fixture", "bs:1:2", "--quotient", "trivial"],
                        out=io.StringIO())
    finally:
        cli.full_report = original
    assert code == 3


@criterion(8, "Tietze variants of trefoil and Z^2 give identical verdicts and orders")
def test_criterion_8_tietze_invariance():
    for name in ("trefoil", "zn:2"):
        p, chi = load_fixture(name)
        base = full_report(p, chi, trivial_quotient(p), Q)[1]

        variants = [
            (tietze_variant(p, "redundant-relator",
                            recipe=[(Word(), 0, 1), (Word(), 0, 1)]), chi),
            (tietze_variant(p, "redundant-relator",
                            recipe=[(Word((1,)), 0, 1)]), chi),
        ]
        extended = tietze_variant(p, "new-generator", name="c", defining=Word((1, 2)))
        variants.append((extended,
                         validate_character(extended,
                                            list(chi.values) + [chi.of_word(Word((1, 2)))])))
        assert len(variants) == 3
        for vp, vchi in variants:
            r = full_report(vp, vchi, trivial_quotient(vp), Q)[1]
            assert r.vanishing == base.vanishing, name
            assert r.order == base.order, name


@criterion(9, "homomorphism counts: |Hom(F2,S3)|=36, |Epi(F2,S3)|=18, |Epi(BS(1,2),Z/3)|=2, "
              "verified against brute force")
def test_criterion_9_hom_counts():
    f2, _ = load_fixture("f:2")
    s3 = symmetric_group(3)
    homs = enumerate_homs(f2, s3)
    epis = enumerate_homs(f2, s3, surjective_only=True)
    assert len(homs) == 36 and len(epis) == 18

    bs, _ = load_fixture("bs:1:2")
    z3 = cyclic_group(3)
    assert len(enumerate_homs(bs, z3, surjective_only=True)) == 2

    # brute force over all image tuples
    for p, target in ((f2, s3), (bs, z3)):
        expected_all, expected_epi = 0, 0
        for images in itertools.product(range(target.order), repeat=p.generator_count):
            if all(target.word_image(r, images) == 0 for r in p.relators):
                expected_all += 1
                if len(image_closure(target, images)) == target.order:
                    expected_epi += 1
        assert len(enumerate_homs(p, target)) == expected_all
        assert len(enumerate_homs(p, target, surjective_only=True)) == expected_epi


@criterion(10, "vanishing(phi) = vanishing(-phi) everywhere; equal-kernel quotients "
               "give identical degree-1 verdicts")
def test_criterion_10_sign_and_kernel_invariance():
    for name in ("bs:1:2", "trefoil", "klein", "f2xz", "zn:2", "surface:1"):
        p, chi = load_fixture(name)
        for q in _kernel_classes(p, 3):
            plus = full_report(p, chi, q, Q)[1]
            minus = full_report(p, chi.negate(), q, Q)[1]
            assert plus.vanishing == minus.vanishing, (name, q.label())

    p, chi = load_fixture("trefoil")
    epis = enumerate_homs(p, symmetric_group(3), surjective_only=True)
    pairs = [(q1, q2) for q1, q2 in itertools.combinations(epis, 2) if same_kernel(p, q1, q2)]
    assert pairs
    for q1, q2 in pairs:
        r1 = full_report(p, chi, q1, Q)[1]
        r2 = full_report(p, chi, q2, Q)[1]
        assert r1.vanishing == r2.vanishing
        assert r1.order == r2.order


@criterion(11, "product propagation: vanishing fixture x Z stays vanishing; "
               "trefoil x Z stays nonvanishing")
def test_criterion_11_product_propagation():
    pz, _ = load_fixture("zn:1")
    p1, _ = load_fixture("f2xz")
    chi1 = validate_character(p1, [1, 0, 0])
    assert product_vanishing_test(p1, chi1, trivial_quotient(p1), pz) is True

    p_tr, chi_tr = load_fixture("trefoil")
    assert product_vanishing_test(p_tr, chi_tr, trivial_quotient(p_tr), pz) is False
