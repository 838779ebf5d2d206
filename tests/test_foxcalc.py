import random

import pytest

from fibrecheck.foxcalc import build_representation, fox_images
from fibrecheck.polyalg import CoefficientField
from fibrecheck.quotients import cyclic_group, make_quotient, trivial_quotient
from fibrecheck.words import Word, parse_presentation, validate_character
from dense_oracle import PolyMatrix, evaluate
from free_group_oracle import GroupRingElement, fox_derivative, fundamental_identity_check, inverse, product

Q = CoefficientField.rationals()

BS12 = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
TREFOIL = parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1")


def test_fox_base_cases():
    # d(x)/dx = 1 (empty word), d(x^-1)/dx = -x^-1
    assert fox_derivative(Word((1,)), 1) == GroupRingElement.of_word(Word())
    assert fox_derivative(Word((-1,)), 1) == GroupRingElement.of_word(Word((-1,)), -1)
    assert fox_derivative(Word((2,)), 1).is_zero


def test_fox_bs_relator():
    # d(t a t^-1 a^-2)/da = t - t a t^-1 a^-1 - t a t^-1 a^-2
    r = BS12.relators[0]
    expected = (
        GroupRingElement.of_word(Word((2,)))
        - GroupRingElement.of_word(Word((2, 1, -2, -1)))
        - GroupRingElement.of_word(Word((2, 1, -2, -1, -1)))
    )
    assert fox_derivative(r, 1) == expected


def _random_word(rng, g=2, max_len=8):
    return Word.of(tuple(rng.choice([i for i in range(-g, g + 1) if i]) for i in range(rng.randrange(max_len))))


def test_fox_product_rule():
    rng = random.Random(11)
    for _ in range(100):
        u, v = _random_word(rng), _random_word(rng)
        for i in (1, 2):
            lhs = fox_derivative(product(u, v), i)
            rhs = fox_derivative(u, i) + GroupRingElement.of_word(u) * fox_derivative(v, i)
            assert lhs == rhs


def test_fundamental_identity():
    assert fundamental_identity_check(BS12, 0)
    assert fundamental_identity_check(TREFOIL, 0)
    # The identity holds in ZF for arbitrary reduced words used as relators.
    rng = random.Random(12)
    for _ in range(20):
        w = _random_word(rng)
        if w.is_identity:
            continue
        p = parse_presentation("gens: a b\nrels:")
        fake = type(p)(p.generator_names, (w,))
        assert fundamental_identity_check(fake, 0)


def _nonzero(blocks):
    return {i: {g: {k: c for k, c in shifts.items() if c} for g, shifts in block.items()
                if any(shifts.values())} for i, block in blocks.items()}


def test_fox_images_gather_the_fox_derivatives():
    # One walk along w gives each dw/dx_i mapped into Z[Q x Z]: the words of
    # fox_derivative gathered by (alpha(w), chi(w)).  The blocks are keyed by
    # the 0-based generator index, and a generator that w lacks has none.
    from fibrecheck.quotients import symmetric_group

    chi = validate_character(TREFOIL, [1, 1])
    q = make_quotient(TREFOIL, symmetric_group(3), (2, 1))
    rep = build_representation(TREFOIL, chi, q)
    rng = random.Random(15)
    lacking = 0
    for _ in range(50):
        w = _random_word(rng, max_len=10)
        present = {abs(x) - 1 for x in w.letters}
        expected = {}
        for i in present:
            block: dict[int, dict[int, int]] = {}
            for u, c in fox_derivative(w, i + 1).terms.items():
                shifts = block.setdefault(q.group.word_image(u, q.gen_images), {})
                shifts[chi.of_word(u)] = shifts.get(chi.of_word(u), 0) + c
            expected[i] = block
        got = fox_images(rep, w)
        assert set(got) == present
        assert _nonzero(got) == _nonzero(expected)
        lacking += len(present) < 2
    assert lacking  # some words lack a generator


def test_fox_images_of_an_index_24_kernel_have_one_block_per_generator_present():
    # The kernel of f2xz -> S4 (index 24) by Reidemeister-Schreier has 49
    # generators and 48 relators of a few letters each; each relator's blocks
    # are keyed by exactly the generators it contains.
    from fibrecheck.fixtures import load_fixture
    from fibrecheck.quotients import symmetric_group
    from fibrecheck.reidschreier import rewrite_subgroup

    p, chi = load_fixture("f2xz")
    sub = rewrite_subgroup(p, make_quotient(p, symmetric_group(4), (1, 8, 0)), chi)
    kernel = sub.presentation
    assert (kernel.generator_count, len(kernel.relators)) == (49, 48)
    rep = build_representation(kernel, sub.restricted_character, trivial_quotient(kernel))
    for r in kernel.relators:
        assert set(fox_images(rep, r)) == {abs(x) - 1 for x in r.letters}


def _image(rep, w: Word) -> PolyMatrix:
    """The image of a single word under evaluate."""
    return evaluate(rep, GroupRingElement.of_word(w), Q)


def test_representation_trivial_quotient():
    z = parse_presentation("gens: t\nrels:")
    chi = validate_character(z, [1])
    rep = build_representation(z, chi, trivial_quotient(z))
    assert _image(rep, Word((1,))) == PolyMatrix.from_int_rows(Q, [[{1: 1}]])


def test_representation_regular_z2():
    p = parse_presentation("gens: a\nrels:")
    chi = validate_character(p, [0])
    q = make_quotient(p, cyclic_group(2), (1,))
    rep = build_representation(p, chi, q)
    assert _image(rep, Word((1,))) == PolyMatrix.from_int_rows(Q, [[0, 1], [1, 0]])


def test_representation_bs_z3():
    # Only a -> 0 kills the relator mod 3, so phi(a) = I and phi(t) = t * shift.
    chi = validate_character(BS12, [0, 1])
    q = make_quotient(BS12, cyclic_group(3), (0, 1))
    rep = build_representation(BS12, chi, q)
    assert _image(rep, Word((1,))) == PolyMatrix.identity(Q, 3)
    shift = PolyMatrix.from_int_rows(Q, [[0, {1: 1}, 0], [0, 0, {1: 1}], [{1: 1}, 0, 0]])
    assert _image(rep, Word((2,))) == shift


def test_representation_rejects_bad_quotient():
    from fibrecheck.quotients import FiniteQuotient

    chi = validate_character(BS12, [0, 1])
    bad = FiniteQuotient(cyclic_group(3), (1, 1), True)  # a -> 1 does not kill the relator
    with pytest.raises(ValueError, match="relator not killed"):
        build_representation(BS12, chi, bad)


def test_evaluate_bs_hand_values():
    chi = validate_character(BS12, [0, 1])
    rep = build_representation(BS12, chi, trivial_quotient(BS12))
    r = BS12.relators[0]
    da = evaluate(rep, fox_derivative(r, 1), Q)
    dt = evaluate(rep, fox_derivative(r, 2), Q)
    assert da == PolyMatrix.from_int_rows(Q, [[{1: 1, 0: -2}]])  # t - 2
    assert dt == PolyMatrix.from_int_rows(Q, [[0]])
    assert evaluate(rep, GroupRingElement.zero(), Q).is_zero


def test_phi_is_homomorphism():
    chi = validate_character(TREFOIL, [1, 1])
    from fibrecheck.quotients import symmetric_group

    q = make_quotient(TREFOIL, symmetric_group(3), (2, 1))
    rep = build_representation(TREFOIL, chi, q)
    rng = random.Random(13)
    ident = PolyMatrix.identity(Q, rep.action.order)
    for _ in range(25):
        u, v = _random_word(rng, max_len=6), _random_word(rng, max_len=6)
        assert _image(rep, product(u, v)) == _image(rep, u) @ _image(rep, v)
        assert _image(rep, u) @ _image(rep, inverse(u)) == ident


def test_phi_monomial_shape():
    chi = validate_character(TREFOIL, [1, 1])
    from fibrecheck.quotients import symmetric_group

    q = make_quotient(TREFOIL, symmetric_group(3), (2, 1))
    rep = build_representation(TREFOIL, chi, q)
    for i in (1, 2):
        m = _image(rep, Word((i,)))
        for row in m.entries:
            nonzero = [e for e in row if not e.is_zero]
            assert len(nonzero) == 1
            assert len(nonzero[0].coeffs) == 1
            assert nonzero[0].low == chi.values[i - 1]
        for j in range(m.cols):
            assert sum(1 for e in m.column(j) if not e.is_zero) == 1


def test_fundamental_identity_after_evaluation():
    chi = validate_character(TREFOIL, [1, 1])
    from fibrecheck.quotients import symmetric_group

    q = make_quotient(TREFOIL, symmetric_group(3), (2, 1))
    rep = build_representation(TREFOIL, chi, q)
    ident = PolyMatrix.identity(Q, rep.action.order)
    for r in TREFOIL.relators:
        total = PolyMatrix.zeros(Q, rep.action.order, rep.action.order)
        for i in (1, 2):
            total = total + evaluate(rep, fox_derivative(r, i), Q) @ (_image(rep, Word((i,))) - ident)
        assert total.is_zero


def test_evaluation_product_rule():
    chi = validate_character(BS12, [0, 1])
    q = make_quotient(BS12, cyclic_group(3), (0, 1))
    rep = build_representation(BS12, chi, q)
    rng = random.Random(14)
    for _ in range(30):
        u, v = _random_word(rng, max_len=5), _random_word(rng, max_len=5)
        for i in (1, 2):
            lhs = evaluate(rep, fox_derivative(product(u, v), i), Q)
            rhs = evaluate(rep, fox_derivative(u, i), Q) + _image(rep, u) @ evaluate(rep, fox_derivative(v, i), Q)
            assert lhs == rhs
