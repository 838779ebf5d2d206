from hypothesis import given, settings, strategies as st

from fibrecheck.alexander import full_report
from fibrecheck.polyalg import CoefficientField
from fibrecheck.quotients import (FiniteGroup, cyclic_group, enumerate_homs, image_action,
                                  make_quotient, symmetric_group, trivial_quotient)
from fibrecheck.reidschreier import rewrite_subgroup
from fibrecheck.words import Word, parse_presentation, validate_character
from free_group_oracle import inverse, product
from random_presentations import presentations_with_quotient

F2 = parse_presentation("gens: a b\nrels:")
BS12 = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
Z = parse_presentation("gens: t\nrels:")


def test_coset_action_f2_z2():
    q = make_quotient(F2, cyclic_group(2), (1, 0))
    act = image_action(q)
    assert act.order == 2
    assert act.perms == act.inverses == ((1, 0), (0, 1))


def test_coset_action_z_mod3():
    q = make_quotient(Z, cyclic_group(3), (1,))
    act = image_action(q)
    assert act.order == 3
    assert act.perms == ((1, 2, 0),) and act.inverses == ((2, 0, 1),)


def test_coset_action_trivial():
    act = image_action(trivial_quotient(BS12))
    assert act.order == 1
    assert act.perms == act.inverses == ((0,), (0,))


def test_rewrite_f2_index2():
    # a -> 1, b -> 0 into Z/2: the kernel is free of rank 3 on {b, a b a^-1, a^2}.
    chi = validate_character(F2, [1, 0])
    q = make_quotient(F2, cyclic_group(2), (1, 0))
    sub = rewrite_subgroup(F2, q, chi)
    assert sub.presentation.generator_count == 3
    assert sub.presentation.relators == ()
    assert set(sub.schreier_words) == {Word((2,)), Word((1, 2, -1)), Word((1, 1))}
    # Restricted values are the ambient character of the Schreier words.
    for w, v in zip(sub.schreier_words, sub.restricted_character.values):
        assert chi.of_word(w) == v


def test_rewrite_z_mod_m():
    chi = validate_character(Z, [1])
    for m in (2, 3, 5):
        q = make_quotient(Z, cyclic_group(m), (1,))
        sub = rewrite_subgroup(Z, q, chi)
        assert sub.presentation.generator_count == 1
        assert sub.presentation.relators == ()
        assert sub.schreier_words == (Word((1,) * m),)
        assert sub.restricted_character.values == (m,)
        assert sub.index == m


def test_rewrite_bs12_index2():
    chi = validate_character(BS12, [0, 1])
    q = make_quotient(BS12, cyclic_group(2), (0, 1))
    sub = rewrite_subgroup(BS12, q, chi)
    assert sub.presentation.generator_count == 3  # 2*2 - 1
    assert len(sub.presentation.relators) == 2
    assert sorted(sub.restricted_character.values) == [0, 0, 2]


def test_non_surjective_rewrites_over_image():
    chi = validate_character(Z, [1])
    q = make_quotient(Z, cyclic_group(4), (2,))
    sub = rewrite_subgroup(Z, q, chi)
    assert sub.index == 2
    assert sub.restricted_character.values == (2,)


def test_deficiency_bookkeeping():
    # deficiency of the subgroup presentation is |Q|*d - |Q| + 1 for input deficiency d
    cases = [
        (BS12, make_quotient(BS12, cyclic_group(3), (0, 1))),
        (BS12, make_quotient(BS12, cyclic_group(2), (0, 1))),
        (F2, make_quotient(F2, symmetric_group(3), (2, 1))),
        (parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1"),
         make_quotient(parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1"),
                       symmetric_group(3), (2, 1))),
    ]
    for p, q in cases:
        chi = validate_character(p, [0] * p.generator_count)
        sub = rewrite_subgroup(p, q, chi)
        n = sub.index
        d = p.generator_count - len(p.relators)
        got = sub.presentation.generator_count - len(sub.presentation.relators)
        # relators may simplify away entirely; count before reduction via n*s
        assert sub.presentation.generator_count == n * p.generator_count - (n - 1)
        assert got >= n * d - n + 1  # free reduction can only drop relators
        assert n * p.generator_count - (n - 1) - n * len(p.relators) == n * d - n + 1


def test_rewritten_relators_fix_cosets():
    # Each rewritten relator, read back through the Schreier words, is the
    # conjugated ambient relator, hence trivial in the quotient action.
    p = BS12
    chi = validate_character(p, [0, 1])
    q = make_quotient(p, cyclic_group(3), (0, 1))
    act = image_action(q)
    sub = rewrite_subgroup(p, q, chi)
    for r in sub.presentation.relators:
        ambient = Word()
        for x in r.letters:
            w = sub.schreier_words[abs(x) - 1]
            ambient = product(ambient, w if x > 0 else inverse(w))
        c = 0
        for x in ambient.letters:
            c = act.perms[x - 1][c] if x > 0 else act.inverses[-x - 1][c]
        assert c == 0


def test_restricted_value_gcd_is_minimal_positive():
    # Brute-force words of length <= 6 in the kernel; the minimal positive
    # character value equals the gcd of the restricted character values.
    import itertools
    import math

    cases = [
        (Z, make_quotient(Z, cyclic_group(3), (1,)), [1]),
        (Z, make_quotient(Z, cyclic_group(4), (1,)), [1]),
        (F2, make_quotient(F2, cyclic_group(2), (1, 0)), [1, 1]),
    ]
    for p, q, values in cases:
        chi = validate_character(p, values)
        sub = rewrite_subgroup(p, q, chi)
        gcd = 0
        for v in sub.restricted_character.values:
            gcd = math.gcd(gcd, v)
        best = None
        g = p.generator_count
        letters = [i for i in range(-g, g + 1) if i]
        for length in range(1, 7):
            for combo in itertools.product(letters, repeat=length):
                w = Word.of(combo)
                if q.group.word_image(w, q.gen_images) == 0:
                    v = chi.of_word(w)
                    if v > 0 and (best is None or v < best):
                        best = v
        assert best == gcd


# Every group of order 2 to 4: Z/2, Z/3, Z/4 and the Klein four-group.
_SMALL_TARGETS = [cyclic_group(m) for m in (2, 3, 4)] + [
    FiniteGroup(4, tuple(tuple(g ^ h for h in range(4)) for g in range(4)), "V4")]


@settings(max_examples=60)
@given(data=st.data())
def test_twisted_order_is_the_untwisted_order_of_the_kernel_on_random_presentations(data):
    # Shapiro's lemma, the `untwist-check` path: the degree-1 order twisted
    # by a quotient q of order <= 4 is the untwisted degree-1 order of ker q,
    # presented by Reidemeister-Schreier with the restricted character, over
    # F3 and over Q.
    p, chi, _ = data.draw(presentations_with_quotient())
    target = data.draw(st.sampled_from(_SMALL_TARGETS))
    q = data.draw(st.sampled_from(enumerate_homs(p, target)))
    sub = rewrite_subgroup(p, q, chi)
    for field in (CoefficientField.prime(3), CoefficientField.rationals()):
        twisted = full_report(p, chi, q, field)[1]
        untwisted = full_report(sub.presentation, sub.restricted_character,
                                trivial_quotient(sub.presentation), field)[1]
        assert (twisted.vanishing, twisted.order) == (untwisted.vanishing, untwisted.order)
