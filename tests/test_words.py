import random

import pytest

from fibrecheck import words
from fibrecheck.words import (
    MAX_WORD_LENGTH,
    ParseError,
    Presentation,
    Word,
    direct_product,
    parse_character,
    parse_presentation,
    render_presentation,
    render_word,
    tietze_variant,
    validate_character,
)


def test_parse_bs12():
    p = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
    assert p.generator_count == 2
    assert len(p.relators) == 1
    assert len(p.relators[0]) == 5
    assert p.relators[0].letters == (2, 1, -2, -1, -1)


def test_parse_trefoil():
    p = parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1")
    assert p.generator_count == 2
    assert len(p.relators) == 1
    assert len(p.relators[0]) == 6


def test_parse_drops_trivial_relator():
    p = parse_presentation("gens: a\nrels: a a^-1")
    assert p.generator_count == 1
    assert p.relators == ()


def test_parse_round_trip():
    for text in (
        "gens: a t\nrels: t a t^-1 a^-2",
        "gens: x y\nrels: x y x y^-1 x^-1 y^-1 ; x^3 ; y^-2 x",
        "gens: a\nrels:",
    ):
        p = parse_presentation(text)
        assert parse_presentation(render_presentation(p)) == p


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("rels: a")
    with pytest.raises(ParseError):
        parse_presentation("gens: a\nrels: b")  # unknown generator
    with pytest.raises(ParseError):
        parse_presentation("gens:\nrels:")  # zero generators
    with pytest.raises(ParseError):
        parse_presentation("gens: a\nrels: a^0")
    err = None
    try:
        parse_presentation("gens: a\nrels: a b")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2 and err.column is not None


def test_word_length_cap_refuses_before_expanding(monkeypatch):
    at_cap = parse_presentation(f"gens: a b\nrels: a^{MAX_WORD_LENGTH - 1} ; b")
    assert sum(len(r) for r in at_cap.relators) == MAX_WORD_LENGTH

    expanded = []
    of = words.Word.of

    def counting_of(letters):
        expanded.extend(letters)
        assert len(expanded) <= MAX_WORD_LENGTH, "letters over the cap were expanded"
        return of(())

    monkeypatch.setattr(words.Word, "of", counting_of)
    for text in (f"gens: a\nrels: a^{MAX_WORD_LENGTH + 1}",
                 f"gens: a\nrels: a^-{MAX_WORD_LENGTH + 1}",
                 f"gens: a b\nrels: a^{MAX_WORD_LENGTH} ; b"):
        expanded.clear()
        with pytest.raises(ParseError, match="letters in total"):
            parse_presentation(text)


def test_free_reduce():
    assert Word.of((1, -1)).letters == ()
    assert Word.of((1, 2, -2, -1)).letters == ()
    assert Word.of((1, 2, -1)).letters == (1, 2, -1)


def test_free_reduce_is_retraction():
    rng = random.Random(7)
    for _ in range(200):
        letters = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(12))]
        w = Word.of(letters)
        assert Word.of(w.letters) == w
        assert len(w) <= len(letters)
        # Inserting a cancelling pair anywhere does not change the reduction.
        pos = rng.randrange(len(letters) + 1)
        x = rng.choice([1, -1, 2, -2, 3, -3])
        padded = letters[:pos] + [x, -x] + letters[pos:]
        assert Word.of(padded) == w


def test_validate_character_bs12():
    p = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
    chi = validate_character(p, [0, 1])
    assert chi.values == (0, 1)
    # a=1, t=0 gives relator sum 1 - 2 = -1
    with pytest.raises(ValueError, match="not a homomorphism"):
        validate_character(p, [1, 0])


def test_validate_character_trefoil():
    # Relator x y x y^-1 x^-1 y^-1 has exponent sums x: +1, y: -1,
    # so (1, 1) weights to 1 - 1 = 0.
    p = parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1")
    chi = validate_character(p, [1, 1])
    assert chi.of_word(p.relators[0]) == 0


def test_parse_character_format():
    p = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
    assert parse_character(p, "t=1").values == (0, 1)
    assert parse_character(p, "char: a=0, t=1").values == (0, 1)
    with pytest.raises(ParseError):
        parse_character(p, "q=1")


def test_direct_product_shapes():
    f2 = parse_presentation("gens: a b\nrels:")
    z = parse_presentation("gens: z\nrels:")
    f2xz = direct_product(f2, z)
    assert f2xz.generator_count == 3
    assert len(f2xz.relators) == 2

    zxz = direct_product(z, z)
    assert zxz.generator_count == 2
    assert len(zxz.relators) == 1

    trefoil = parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1")
    txz = direct_product(trefoil, z)
    assert txz.generator_count == 3
    assert len(txz.relators) == 3


def test_direct_product_renames_collisions():
    a = parse_presentation("gens: a\nrels:")
    prod = direct_product(a, a)
    assert prod.generator_names == ("a", "a_2")


def test_direct_product_associative_up_to_renaming():
    a = parse_presentation("gens: a\nrels: a^2")
    b = parse_presentation("gens: b\nrels: b^3")
    c = parse_presentation("gens: c d\nrels: c d c^-1 d^-1")
    left = direct_product(direct_product(a, b), c)
    right = direct_product(a, direct_product(b, c))
    assert left.generator_names == right.generator_names
    assert sorted(r.letters for r in left.relators) == sorted(r.letters for r in right.relators)


def test_tietze_redundant_relator():
    p = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
    doubled = tietze_variant(p, "redundant-relator", recipe=[(Word(), 0, 1), (Word(), 0, 1)])
    assert len(doubled.relators) == 2
    conj = tietze_variant(p, "redundant-relator", recipe=[(Word((1,)), 0, 1)])
    assert len(conj.relators) == 2
    assert conj.relators[1] == p.relators[0].conjugated_by(Word((1,)))


def test_tietze_new_generator():
    f2 = parse_presentation("gens: a b\nrels:")
    bigger = tietze_variant(f2, "new-generator", name="c", defining=Word((1, 2)))
    assert bigger.generator_count == 3
    assert len(bigger.relators) == 1
    assert bigger.relators[0].letters == (3, -2, -1)


def test_tietze_malformed():
    p = parse_presentation("gens: a\nrels: a^2")
    with pytest.raises(ValueError):
        tietze_variant(p, "redundant-relator", recipe=[])
    with pytest.raises(ValueError):
        tietze_variant(p, "redundant-relator", recipe=[(Word(), 5, 1)])
    with pytest.raises(ValueError):
        tietze_variant(p, "new-generator", name="c")
    with pytest.raises(ValueError):
        tietze_variant(p, "no-such-move")


def test_render_word_powers():
    p = Presentation(("a", "t"), ())
    assert render_word(p, Word((2, 1, -2, -1, -1))) == "t a t^-1 a^-2"
    assert render_word(p, Word(())) == "1"
