import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import words
from fibrecheck.fixtures import load_fixture
from fibrecheck.quotients import enumerate_homs, make_quotient, symmetric_group
from fibrecheck.words import (
    MAX_WORD_LENGTH,
    ParseError,
    Presentation,
    Word,
    automorphisms,
    generating_subset,
    parse_character,
    parse_presentation,
    render_presentation,
    render_word,
    validate_character,
)
from free_group_oracle import conjugate, inverse, tietze_variant
from product_oracle import direct_product
from random_presentations import (presentations_with_quotient, product_presentations_with_quotient,
                                  symmetric_presentations_with_quotient)


def test_parse_bs12():
    p = parse_presentation("gens: a t\nrels: t a t^-1 a^-2")
    assert p.generator_count == 2
    assert len(p.relators) == 1
    assert len(p.relators[0].letters) == 5
    assert p.relators[0].letters == (2, 1, -2, -1, -1)


def test_parse_trefoil():
    p = parse_presentation("gens: x y\nrels: x y x y^-1 x^-1 y^-1")
    assert p.generator_count == 2
    assert len(p.relators) == 1
    assert len(p.relators[0].letters) == 6


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
    assert sum(len(r.letters) for r in at_cap.relators) == MAX_WORD_LENGTH

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
        assert len(w.letters) <= len(letters)
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
    assert conj.relators[1] == conjugate(p.relators[0], Word((1,)))


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


def _words(*signed):
    """Signed generator maps, each given as a tuple of letters, as maps of
    one-letter words."""
    return tuple(tuple((x,) for x in sigma) for sigma in signed)


def _signed_maps_and_moves(fixture):
    """What `automorphisms` finds on a fixture, split into the signed maps,
    as tuples of letters, and the Nielsen moves, which follow them."""
    maps = automorphisms(*load_fixture(fixture))
    signed = tuple(tuple(x for (x,) in sigma) for sigma in maps if max(map(len, sigma)) == 1)
    assert maps[:len(signed)] == _words(*signed)
    return signed, maps[len(signed):]


@pytest.mark.parametrize("fixture, found", [
    ("f2xz", ((-1, 2, 3), (1, -2, 3), (2, 1, 3), (2, -1, 3), (-2, 1, 3), (-2, -1, 3))),
    ("trefoil", ((2, 1),)),
    ("bs:1:2", ((-1, 2),)),
    ("surface:1", ((1, -2),)),
    ("surface:2", ()),
    ("zn:4", ((1, -2, 3, 4), (1, 2, -3, 4), (1, 2, 3, -4), (1, 3, 2, 4), (1, 3, -2, 4),
              (1, -3, 2, 4), (1, -3, -2, 4), (1, 4, 3, 2), (1, 4, 3, -2), (1, -4, 3, 2),
              (1, -4, 3, -2), (1, 2, 4, 3), (1, 2, 4, -3), (1, 2, -4, 3), (1, 2, -4, -3))),
    ("klein", ((-1, 2),)),
])
def test_generator_symmetries_of_fixtures(fixture, found):
    # The signed maps that `automorphisms` lists first.  f2xz: a <-> b and
    # both inversions, with every sign, never z, which chi = z moves;
    # trefoil: x <-> y, which maps the relator to its inverse; bs:1:2 and
    # klein: a -> a^-1, since t a^-1 t^-1 = a^-2 and t a^-1 t^-1 = a;
    # surface:2: chi = a1 fixes candidates such as b1 -> b1^-1 and
    # a2 <-> b2, but none maps [a1, b1][a2, b2] to a conjugate of itself or
    # its inverse; zn:4: every signed permutation of x2, x3, x4.
    assert _signed_maps_and_moves(fixture)[0] == found


@pytest.mark.parametrize("fixture, found", [
    ("f2xz", (((1, 2), (2,), (3,)), ((2, 1), (2,), (3,)), ((1,), (2, 1), (3,)), ((1,), (1, 2), (3,)))),
    ("zn:4", ()),
    ("trefoil", ()),
    ("surface:1", (((1, 2), (2,)), ((2, 1), (2,)))),
    ("bs:1:2", (((1,), (2, 1)), ((1,), (1, 2)))),
    ("surface:2", (((1, 2), (2,), (3,), (4,)), ((1,), (2,), (3, 4), (4,)), ((1,), (2,), (3,), (4, 3)))),
    ("klein", (((1,), (2, 1)), ((1,), (1, 2)))),
])
def test_nielsen_moves_of_fixtures(fixture, found):
    # The moves that `automorphisms` lists after the signed maps.  f2xz is
    # F2 x Z, blocks {a, b} and {z}: F2 has no relators, so every move
    # within the block is proved by the block's (empty) lookup; a move of z
    # by a or b fails the lookup on [b, z] or [a, z].  zn:4's blocks are
    # single generators, and x_i -> x_i x_j fails the lookup on [x_i, x_k].
    # The trefoil's chi is nonzero on both generators.  surface:1 is Z^2,
    # blocks {a1} and {b1}: a1 -> a1 b1 and a1 -> b1 a1 map [a1, b1] to a
    # conjugate of itself, so the lookup proves them.  bs:1:2 and klein:
    # t -> ta and t -> at.
    assert _signed_maps_and_moves(fixture)[1] == found


@settings(max_examples=60)
@given(data=st.data())
def test_found_symmetries_fix_chi_and_map_homomorphisms_to_homomorphisms(data):
    # On random presentations, about a quarter of which have a candidate that
    # fixes chi but maps a relator outside the relators' classes, every map
    # found fixes chi and carries each relator into the normal closure: q o
    # sigma kills every relator.
    p, chi, q = data.draw(presentations_with_quotient())
    for sigma in automorphisms(p, chi):
        assert [chi.of_word(Word(w)) for w in sigma] == list(chi.values)
        make_quotient(p, q.group, tuple(q.group.word_image(Word(w), q.gen_images) for w in sigma))


def _substitute(sigma, letters):
    """sigma applied to a word of letters, freely reduced."""
    return Word.of(y for x in letters
                   for y in (sigma[x - 1] if x > 0 else tuple(-z for z in reversed(sigma[-x - 1]))))


def _inverse_map(sigma):
    """The inverse in the free group of a map that `automorphisms` finds: a
    signed map's is the inverse signed permutation, and x_i -> x_i x_j
    (x_j x_i) is undone by x_i -> x_i x_j^-1 (x_j^-1 x_i)."""
    inverse = [(k,) for k in range(1, len(sigma) + 1)]
    for k, w in enumerate(sigma, 1):
        if len(w) == 1:
            inverse[abs(w[0]) - 1] = (k if w[0] > 0 else -k,)
        else:
            inverse[k - 1] = tuple(x if x == k else -x for x in w)
    assert all(_substitute(sigma, w).letters == (k,) for k, w in enumerate(inverse, 1))
    return tuple(inverse)


def _conjugate_to_a_relator(p, w: Word) -> bool:
    """Whether the freely reduced w is conjugate to a relator or its inverse:
    its cyclic reduction is a rotation of one of theirs."""
    def cyclic(letters):
        while len(letters) > 1 and letters[0] == -letters[-1]:
            letters = letters[1:-1]
        return letters

    target = cyclic(w.letters)
    for r in p.relators:
        for v in (r, inverse(r)):
            v = cyclic(v.letters)
            if any(v[k:] + v[:k] == target for k in range(len(v))):
                return True
    return False


@settings(max_examples=60)
@given(data=st.data())
def test_the_inverse_of_every_found_map_passes_the_lookup_too(data):
    # `automorphisms` proves sigma alone: sigma permutes conjugacy classes,
    # so mapping the finite set of the relators' classes into itself maps it
    # onto itself, and sigma^-1 maps it onto itself too.  Checked here on the
    # relators that the finder looks up for sigma (those containing a moved
    # generator, only those within the block where sigma stays in one block
    # of `_product_blocks`), and through q o sigma^-1, which kills every
    # relator.
    kind = data.draw(st.sampled_from(["random", "symmetric", "product"]))
    if kind == "random":
        p, chi, q = data.draw(presentations_with_quotient())
    elif kind == "symmetric":
        p, chi, q, _ = data.draw(symmetric_presentations_with_quotient())
    else:
        p, chi, q = data.draw(product_presentations_with_quotient())
    reduced = [words._cyclic_reduction(r.letters) for r in p.relators]
    block = words._product_blocks(p.generator_count, reduced)
    for sigma in automorphisms(p, chi):
        inverse = _inverse_map(sigma)
        moved = {k for k, w in enumerate(sigma, 1) if w != (k,)}
        blocks = {block[abs(y)] for k in moved for y in sigma[k - 1]}
        for r in p.relators:
            generators = {abs(x) for x in r.letters}
            if generators & moved and (len(blocks) > 1 or {block[x] for x in generators} <= blocks):
                assert _conjugate_to_a_relator(p, _substitute(inverse, r.letters)), (sigma, r)
        make_quotient(p, q.group, tuple(q.group.word_image(Word(w), q.gen_images) for w in inverse))


@pytest.mark.parametrize("fixture, signed, moves", [("f:26", 25 + 4 * 300, 2 * 25 * 25),
                                                    ("zn:22", 21 + 4 * 210, 0)],
                         ids=["f:26-1225", "zn:22-861"])
def test_symmetries_of_large_fixtures_take_well_under_a_second(fixture, signed, moves, monkeypatch):
    # About 4g^2 candidates, never the g! 2^g signed permutations: f:26 has
    # no relators, and every candidate that fixes chi = a is kept; zn:22 has
    # 231 commutators, and each candidate compares the 41 that its two
    # generators touch.  Finding them enumerates nothing.
    from time import perf_counter

    from fibrecheck import fibring, quotients

    for module in (fibring, quotients):
        monkeypatch.setattr(module, "keyed_homs", lambda *a, **k: pytest.fail("a scan started"))
    p, chi = load_fixture(fixture)
    start = perf_counter()
    found = automorphisms(p, chi)
    assert perf_counter() - start < 0.5
    assert (len(found), sum(max(map(len, sigma)) > 1 for sigma in found)) == (signed + moves, moves)


def _refused_and_broken_by_some_s3_quotient(p, chi, sigma):
    """Whether sigma is not found, and some q into S3 kills every relator
    while q o sigma does not: sigma is no endomorphism of the group."""
    broken = 0
    for q in enumerate_homs(p, symmetric_group(3)):
        images = tuple(q.group.word_image(Word(w), q.gen_images) for w in sigma)
        try:
            make_quotient(p, q.group, images)
        except ValueError:
            broken += 1
    return sigma not in automorphisms(p, chi) and broken > 0


def test_a_move_that_does_not_preserve_the_relators_is_refused():
    # In <a, b, z | [a, z]> = Z^2 * Z no relator is [a, b] or [b, z], so the
    # three generators form one block, and a -> ab maps [a, z] to [ab, z],
    # which is no rotation of a relator or its inverse: refused.  It is no
    # endomorphism of the group: some q into S3 kills [a, z] but not
    # [ab, z].  b, which no relator contains, and z, whose commutator with a
    # survives z -> za and z -> az, have their moves; a and b keep their
    # inversions.
    p = parse_presentation("gens: a b z\nrels: a z a^-1 z^-1")
    chi = validate_character(p, [0, 0, 1])
    assert automorphisms(p, chi) == _words((-1, 2, 3), (1, -2, 3)) + (
        ((1,), (2, 1), (3,)), ((1,), (1, 2), (3,)), ((1,), (2,), (3, 1)), ((1,), (2,), (1, 3)))
    assert _refused_and_broken_by_some_s3_quotient(p, chi, ((1, 2), (2,), (3,)))


def test_a_signed_map_that_does_not_preserve_the_relators_is_refused():
    # In the same group, a <-> b fixes chi = z but maps [a, z] to [b, z],
    # which is no rotation of a relator or its inverse: refused.  a, b and z
    # share one block, so the block rule looks [a, z] up as well.
    p = parse_presentation("gens: a b z\nrels: a z a^-1 z^-1")
    chi = validate_character(p, [0, 0, 1])
    assert _refused_and_broken_by_some_s3_quotient(p, chi, _words((2, 1, 3))[0])


def _generated(maps, limit):
    """The signed generator maps that the signed maps generate, by a
    breadth-first walk of composites; None past `limit` of them."""
    identity = tuple(range(1, len(maps[0]) + 1))
    elements, seen = [identity], {identity}
    for e in elements:
        for s in (sum(m, ()) for m in maps):
            x = tuple(e[y - 1] if y > 0 else -e[-y - 1] for y in s)
            if x not in seen:
                if len(elements) == limit:
                    return None
                seen.add(x)
                elements.append(x)
    return set(_words(*seen))


@pytest.mark.parametrize("fixture, found, kept", [
    ("f2xz", 6, ((-1, 2, 3), (2, 1, 3))),
    ("zn:4", 15, ((1, -2, 3, 4), (1, 3, 2, 4), (1, 4, 3, 2))),
    ("trefoil", 1, ((2, 1),)),
    ("f:4", 15, ((1, -2, 3, 4), (1, 3, 2, 4), (1, 4, 3, 2))),
    ("surface:2", 0, ()),
])
def test_generating_subset_of_fixtures(fixture, found, kept):
    # The greedy pass keeps the first inversion and transpositions that
    # enlarge the group; the reverse pass drops the inversions that those
    # generate by conjugation.  f2xz: 8 signed permutations of a, b; zn:4
    # and f:4: 48 of x2, x3, x4 (b, c, d).  The moves, which follow the
    # signed maps, pass through whole.
    maps = automorphisms(*load_fixture(fixture))
    assert all(max(map(len, sigma)) == 1 for sigma in maps[:found])
    assert all(max(map(len, sigma)) > 1 for sigma in maps[found:])
    assert generating_subset(maps) == _words(*kept) + maps[found:]
    if found:
        assert _generated(_words(*kept), 100) == _generated(maps[:found], 100)


def test_generating_subset_of_zn6_keeps_five_of_45_maps():
    # The 3840 signed permutations of x2..x6 are listed whole, below the cap.
    maps = automorphisms(*load_fixture("zn:6"))
    kept = generating_subset(maps)
    assert (len(maps), len(kept)) == (45, 5)
    assert len(_generated(kept, words.MAX_LISTED_SYMMETRIES)) == 3840


def test_generating_subset_stops_listing_at_the_cap(monkeypatch):
    # zn:22's 861 maps generate the 2^21 21! signed permutations of x2..x22.
    # Read in the order found, the first 13 inversions already outgrow the
    # cap, so nothing is dropped.  Read transpositions first, those of x2
    # with x3..x6 generate the 3840 signed permutations of x2..x6, below the
    # cap, and the 11 of them already generated are dropped; (x2 x7) outgrows
    # the cap, and the rest is kept.  Every dropped map is generated by the
    # maps kept before it.  Neither reduction starts a scan.
    from time import perf_counter

    from fibrecheck import fibring, quotients

    for module in (fibring, quotients):
        monkeypatch.setattr(module, "keyed_homs", lambda *a, **k: pytest.fail("a scan started"))
    maps = automorphisms(*load_fixture("zn:22"))
    assert len(maps) == 861
    for order in (maps, maps[21:] + maps[:21]):
        start = perf_counter()
        kept = generating_subset(order)
        assert perf_counter() - start < 5
        position = {m: i for i, m in enumerate(order)}
        assert [position[m] for m in kept] == sorted(position[m] for m in kept)
        dropped = [m for m in order if m not in set(kept)]
        if order is maps:
            assert dropped == []
            continue
        assert len(dropped) == 11
        last = position[dropped[-1]]
        group = _generated([m for m in kept if position[m] < last], words.MAX_LISTED_SYMMETRIES)
        assert group is not None and set(dropped) <= group
