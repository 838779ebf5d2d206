"""Random small presentations with a character and a finite quotient, for property tests."""

from hypothesis import strategies as st

from fibrecheck.fixtures import load_fixture
from fibrecheck.quotients import cyclic_group, enumerate_homs, symmetric_group
from fibrecheck.words import Character, Presentation, Word, validate_character
from product_oracle import direct_product

PROPERTY_TARGETS = [cyclic_group(m) for m in range(2, 7)] + [symmetric_group(3)]


@st.composite
def presentations_with_quotient(draw, targets=PROPERTY_TARGETS, onto=True):
    """2-3 generators, 1-2 short relators, each balanced to character sum 0
    by a power of a generator of character value +-1, and a homomorphism into
    one of `targets`, by default Z/2..Z/6 or S3: onto it where one exists, or
    any of them where `onto` is False."""
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
    homs = enumerate_homs(p, draw(st.sampled_from(targets)))
    return p, chi, draw(st.sampled_from([h for h in homs if h.surjective or not onto] or homs))


@st.composite
def symmetric_presentations_with_quotient(draw):
    """3 generators, relators closed under a signed transposition sigma of two
    of them that fixes chi, each drawn relator balanced by a power of the
    third, of character value +-1; a homomorphism into Z/2..Z/6 or S3, onto
    it where one exists; and sigma, as a tuple of letters."""
    i, j = draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    m = 6 - i - j
    si, sj = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    moved = {i: si * j, j: sj * i}
    values = [0, 0, 0]
    values[m - 1] = draw(st.sampled_from([-1, 1]))
    if si == sj:  # else chi_i = si chi_j = si sj chi_i forces chi_i = chi_j = 0
        values[j - 1] = draw(st.integers(-2, 2))
        values[i - 1] = si * values[j - 1]
    chi = Character(tuple(values))
    letters = st.sampled_from([1, -1, 2, -2, 3, -3])
    relators: list[Word] = []
    for _ in range(draw(st.integers(1, 2))):
        w = Word.of(draw(st.lists(letters, min_size=2, max_size=5)))
        k = -chi.of_word(w) * values[m - 1]
        w = Word.of(w.letters + (m if k > 0 else -m,) * abs(k))
        while w not in relators:  # its orbit under sigma, of length 1, 2 or 4
            relators.append(w)
            w = Word.of(tuple(moved.get(x, x) if x > 0 else -moved.get(-x, -x) for x in w.letters))
    p = Presentation(("a", "b", "c"), tuple(relators))
    chi = validate_character(p, values)
    homs = enumerate_homs(p, draw(st.sampled_from(PROPERTY_TARGETS)))
    q = draw(st.sampled_from([h for h in homs if h.surjective] or homs))
    return p, chi, q, tuple(moved.get(k, k) for k in (1, 2, 3))


@st.composite
def product_presentations_with_quotient(draw):
    """The direct product (`product_oracle.direct_product`) of f:2 or
    surface:2 with none, one or two of f:1 (Z), f:2 and surface:1 (Z^2), at
    most 5 generators; a character that is 0 on the second generator of the
    first factor, which is then a move's x_j for the first, within their
    block, and nonzero somewhere; and a homomorphism into S3 or Z/6..Z/2,
    onto it where one exists.  (The generators of surface:1 commute, so
    each is a block of its own.)"""
    p, _ = load_fixture(draw(st.sampled_from(["f:2", "surface:2"])))
    for _ in range(draw(st.integers(0, 2))):
        factor, _ = load_fixture(draw(st.sampled_from(["f:1", "f:2", "surface:1"])))
        if p.generator_count + factor.generator_count <= 5:
            p = direct_product(p, factor)
    values = draw(st.lists(st.integers(-2, 2), min_size=p.generator_count,
                           max_size=p.generator_count))
    values[1] = 0
    if not any(values):
        values[draw(st.sampled_from([0] + list(range(2, p.generator_count))))] = 1
    chi = validate_character(p, values)
    # S3 first, which hypothesis draws most: a move that is no automorphism
    # mostly shows only in a quotient that is not abelian.
    homs = enumerate_homs(p, draw(st.sampled_from(PROPERTY_TARGETS[::-1])))
    return p, chi, draw(st.sampled_from([h for h in homs if h.surjective] or homs))
