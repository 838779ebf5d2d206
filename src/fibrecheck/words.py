"""Free-group words, finite presentations, and integer characters.

Text format (one presentation per file):

    gens: a t
    rels: t a t^-1 a^-2 ; x y x^-1 y^-1

A word is a whitespace-separated list of letters ``name``, ``name^-1`` or
``name^k`` (powers expand eagerly, after the letters of all relators are
counted against `MAX_WORD_LENGTH`); relators are separated by ``;`` and a
blank ``rels:`` line is allowed.  Characters are written ``a=0, t=1``
(unlisted generators default to 0), optionally prefixed with ``char:``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

__all__ = [
    "MAX_WORD_LENGTH",
    "ParseError",
    "Word",
    "Presentation",
    "Character",
    "parse_presentation",
    "render_presentation",
    "parse_character",
    "render_character",
    "validate_character",
    "automorphisms",
    "MAX_LISTED_SYMMETRIES",
    "generating_subset",
]

# Cap on the letters of all relators of one presentation, with every power
# a^k counted as |k| letters before it is expanded.
MAX_WORD_LENGTH = 1000

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Syntax error in presentation/character text, with position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Word:
    """Freely reduced word; letter i > 0 is generator i, -i its inverse."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()):
        self.letters = letters

    def __eq__(self, other):
        return self.letters == other.letters if other.__class__ is Word else NotImplemented

    def __hash__(self):
        return hash((self.letters,))

    @classmethod
    def of(cls, letters: Iterable[int]) -> "Word":
        return cls(_reduce(letters))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def max_index(self) -> int:
        return max((abs(x) for x in self.letters), default=0)


class Presentation:
    """Finite presentation: named generators plus freely reduced relators."""

    __slots__ = ("generator_names", "relators")

    def __init__(self, generator_names: tuple[str, ...], relators: tuple[Word, ...]):
        if not generator_names:
            raise ParseError("zero generators")
        if len(set(generator_names)) != len(generator_names):
            raise ParseError("duplicate generator names")
        for name in generator_names:
            if not _NAME_RE.fullmatch(name):
                raise ParseError(f"bad generator name {name!r}")
        # Relators are stored freely reduced; empty ones are dropped.
        reduced = tuple(r for r in (Word.of(w.letters) for w in relators) if not r.is_identity)
        g = len(generator_names)
        for r in reduced:
            if r.max_index() > g:
                raise ParseError("relator uses generator index beyond generator count")
        self.generator_names = generator_names
        self.relators = reduced

    def __eq__(self, other):
        if other.__class__ is not Presentation:
            return NotImplemented
        return (self.generator_names, self.relators) == (other.generator_names, other.relators)

    def __hash__(self):
        return hash((self.generator_names, self.relators))

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)


class Character:
    """Values of a homomorphism to the integers on each generator."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        self.values = values

    def __eq__(self, other):
        return self.values == other.values if other.__class__ is Character else NotImplemented

    def __hash__(self):
        return hash((self.values,))

    def negate(self) -> "Character":
        return Character(tuple(-v for v in self.values))

    def of_word(self, w: Word) -> int:
        return sum(self.values[abs(x) - 1] * (1 if x > 0 else -1) for x in w.letters)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


# ---------------------------------------------------------------------------
# parsing / rendering


def _parse_word(text: str, names: Sequence[str], line_no: int, col0: int,
                budget: int) -> tuple[Word, int]:
    """The word, and what is left of the letter budget after it."""
    index = {n: i + 1 for i, n in enumerate(names)}
    runs: list[tuple[int, int]] = []
    pos = 0
    for token in text.split():
        col = col0 + text.index(token, pos) + 1
        pos = text.index(token, pos) + len(token)
        if "^" in token:
            name, _, exp = token.partition("^")
            try:
                k = int(exp)
            except ValueError:
                raise ParseError(f"bad exponent {exp!r}", line_no, col)
            if k == 0:
                raise ParseError("zero exponent", line_no, col)
        else:
            name, k = token, 1
        if name not in index:
            raise ParseError(f"unknown generator name {name!r}", line_no, col)
        if abs(k) > budget:
            raise ParseError(f"relators exceed {MAX_WORD_LENGTH} letters in total", line_no, col)
        budget -= abs(k)
        i = index[name]
        runs.append((i if k > 0 else -i, abs(k)))
    return Word.of(x for x, k in runs for _ in range(k)), budget


def parse_presentation(text: str) -> Presentation:
    """Parse the two-line ``gens:`` / ``rels:`` format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lstrip().startswith("gens:"):
        raise ParseError("expected 'gens:' line", 1, 1)
    if len(lines) < 2 or not lines[1].lstrip().startswith("rels:"):
        raise ParseError("expected 'rels:' line", 2, 1)
    names = tuple(lines[0].split(":", 1)[1].split())
    if not names:
        raise ParseError("zero generators", 1, len(lines[0]) + 1)
    rel_text = lines[1].split(":", 1)[1]
    col0 = len(lines[1]) - len(rel_text)
    relators = []
    offset = 0
    budget = MAX_WORD_LENGTH
    for chunk in rel_text.split(";"):
        if chunk.strip():
            word, budget = _parse_word(chunk, names, 2, col0 + offset, budget)
            relators.append(word)
        offset += len(chunk) + 1
    return Presentation(names, tuple(relators))


def render_word(p: Presentation, w: Word) -> str:
    """Run-length rendering, e.g. ``t a t^-1 a^-2``; empty word is ``1``."""
    if w.is_identity:
        return "1"
    parts = []
    run_letter, run = w.letters[0], 0
    for x in w.letters + (0,):
        if x == run_letter:
            run += 1
            continue
        name = p.generator_names[abs(run_letter) - 1]
        k = run if run_letter > 0 else -run
        parts.append(name if k == 1 else f"{name}^{k}")
        run_letter, run = x, 1
    return " ".join(parts)


def render_presentation(p: Presentation) -> str:
    rels = " ; ".join(render_word(p, r) for r in p.relators)
    return f"gens: {' '.join(p.generator_names)}\nrels: {rels}"


def parse_character(p: Presentation, text: str) -> Character:
    """Parse ``a=0, t=1`` (or ``char: a=0, t=1``); unlisted names are 0."""
    body = text.strip()
    if body.startswith("char:"):
        body = body[len("char:"):]
    values = {name: 0 for name in p.generator_names}
    for item in body.split(","):
        if not item.strip():
            continue
        name, eq, val = item.partition("=")
        name = name.strip()
        if not eq or name not in values:
            raise ParseError(f"bad character entry {item.strip()!r}")
        try:
            values[name] = int(val)
        except ValueError:
            raise ParseError(f"bad character value {val.strip()!r}")
    return validate_character(p, [values[n] for n in p.generator_names])


def render_character(p: Presentation, chi: Character) -> str:
    return ", ".join(f"{n}={v}" for n, v in zip(p.generator_names, chi.values))


def validate_character(p: Presentation, values: Sequence[int]) -> Character:
    """Check that the values kill every relator's exponent sums."""
    if len(values) != p.generator_count:
        raise ValueError(f"expected {p.generator_count} values, got {len(values)}")
    chi = Character(tuple(int(v) for v in values))
    for j, r in enumerate(p.relators):
        s = chi.of_word(r)
        if s != 0:
            raise ValueError(
                f"not a homomorphism: relator {j + 1} ({render_word(p, r)}) "
                f"has weighted exponent sum {s}"
            )
    return chi


# ---------------------------------------------------------------------------
# symmetries


def _cyclic_reduction(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The freely reduced word without the letters that cancel around its end."""
    i, j = 0, len(letters)
    while j - i > 1 and letters[i] == -letters[j - 1]:
        i, j = i + 1, j - 1
    return letters[i:j]


def _rotations(reduced: Sequence[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every rotation of each cyclically reduced relator and of its inverse:
    two cyclically reduced words are conjugate exactly when one is a
    rotation of the other."""
    return {v[k:] + v[:k] for w in reduced for v in (w, tuple(-x for x in reversed(w)))
            for k in range(len(v))}


def _is_commutator(w: tuple[int, ...]) -> bool:
    """Whether a cyclically reduced word is [x, y] for letters x, y of two
    different generators, up to rotation: x y x^-1 y^-1."""
    return len(w) == 4 and w[2] == -w[0] and w[3] == -w[1] and abs(w[0]) != abs(w[1])


def _product_blocks(g: int, reduced: Sequence[tuple[int, ...]]) -> list[int]:
    """The finest partition of the generators, as a block id per generator
    (entry 0 unused), under which the presentation is that of the direct
    product of its blocks' groups.

    Two generators share a block where a relator other than a generator
    commutator contains both, or where no relator is their commutator.
    Then every other relator lies within one block, and every pair of
    generators from different blocks has its commutator among the
    relators, so G is the product of the groups that each block presents
    with the relators lying within it.  The partition is the components
    of those two relations, each of which any such partition must join.
    """
    parent = list(range(g + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    commuting = set()
    for w in reduced:
        if _is_commutator(w):
            commuting.add((min(abs(w[0]), abs(w[1])), max(abs(w[0]), abs(w[1]))))
        else:
            for x in w:
                parent[find(abs(x))] = find(abs(w[0]))
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            if (i, j) not in commuting:
                parent[find(j)] = find(i)
    return [find(x) for x in range(g + 1)]


def automorphisms(p: Presentation, chi: Character
                  ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Generator maps that induce automorphisms of the group and fix chi.

    A map is a tuple of g words, word k (a tuple of letters) the image of
    x_{k+1}.  The candidates are about 4g^2 automorphisms of the free group,
    never the g! 2^g signed permutations:

    - the inversions x_i -> x_i^-1;
    - the signed transpositions x_i -> x_j^s, x_j -> x_i^r;
    - the Nielsen moves x_i -> x_i x_j and x_i -> x_j x_i with chi(x_j) = 0.

    One rule keeps a candidate sigma: chi o sigma = chi, and sigma maps
    every relator into the normal closure N.  The proof is a lookup: the
    image of each relator that contains a moved generator, freely and
    cyclically reduced, is a rotation of a relator or of its inverse.  That
    one-sided proof suffices.  sigma is an automorphism of the free group,
    so it permutes the conjugacy classes up to inversion, and it fixes the
    relators that contain no moved generator; the lookup puts the image of
    every other one in the finite set C of the relators' classes.  So sigma
    maps C into itself, injectively, hence onto C: sigma^-1 maps C onto C
    too, every relator into N, so sigma(N) = N and sigma induces an
    automorphism of the group.  Where sigma stays within one block of
    `_product_blocks`, only the relators within the block are looked up,
    and the same count runs on their classes, since sigma maps a word in
    the block's letters to one: G is the direct product of the block's
    group and the others', and sigma maps a commutator [x_i, y] with y in
    another block to [sigma(x_i), y], which lies in the normal closure of
    the commutators of the block's generators with y.

    On f2xz, blocks {a, b} and {z}, the moves are a -> ab, a -> ba, b -> ab
    and b -> ba; z -> za maps [b, z] to no conjugate of a relator.  The
    signed maps (every image one letter) come first, then the moves.
    """
    g = p.generator_count
    reduced = [_cyclic_reduction(r.letters) for r in p.relators]
    rotations = _rotations(reduced)
    block = _product_blocks(g, reduced)
    within = [len({block[abs(x)] for x in w}) == 1 for w in reduced]
    containing: list[list[int]] = [[] for _ in range(g + 1)]
    for idx, w in enumerate(reduced):
        for x in {abs(y) for y in w}:
            containing[x].append(idx)
    # chi of letter x at index x, of x^-1 at -x (read from the end).
    weight = (0, *chi.values, *[-v for v in chi.values[::-1]])
    chi_of = weight.__getitem__

    def proved(sigma: dict[int, tuple[int, ...]], relators: list[tuple[int, ...]]) -> bool:
        """Whether sigma maps each relator to a conjugate of a relator or its inverse."""
        letters = {**sigma, **{-x: tuple([-y for y in w[::-1]]) for x, w in sigma.items()}}
        for w in relators:
            moved = tuple([y for x in w for y in letters.get(x, (x,))])
            # A signed map's image is already cyclically reduced.
            if moved not in rotations and _cyclic_reduction(_reduce(moved)) not in rotations:
                return False
        return True

    candidates = [{i: (-i,)} for i in range(1, g + 1)]
    candidates += [{i: (si * j,), j: (sj * i,)}
                   for i in range(1, g + 1) for j in range(i + 1, g + 1)
                   for si in (1, -1) for sj in (1, -1)]
    candidates += [{i: image} for i in range(1, g + 1) for j in range(1, g + 1)
                   if j != i and weight[j] == 0 for image in ((i, j), (j, i))]
    found = []
    for sigma in candidates:
        for x, w in sigma.items():
            if sum(map(chi_of, w)) != chi_of(x):
                break  # chi o sigma != chi
        else:
            # Every candidate's images name the generators it moves.
            one_block = len({block[abs(y)] for w in sigma.values() for y in w}) == 1
            relators = [reduced[idx] for idx in {idx for x in sigma for idx in containing[x]}
                        if within[idx] or not one_block]
            if not relators or proved(sigma, relators):
                found.append(sigma)
    return tuple(tuple(sigma.get(k, (k,)) for k in range(1, g + 1)) for sigma in found)


# Most elements of a group of signed generator maps that `generating_subset`
# lists.  The 3840 signed permutations of five generators, which zn:6's maps
# generate, fit.
MAX_LISTED_SYMMETRIES = 5000


def generating_subset(maps: Sequence[tuple[tuple[int, ...], ...]]
                      ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The maps, with the signed generator maps among them (every image one
    letter) cut down to a subsequence that generates the group they generate.

    The other maps follow whole, after the signed maps kept.  A greedy pass
    keeps a signed map only where the group generated by the maps kept
    before it lacks it.  A reverse pass then drops each kept map that
    the other kept maps generate: those generate a subgroup of the whole
    group G, so they generate G exactly when they reach more than |G|/2
    elements.  Each pass lists the group it builds one right coset Hx at a
    time (Dimino's algorithm), and only up to MAX_LISTED_SYMMETRIES
    elements.  Once the greedy pass outgrows that, the maps it has not read
    are kept unread and the reverse pass is skipped, so every dropped map is
    generated by the maps kept.

    A map is held as its images of 0, x_1..x_g, x_g^-1..x_1^-1, 2g + 1
    letters for a signed map, so that a letter indexes its own image (a
    negative index reads the inverses from the end) and a composite is one
    `map` over a tuple.
    """
    if not maps:
        return ()
    g = len(maps[0])
    full = [(0, *s, *[-x for x in s[::-1]]) for s in (sum(m, ()) for m in maps)]
    signed = [i for i, m in enumerate(full) if len(m) == 2 * g + 1]
    identity = (0, *range(1, g + 1), *range(-g, 0))

    def extend(h: list, generators: list, limit: int) -> list | None:
        """The group of the generators, listed from the list h of the group of
        all but the last, or None past `limit` elements."""
        elements, seen, reps = list(h), set(h), [identity]
        for r in reps:  # grows while it is walked
            for s in generators:
                x = tuple(map(r.__getitem__, s))
                if x not in seen:
                    if len(elements) + len(h) > limit:
                        return None
                    coset = [tuple(map(y.__getitem__, x)) for y in h]
                    seen.update(coset)
                    elements += coset
                    reps.append(x)
        return elements

    def greedy(indices, limit: int) -> tuple[list[int], list | None]:
        """The maps that a greedy pass keeps and the group they generate,
        listed; None where the listing outgrew `limit` and the pass stopped."""
        used: list[int] = []
        listed: list | None = [identity]
        members = {identity}
        for i in indices:
            if full[i] not in members:
                used.append(i)
                listed = extend(listed, [full[j] for j in used], limit)
                if listed is None:
                    break
                members = set(listed)
        return used, listed

    kept, listed = greedy(signed, MAX_LISTED_SYMMETRIES)
    if listed is None:
        kept += [j for j in signed if j > kept[-1]]
    else:
        for i in reversed(kept[:]):
            if greedy([j for j in kept if j != i], len(listed) // 2)[1] is None:
                kept.remove(i)
    others = [i for i, m in enumerate(full) if len(m) > 2 * g + 1]
    return tuple(maps[j] for j in kept + others)
