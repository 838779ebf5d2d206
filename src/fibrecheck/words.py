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
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    "direct_product",
    "tietze_variant",
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


@dataclass(frozen=True)
class Word:
    """Freely reduced word; letter i > 0 is generator i, -i its inverse."""

    letters: tuple[int, ...] = ()

    @classmethod
    def of(cls, letters: Iterable[int]) -> "Word":
        return cls(_reduce(letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word.of(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word.of(self.letters * n)

    def conjugated_by(self, w: "Word") -> "Word":
        """w * self * w^-1."""
        return w * self * w.inverse()

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def max_index(self) -> int:
        return max((abs(x) for x in self.letters), default=0)


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: named generators plus freely reduced relators."""

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if not self.generator_names:
            raise ParseError("zero generators")
        if len(set(self.generator_names)) != len(self.generator_names):
            raise ParseError("duplicate generator names")
        for name in self.generator_names:
            if not _NAME_RE.fullmatch(name):
                raise ParseError(f"bad generator name {name!r}")
        # Relators are stored freely reduced; empty ones are dropped.
        reduced = tuple(r for r in (Word.of(w.letters) for w in self.relators) if not r.is_identity)
        object.__setattr__(self, "relators", reduced)
        g = self.generator_count
        for r in self.relators:
            if r.max_index() > g:
                raise ParseError("relator uses generator index beyond generator count")

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    def generator(self, i: int) -> Word:
        """The one-letter word for generator i (1-based)."""
        if not 1 <= i <= self.generator_count:
            raise IndexError(f"generator index {i} out of range")
        return Word((i,))


@dataclass(frozen=True)
class Character:
    """Values of a homomorphism to the integers on each generator."""

    values: tuple[int, ...]

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
# constructions


def _fresh_names(taken: list[str], wanted: Sequence[str]) -> list[str]:
    out = []
    for name in wanted:
        candidate, k = name, 2
        while candidate in taken or candidate in out:
            candidate = f"{name}_{k}"
            k += 1
        out.append(candidate)
    return out


def direct_product(pa: Presentation, pb: Presentation) -> Presentation:
    """Presentation of the direct product: both relator sets plus all commutators."""
    ga = pa.generator_count
    names = list(pa.generator_names) + _fresh_names(list(pa.generator_names), pb.generator_names)
    relators = list(pa.relators)
    for r in pb.relators:
        relators.append(Word(tuple(x + ga if x > 0 else x - ga for x in r.letters)))
    for i in range(1, ga + 1):
        for j in range(ga + 1, ga + pb.generator_count + 1):
            relators.append(Word((i, j, -i, -j)))
    return Presentation(tuple(names), tuple(relators))


def tietze_variant(p: Presentation, move: str, **kwargs) -> Presentation:
    """Presentation of the same group after one Tietze move.

    move="redundant-relator": kwargs ``recipe`` is a nonempty list of
    (conjugator Word, relator index, exponent) triples; the product of
    conjugated relator powers is appended as a new relator.

    move="new-generator": kwargs ``name`` and ``defining`` (a Word in the
    old generators); appends generator ``name`` with relator
    new_gen * defining^-1.
    """
    if move == "redundant-relator":
        recipe = kwargs.get("recipe")
        if not recipe:
            raise ValueError("redundant-relator needs a nonempty recipe")
        w = Word()
        for item in recipe:
            try:
                conj, idx, exp = item
            except (TypeError, ValueError):
                raise ValueError(f"malformed recipe entry {item!r}")
            if not isinstance(conj, Word) or not 0 <= idx < len(p.relators):
                raise ValueError(f"malformed recipe entry {item!r}")
            w = w * (p.relators[idx] ** exp).conjugated_by(conj)
        if w.is_identity:
            raise ValueError("recipe reduces to the empty relator")
        return Presentation(p.generator_names, p.relators + (w,))
    if move == "new-generator":
        name, defining = kwargs.get("name"), kwargs.get("defining")
        if not name or not isinstance(defining, Word):
            raise ValueError("new-generator needs a name and a defining Word")
        new_index = p.generator_count + 1
        rel = Word((new_index,)) * defining.inverse()
        return Presentation(p.generator_names + (name,), p.relators + (rel,))
    raise ValueError(f"unknown Tietze move {move!r}")
