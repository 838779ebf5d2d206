"""Test-only oracles in the free group and its integral group ring ZF.

`fibrecheck.foxcalc.fox_images` reads the images of a relator's Fox
derivatives in Z[Q x Z] off the group table, in one walk along the
relator.  This module keeps the reference it is checked against: the Fox
derivatives themselves, as integer combinations of free-group words, and
the fundamental formula sum_i (dr/dx_i)(x_i - 1) = r - 1 in ZF.  It also
keeps the two Tietze moves, which change a presentation but not its group,
for the invariance tests.
"""

from __future__ import annotations

from functools import lru_cache

from fibrecheck.words import Presentation, Word


class GroupRingElement:
    """Integer combination of freely reduced words (an element of ZF)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def of_word(cls, w: Word, c: int = 1) -> "GroupRingElement":
        return cls({w: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        out: dict[Word, int] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u * v
                out[w] = out.get(w, 0) + cu * cv
        return GroupRingElement(out)

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        if self.is_zero:
            return "GroupRingElement(0)"
        body = " + ".join(f"{c}*{w.letters}" for w, c in sorted(self.terms.items(), key=lambda t: t[0].letters))
        return f"GroupRingElement({body})"


@lru_cache(maxsize=4096)
def _fox(letters: tuple[int, ...], i: int) -> GroupRingElement:
    # d(x u)/dx_i = d(x)/dx_i + x * d(u)/dx_i, with d(x_i)/dx_i = 1 and
    # d(x_i^-1)/dx_i = -x_i^-1; accumulated left to right over the word.
    out: dict[Word, int] = {}
    prefix: list[int] = []
    for x in letters:
        if x == i:
            w = Word(tuple(prefix))
            out[w] = out.get(w, 0) + 1
        prefix.append(x)
        if x == -i:
            w = Word(tuple(prefix))
            out[w] = out.get(w, 0) - 1
    return GroupRingElement(out)


def fox_derivative(r: Word, i: int) -> GroupRingElement:
    """Fox derivative of a freely reduced word with respect to generator i."""
    if i < 1:
        raise IndexError(f"generator index {i} out of range")
    return _fox(r.letters, i)


def fundamental_identity_check(p: Presentation, r: int) -> bool:
    """Verify sum_i (dr/dx_i)(x_i - 1) = r - 1 in the free group ring."""
    if not 0 <= r < len(p.relators):
        raise IndexError(f"relator index {r} out of range")
    rel = p.relators[r]
    one = GroupRingElement.of_word(Word())
    total = GroupRingElement.zero()
    for i in range(1, p.generator_count + 1):
        xi = GroupRingElement.of_word(p.generator(i))
        total = total + fox_derivative(rel, i) * (xi - one)
    return total == GroupRingElement.of_word(rel) - one


def power(w: Word, n: int) -> Word:
    """w^n in the free group; a negative n takes the inverse."""
    return Word.of((w if n >= 0 else w.inverse()).letters * abs(n))


def conjugate(w: Word, by: Word) -> Word:
    """by * w * by^-1."""
    return by * w * by.inverse()


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
            w = w * conjugate(power(p.relators[idx], exp), conj)
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
