"""Fox free differential calculus and its image in the group ring of Q x Z.

Words act through g |-> t^{chi(g)} * P(alpha(g)), where P is the right
regular permutation representation of the finite quotient.  The image of a
word w is therefore a monomial matrix, with t^{chi(w)} at the entries
(q, q*alpha(w)) for every element q, and the image of a Fox derivative is
sum_g f_g * P(g), one Laurent polynomial f_g per image g.  `fox_images`
reads every f_g of one relator in a single walk along it, carrying the
prefix's (alpha, chi) through the group table: no word is formed and no
matrix is multiplied.  The convention throughout is row vectors acted on
from the right ("row-right"), and every report records that string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .polyalg import CoefficientField
from .quotients import FiniteQuotient
from .words import Character, Presentation, Word

__all__ = [
    "GroupRingElement",
    "Representation",
    "fox_derivative",
    "fundamental_identity_check",
    "build_representation",
    "fox_images",
    "CONVENTION",
]

CONVENTION = "row-right"


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


@dataclass(frozen=True)
class Representation:
    """The action w |-> t^{chi(w)} P(alpha(w)) of a presentation over a field.

    Its matrices have integer entries, so `field` may be None: the
    representation over Z, before a coefficient field is chosen.
    """

    presentation: Presentation
    character: Character
    quotient: FiniteQuotient
    field: CoefficientField | None

    @property
    def dim(self) -> int:
        return self.quotient.group.order


def build_representation(p: Presentation, chi: Character, q: FiniteQuotient,
                         field: CoefficientField | None) -> Representation:
    """The representation of p through chi and q; every relator must map to the identity."""
    if len(chi.values) != p.generator_count:
        raise ValueError("character length does not match presentation")
    if len(q.gen_images) != p.generator_count:
        raise ValueError("quotient images do not match presentation")
    for j, r in enumerate(p.relators):
        if q.group.word_image(r, q.gen_images) != 0 or chi.of_word(r) != 0:
            raise ValueError(f"relator not killed: relator {j + 1} does not map to the identity")
    return Representation(p, chi, q, field)


def fox_images(rep: Representation, r: Word) -> list[dict[int, dict[int, int]]]:
    """The images of dr/dx_1, ..., dr/dx_g in Z[Q x Z], in one walk along r.

    Block i maps an image g to the integer coefficients {k: c} of
    f_{i,g} = sum c*t^k.  With u the prefix before a letter, x_i adds
    t^{chi(u)} at alpha(u), and x_i^-1 adds -t^{chi(u) - chi_i} at
    alpha(u)*alpha(x_i)^-1, the image of the prefix u*x_i^-1.
    """
    group, images, values = rep.quotient.group, rep.quotient.gen_images, rep.character.values
    table = group.table
    blocks: list[dict[int, dict[int, int]]] = [{} for _ in images]
    g = k = 0  # alpha and chi of the prefix
    for x in r.letters:
        if x > 0:
            cell = blocks[x - 1].setdefault(g, {})
            cell[k] = cell.get(k, 0) + 1
            g, k = table[g][images[x - 1]], k + values[x - 1]
        else:
            g, k = table[g][group.inverse(images[-x - 1])], k - values[-x - 1]
            cell = blocks[-x - 1].setdefault(g, {})
            cell[k] = cell.get(k, 0) - 1
    return blocks
