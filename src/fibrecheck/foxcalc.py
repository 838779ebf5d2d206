"""Fox free differential calculus and its monomial evaluation.

Words act through g |-> t^{chi(g)} * P(alpha(g)), where P is the right
regular permutation representation of the finite quotient.  The image of a
word w is therefore a monomial matrix, with t^{chi(w)} at the entries
(q, q*alpha(w)) for every element q, and `evaluate` reads alpha(w) off the
group table: no matrix is multiplied.  The convention throughout is row
vectors acted on from the right ("row-right"), and every report records that
string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .polyalg import CoefficientField, LaurentPoly, PolyMatrix
from .quotients import FiniteQuotient
from .words import Character, Presentation, Word

__all__ = [
    "GroupRingElement",
    "Representation",
    "fox_derivative",
    "fundamental_identity_check",
    "build_representation",
    "evaluate",
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
    """The action w |-> t^{chi(w)} P(alpha(w)) of a presentation over a field."""

    presentation: Presentation
    character: Character
    quotient: FiniteQuotient
    field: CoefficientField

    @property
    def dim(self) -> int:
        return self.quotient.group.order


def build_representation(p: Presentation, chi: Character, q: FiniteQuotient,
                         field: CoefficientField) -> Representation:
    """The representation of p through chi and q; every relator must map to the identity."""
    if len(chi.values) != p.generator_count:
        raise ValueError("character length does not match presentation")
    if len(q.gen_images) != p.generator_count:
        raise ValueError("quotient images do not match presentation")
    for j, r in enumerate(p.relators):
        if q.group.word_image(r, q.gen_images) != 0 or chi.of_word(r) != 0:
            raise ValueError(f"relator not killed: relator {j + 1} does not map to the identity")
    return Representation(p, chi, q, field)


def evaluate(rep: Representation, e: GroupRingElement) -> PolyMatrix:
    """Linear extension of the word action to group-ring elements.

    The terms c*w are gathered by their image g = alpha(w) into one Laurent
    polynomial f_g = sum c*t^{chi(w)}, and the image of e is sum_g f_g P(g):
    f_g sits at (q, q*g) for every q, and distinct g fill distinct entries.
    """
    group, images, chi = rep.quotient.group, rep.quotient.gen_images, rep.character
    by_image: dict[int, dict[int, int]] = {}
    for w, c in e.terms.items():
        shifts = by_image.setdefault(group.word_image(w, images), {})
        k = chi.of_word(w)
        shifts[k] = shifts.get(k, 0) + c
    out = PolyMatrix.zeros(rep.field, rep.dim, rep.dim)
    for g, shifts in by_image.items():
        f = LaurentPoly.from_int_coeffs(rep.field, shifts)
        for q in range(rep.dim):
            out.entries[q][group.mul(q, g)] = f
    return out
