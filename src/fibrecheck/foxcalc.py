"""Fox free differential calculus and its matrix evaluation.

Words act through g |-> t^{phi(g)} * P(alpha(g)), where P is the right
regular permutation representation of the finite quotient; the convention
throughout is row vectors acted on from the right ("row-right"), and every
report records that string.
"""

from __future__ import annotations

from functools import lru_cache

from .polyalg import CoefficientField, LaurentPoly, PolyMatrix
from .quotients import FiniteQuotient, regular_representation
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


class Representation:
    """Per-generator matrices t^{phi(x_i)} P(alpha(x_i)) over a field."""

    def __init__(self, presentation: Presentation, character: Character,
                 quotient: FiniteQuotient, field: CoefficientField,
                 matrices: list[PolyMatrix], inverses: list[PolyMatrix]):
        self.presentation = presentation
        self.character = character
        self.quotient = quotient
        self.field = field
        self.matrices = matrices
        self.inverses = inverses
        self._word_cache: dict[tuple[int, ...], PolyMatrix] = {}

    @property
    def dim(self) -> int:
        return self.quotient.group.order

    def generator_matrix(self, i: int) -> PolyMatrix:
        return self.matrices[i - 1]

    def phi(self, w: Word) -> PolyMatrix:
        """Image of a word: the product of generator matrix images."""
        cached = self._word_cache.get(w.letters)
        if cached is not None:
            return cached
        out = PolyMatrix.identity(self.field, self.dim)
        for x in w.letters:
            out = out @ (self.matrices[x - 1] if x > 0 else self.inverses[-x - 1])
        self._word_cache[w.letters] = out
        return out


def build_representation(p: Presentation, chi: Character, q: FiniteQuotient,
                         field: CoefficientField) -> Representation:
    """Build generator matrices and verify every relator maps to the identity."""
    if len(chi.values) != p.generator_count:
        raise ValueError("character length does not match presentation")
    if len(q.gen_images) != p.generator_count:
        raise ValueError("quotient images do not match presentation")
    group = q.group
    n = group.order
    matrices, inverses = [], []
    for i in range(p.generator_count):
        e = q.gen_images[i]
        perm = regular_representation(group, e)
        perm_inv = regular_representation(group, group.inverse(e))
        fwd = PolyMatrix.zeros(field, n, n)
        bwd = PolyMatrix.zeros(field, n, n)
        k = chi.values[i]
        for row in range(n):
            fwd.entries[row][perm[row]] = LaurentPoly.term(field, 1, k)
            bwd.entries[row][perm_inv[row]] = LaurentPoly.term(field, 1, -k)
        matrices.append(fwd)
        inverses.append(bwd)
    rep = Representation(p, chi, q, field, matrices, inverses)
    ident = PolyMatrix.identity(field, n)
    for j, r in enumerate(p.relators):
        if rep.phi(r) != ident:
            raise ValueError(f"relator not killed: relator {j + 1} does not map to the identity")
    return rep


def evaluate(rep: Representation, e: GroupRingElement) -> PolyMatrix:
    """Linear extension of the word action to group-ring elements."""
    out = PolyMatrix.zeros(rep.field, rep.dim, rep.dim)
    for w, c in e.terms.items():
        fc = rep.field.of_int(c)
        img = rep.phi(w)
        scaled = PolyMatrix(rep.field, [[x.scale(fc) for x in row] for row in img.entries],
                            img.rows, img.cols)
        out = out + scaled
    return out
