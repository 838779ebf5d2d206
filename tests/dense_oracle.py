"""Test-only oracles: words evaluated as matrices, one at a time.

`fibrecheck.alexander.build_chain` fills b1 and b2 from one walk per
relator (`fibrecheck.foxcalc.fox_images`).  This module keeps two older
routes as references.  `evaluate` maps each word of a group-ring element to
the monomial matrix t^{chi(w)} P(alpha(w)), with alpha(w) read off the
group table.  `DenseRepresentation` multiplies one dense n x n matrix per
generator and per inverse, letter by letter, and a group-ring element's
image is the sum of its scaled word images.  The tests compare the routes
entry for entry, and `DenseRepresentation` also takes generator matrices of
another convention, such as the transposed one.
"""

from __future__ import annotations

from fibrecheck.alexander import TwistedChain
from fibrecheck.foxcalc import GroupRingElement, Representation, fox_derivative
from fibrecheck.polyalg import CoefficientField, LaurentPoly, PolyMatrix
from fibrecheck.quotients import regular_representation
from fibrecheck.words import Presentation, Word


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


class DenseRepresentation:
    """Generator matrices and their inverses, multiplied letter by letter."""

    def __init__(self, field: CoefficientField, dim: int,
                 matrices: list[PolyMatrix], inverses: list[PolyMatrix]):
        self.field = field
        self.dim = dim
        self.matrices = matrices
        self.inverses = inverses
        self._word_cache: dict[tuple[int, ...], PolyMatrix] = {}

    @classmethod
    def of(cls, rep: Representation) -> "DenseRepresentation":
        """The matrices t^{chi(x_i)} P(alpha(x_i)) of the right regular action."""
        group, field, n = rep.quotient.group, rep.field, rep.dim
        matrices, inverses = [], []
        for e, k in zip(rep.quotient.gen_images, rep.character.values):
            perm = regular_representation(group, e)
            perm_inv = regular_representation(group, group.inverse(e))
            fwd = PolyMatrix.zeros(field, n, n)
            bwd = PolyMatrix.zeros(field, n, n)
            for row in range(n):
                fwd.entries[row][perm[row]] = LaurentPoly.term(field, 1, k)
                bwd.entries[row][perm_inv[row]] = LaurentPoly.term(field, 1, -k)
            matrices.append(fwd)
            inverses.append(bwd)
        return cls(field, n, matrices, inverses)

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

    def evaluate(self, e: GroupRingElement) -> PolyMatrix:
        """Linear extension of the word action to group-ring elements."""
        out = PolyMatrix.zeros(self.field, self.dim, self.dim)
        for w, c in e.terms.items():
            fc = self.field.of_int(c)
            img = self.phi(w)
            scaled = PolyMatrix(self.field, [[x.scale(fc) for x in row] for row in img.entries],
                                img.rows, img.cols)
            out = out + scaled
        return out


def dense_chain(p: Presentation, dense: DenseRepresentation, rep: Representation) -> TwistedChain:
    """b1 and b2 assembled from the dense images, labelled with `rep`.

    b1 stacks the blocks phi(x_i) - I and b2 the evaluated Fox derivatives;
    `fibrecheck.alexander.build_chain` fills the same matrices from the
    group table.
    """
    ident = PolyMatrix.identity(dense.field, dense.dim)
    b1 = PolyMatrix.vstack([dense.generator_matrix(i) - ident
                            for i in range(1, p.generator_count + 1)])
    if p.relators:
        b2 = PolyMatrix.vstack([
            PolyMatrix.hstack([dense.evaluate(fox_derivative(r, i))
                               for i in range(1, p.generator_count + 1)])
            for r in p.relators
        ])
    else:
        b2 = PolyMatrix.zeros(dense.field, 0, p.generator_count * dense.dim)
    return TwistedChain(p, rep, b1, b2)
