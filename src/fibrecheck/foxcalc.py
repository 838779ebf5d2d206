"""Images of Fox derivatives in the group ring of Q x Z, read off the group table.

Words act through g |-> t^{chi(g)} * P(alpha(g)), where P is the right
regular permutation representation of the finite quotient.  The image of a
word w is therefore a monomial matrix, with t^{chi(w)} at the entries
(q, q*alpha(w)) for every element q, and the image of a Fox derivative is
sum_g f_g * P(g), one Laurent polynomial f_g per image g.  `fox_images`
reads every f_g of one relator in a single walk along it, carrying the
prefix's (alpha, chi) through the group table: no Fox derivative is formed
in the free group ring, no word is formed and no matrix is multiplied.  The
representation has integer entries, so it is built once, over Z, and every
coefficient field reads the same images.  The convention throughout is row
vectors acted on from the right ("row-right"), and every report records
that string.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quotients import FiniteQuotient
from .words import Character, Presentation, Word

__all__ = [
    "Representation",
    "build_representation",
    "fox_images",
    "CONVENTION",
]

CONVENTION = "row-right"


@dataclass(frozen=True)
class Representation:
    """The action w |-> t^{chi(w)} P(alpha(w)) of a presentation over Z.

    Its matrices are monomial with integer entries, so one representation
    serves every coefficient field: a chain reads it over a field only
    through its boundary matrices.
    """

    presentation: Presentation
    character: Character
    quotient: FiniteQuotient

    @property
    def dim(self) -> int:
        return self.quotient.group.order


def build_representation(p: Presentation, chi: Character, q: FiniteQuotient) -> Representation:
    """The representation of p through chi and q; every relator must map to the identity."""
    if len(chi.values) != p.generator_count:
        raise ValueError("character length does not match presentation")
    if len(q.gen_images) != p.generator_count:
        raise ValueError("quotient images do not match presentation")
    for j, r in enumerate(p.relators):
        if q.group.word_image(r, q.gen_images) != 0 or chi.of_word(r) != 0:
            raise ValueError(f"relator not killed: relator {j + 1} does not map to the identity")
    return Representation(p, chi, q)


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
