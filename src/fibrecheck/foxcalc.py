"""Images of Fox derivatives in the group ring of Q x Z, read off the image's action.

Words act through g |-> t^{chi(g)} * P(alpha(g)), where P is the right
regular permutation representation of the image Q of the quotient, read off
its permutations (`quotients.image_action`).  The image of a word w is
therefore a monomial matrix, with t^{chi(w)} at the entries (q, q*alpha(w))
for every element q, and the image of a Fox derivative is sum_g f_g * P(g),
one Laurent polynomial f_g per element g.  `fox_images`
reads every f_g of one relator in a single walk along it, carrying the
prefix's (alpha, chi) along the permutations: no Fox derivative is formed
in the free group ring, no word is formed and no matrix is multiplied.  Its
result is sparse, {i: block} for the generators x_i that the relator
contains, so the walk and everything that reads its blocks cost one step
per letter, not one per generator: a relator of 3 letters in a kernel
presentation of 25 generators gives at most 3 blocks, not 25.  The
representation has integer entries, so it is built once, over Z, and every
coefficient field reads the same images.  The convention throughout is row
vectors acted on from the right ("row-right"), and every report records
that string.
"""

from __future__ import annotations

from .quotients import FiniteQuotient, ImageAction, image_action
from .words import Character, Presentation, Word

__all__ = [
    "Representation",
    "build_representation",
    "fox_images",
    "CONVENTION",
]

CONVENTION = "row-right"


class Representation:
    """The action w |-> t^{chi(w)} P(alpha(w)) of a presentation over Z.

    `quotient` is alpha as given, and P is read off `action`, its image's.
    The matrices are monomial with integer entries, so one representation
    serves every coefficient field: a chain reads it over a field only
    through its boundary matrices.
    """

    __slots__ = ("presentation", "character", "quotient", "action")

    def __init__(self, presentation: Presentation, character: Character,
                 quotient: FiniteQuotient, action: ImageAction):
        self.presentation = presentation
        self.character = character
        self.quotient = quotient
        self.action = action


def build_representation(p: Presentation, chi: Character, q: FiniteQuotient) -> Representation:
    """The representation of p through chi and q; every relator must map to the identity."""
    if len(chi.values) != p.generator_count:
        raise ValueError("character length does not match presentation")
    if len(q.gen_images) != p.generator_count:
        raise ValueError("quotient images do not match presentation")
    for j, r in enumerate(p.relators):
        if q.group.word_image(r, q.gen_images) != 0 or chi.of_word(r) != 0:
            raise ValueError(f"relator not killed: relator {j + 1} does not map to the identity")
    return Representation(p, chi, q, image_action(q))


def fox_images(rep: Representation, r: Word) -> dict[int, dict[int, dict[int, int]]]:
    """The images of the dr/dx_i in Z[Q x Z], in one walk along r.

    The result maps the 0-based index i of each generator that r contains,
    in the order of its first letter, to its block: image g -> the integer
    coefficients {k: c} of f_{i,g} = sum c*t^k.  A generator that r lacks
    has dr/dx_i = 0 and no block, so the walk costs one permutation read and
    one dict update per letter.  With u the prefix before a letter, x_i adds
    t^{chi(u)} at alpha(u), and x_i^-1 adds -t^{chi(u) - chi_i} at
    alpha(u)*alpha(x_i)^-1, the image of the prefix u*x_i^-1.
    """
    action, values = rep.action, rep.character.values
    perms, inverses = action.perms, action.inverses
    blocks: dict[int, dict[int, dict[int, int]]] = {}
    g = k = 0  # alpha and chi of the prefix
    for x in r.letters:
        if x > 0:
            i = x - 1
            cell = blocks.setdefault(i, {}).setdefault(g, {})
            cell[k] = cell.get(k, 0) + 1
            g, k = perms[i][g], k + values[i]
        else:
            i = -x - 1
            g, k = inverses[i][g], k - values[i]
            cell = blocks.setdefault(i, {}).setdefault(g, {})
            cell[k] = cell.get(k, 0) - 1
    return blocks
