"""Reidemeister-Schreier rewriting of a finite-index kernel.

Given a presentation of G and a finite quotient, produce a presentation of
the kernel together with the restricted character.  The Schreier transversal
is chosen breadth-first in generator order, so output presentations are
deterministic; Schreier generators whose defining word reduces to nothing
(the spanning-tree edges) are eliminated on the spot.  The cosets are the
elements of the image, and the rewrite reads the permutations of the
image's action that the twisted chain reads (`quotients.image_action`), so
rewriting a relator from one coset costs one permutation read per letter.
The tree is `quotients.schreier_tree`, the one walk that the chain's closed
form of H0 reads too: each coset's character value is kept from the walk
that reaches it instead of being summed again along its transversal word,
and d, with dZ = chi(ker alpha), is the gcd of the restricted character's
values.  With the restricted character, the Fox matrix of the rewritten
relators is the twisted chain's b2 less the tree's columns, the matrix that
the twisted order route eliminates, up to monomial units on its rows and
columns and the zero rows of relators that reduce to nothing: relator r
read from coset c is row (r, c) of b2, and s_{c,i} is column (i, c).
"""

from __future__ import annotations

from .alexander import InternalCheckError
from .quotients import FiniteQuotient, image_action, schreier_tree
from .words import Character, Presentation, Word, validate_character

__all__ = ["SubgroupPresentation", "rewrite_subgroup"]


class SubgroupPresentation:
    """Presentation of the kernel with bookkeeping back to the ambient group."""

    __slots__ = ("presentation", "schreier_words", "restricted_character", "index")

    def __init__(self, presentation: Presentation, schreier_words: tuple[Word, ...],
                 restricted_character: Character, index: int):
        self.presentation = presentation
        self.schreier_words = schreier_words  # ambient word per kept generator
        self.restricted_character = restricted_character
        self.index = index


def rewrite_subgroup(p: Presentation, q: FiniteQuotient, chi: Character) -> SubgroupPresentation:
    """Present ker(alpha) and restrict the character to it.

    Raises `InternalCheckError` if a rewritten relator does not return to
    the coset it started from, which a well-defined action never allows.
    """
    action = image_action(q)
    forward, backward = action.perms, action.inverses
    n = action.order
    g = p.generator_count
    values = chi.values
    transversal, height, tree = schreier_tree(action, values)
    tree = set(tree)

    # Kept Schreier generators s_{c,i} = T(c) x_i T(c.x_i)^-1, tree edges,
    # where T(c.x_i) = T(c) x_i, dropped.  A kept word is reduced: T(c.x_i)
    # ends in x_i only where c.x_i = c'.x_i with (c', i) a tree edge, so
    # c' = c and (c, i) is that tree edge.  kept[i - 1][c] is the index of
    # s_{c,i}, 0 for a tree edge.
    kept = [[0] * n for _ in range(g)]
    names: list[str] = []
    words: list[Word] = []
    sub_values: list[int] = []
    for c in range(n):
        for i in range(1, g + 1):
            if (i - 1) * n + c in tree:
                continue
            c2 = forward[i - 1][c]
            kept[i - 1][c] = len(words) + 1
            names.append(f"{p.generator_names[i - 1]}_{c}")
            words.append(Word(transversal[c] + (i,) + tuple([-x for x in reversed(transversal[c2])])))
            sub_values.append(height[c] + values[i - 1] - height[c2])

    relators = []
    for j, r in enumerate(p.relators):
        for start in range(n):
            letters: list[int] = []
            c = start
            for x in r.letters:
                if x > 0:
                    k = kept[x - 1][c]
                    if k:
                        letters.append(k)
                    c = forward[x - 1][c]
                else:
                    c = backward[-x - 1][c]
                    k = kept[-x - 1][c]
                    if k:
                        letters.append(-k)
            if c != start:
                raise InternalCheckError(
                    f"Reidemeister-Schreier: relator {j + 1} read from coset {start} "
                    f"ends at coset {c}")
            # Presentation reduces each relator freely and drops the empty ones.
            relators.append(Word(tuple(letters)))

    sub = Presentation(tuple(names), tuple(relators))
    restricted = validate_character(sub, sub_values)
    return SubgroupPresentation(sub, tuple(words), restricted, n)
