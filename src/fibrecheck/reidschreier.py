"""Reidemeister-Schreier rewriting of a finite-index kernel.

Given a presentation of G and a finite quotient, produce a presentation of
the kernel together with the restricted character.  The Schreier transversal
is chosen breadth-first in generator order, so output presentations are
deterministic; Schreier generators whose defining word reduces to nothing
(the spanning-tree edges) are eliminated on the spot.
"""

from __future__ import annotations

from .quotients import FiniteQuotient, regular_representation, restrict_to_image
from .words import Character, Presentation, Word, validate_character

__all__ = ["CosetAction", "SubgroupPresentation", "coset_action", "rewrite_subgroup"]


class CosetAction:
    """Right action of the generators on the cosets of the kernel."""

    __slots__ = ("quotient", "action")

    def __init__(self, quotient: FiniteQuotient, action: tuple[tuple[int, ...], ...]):
        self.quotient = quotient
        self.action = action  # one permutation per generator

    @property
    def degree(self) -> int:
        return len(self.action[0]) if self.action else 1

    def act(self, coset: int, letter: int) -> int:
        """Apply one signed generator letter to a coset."""
        perm = self.action[abs(letter) - 1]
        if letter > 0:
            return perm[coset]
        return perm.index(coset)


class SubgroupPresentation:
    """Presentation of the kernel with bookkeeping back to the ambient group."""

    __slots__ = ("presentation", "schreier_generators", "schreier_words",
                 "restricted_character", "index")

    def __init__(self, presentation: Presentation,
                 schreier_generators: dict[tuple[int, int], int | None],
                 schreier_words: tuple[Word, ...], restricted_character: Character, index: int):
        self.presentation = presentation
        # (coset, generator) -> kept subgroup generator index (1-based), or
        # None for a transversal-trivial Schreier generator.
        self.schreier_generators = schreier_generators
        self.schreier_words = schreier_words  # ambient word per kept generator
        self.restricted_character = restricted_character
        self.index = index


def coset_action(p: Presentation, q: FiniteQuotient) -> CosetAction:
    """Transitive action on the cosets of ker(alpha) inside the image."""
    q = restrict_to_image(p, q)
    perms = tuple(
        tuple(regular_representation(q.group, q.gen_images[i]))
        for i in range(p.generator_count)
    )
    return CosetAction(q, perms)


def rewrite_subgroup(p: Presentation, q: FiniteQuotient, chi: Character) -> SubgroupPresentation:
    """Present ker(alpha) and restrict the character to it."""
    action = coset_action(p, q)
    n = action.degree
    g = p.generator_count

    # Breadth-first Schreier transversal in generator order.
    transversal: list[Word | None] = [None] * n
    transversal[0] = Word()
    tree_edges: set[tuple[int, int]] = set()
    queue = [0]
    while queue:
        c = queue.pop(0)
        for i in range(1, g + 1):
            c2 = action.act(c, i)
            if transversal[c2] is None:
                transversal[c2] = transversal[c] * Word((i,))
                tree_edges.add((c, i))
                queue.append(c2)

    # Kept Schreier generators s_{c,i} = T(c) x_i T(c.x_i)^-1, tree edges dropped.
    schreier: dict[tuple[int, int], int | None] = {}
    words: list[Word] = []
    values: list[int] = []
    for c in range(n):
        for i in range(1, g + 1):
            if (c, i) in tree_edges:
                schreier[(c, i)] = None
                continue
            c2 = action.act(c, i)
            w = transversal[c] * Word((i,)) * transversal[c2].inverse()
            schreier[(c, i)] = len(words) + 1
            words.append(w)
            values.append(chi.of_word(transversal[c]) + chi.values[i - 1]
                          - chi.of_word(transversal[c2]))

    def rewrite(start: int, r: Word) -> Word:
        letters: list[int] = []
        c = start
        for x in r.letters:
            if x > 0:
                idx = schreier[(c, x)]
                if idx is not None:
                    letters.append(idx)
                c = action.act(c, x)
            else:
                c = action.act(c, x)
                idx = schreier[(c, -x)]
                if idx is not None:
                    letters.append(-idx)
        if c != start:
            raise AssertionError("relator does not stabilise its starting coset")
        return Word.of(letters)

    relators = []
    for r in p.relators:
        for c in range(n):
            relators.append(rewrite(c, r))

    names = tuple(f"{p.generator_names[i - 1]}_{c}"
                  for c in range(n) for i in range(1, g + 1)
                  if schreier[(c, i)] is not None)
    sub = Presentation(names, tuple(relators))
    restricted = validate_character(sub, values)
    return SubgroupPresentation(sub, schreier, tuple(words), restricted, n)
