"""Reidemeister-Schreier rewriting of a finite-index kernel.

Given a presentation of G and a finite quotient, produce a presentation of
the kernel together with the restricted character.  The Schreier transversal
is chosen breadth-first in generator order, so output presentations are
deterministic; Schreier generators whose defining word reduces to nothing
(the spanning-tree edges) are eliminated on the spot.  The action of each
generator and of its inverse on the cosets is read once, as two columns of
the image's table, so rewriting a relator from one coset costs one table
read per letter, and each coset's character value is kept from the
breadth-first search that reaches it instead of being summed again along
its transversal word.
"""

from __future__ import annotations

from .alexander import InternalCheckError
from .quotients import FiniteQuotient, restrict_to_image
from .words import Character, Presentation, Word, validate_character

__all__ = ["CosetAction", "SubgroupPresentation", "coset_action", "rewrite_subgroup"]


class CosetAction:
    """Right action of the generators, and of their inverses, on the cosets of the kernel."""

    __slots__ = ("quotient", "action", "inverse_action")

    def __init__(self, quotient: FiniteQuotient, action: tuple[tuple[int, ...], ...],
                 inverse_action: tuple[tuple[int, ...], ...]):
        self.quotient = quotient
        self.action = action  # one permutation per generator
        self.inverse_action = inverse_action  # its inverse, per generator

    @property
    def degree(self) -> int:
        return len(self.action[0]) if self.action else 1

    def act(self, coset: int, letter: int) -> int:
        """Apply one signed generator letter to a coset."""
        if letter > 0:
            return self.action[letter - 1][coset]
        return self.inverse_action[-letter - 1][coset]


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
    """Transitive action on the cosets of ker(alpha) inside the image.

    The cosets are the elements of the image, and x_i acts by right
    multiplication by alpha(x_i): its permutation is the column of the
    image's table at alpha(x_i), and that of x_i^-1 the column at its inverse.
    """
    q = restrict_to_image(p, q)
    table = q.group.table
    perms = tuple(tuple([row[a] for row in table]) for a in q.gen_images)
    inverses = tuple(tuple([row[b] for row in table]) for b in map(q.group.inverse, q.gen_images))
    return CosetAction(q, perms, inverses)


def rewrite_subgroup(p: Presentation, q: FiniteQuotient, chi: Character) -> SubgroupPresentation:
    """Present ker(alpha) and restrict the character to it.

    Raises `InternalCheckError` if a rewritten relator does not return to
    the coset it started from, which a well-defined action never allows.
    """
    action = coset_action(p, q)
    forward, backward = action.action, action.inverse_action
    n = action.degree
    g = p.generator_count
    values = chi.values

    # Breadth-first Schreier transversal in generator order: each coset gets
    # its transversal word T(c), a positive word, and its height chi(T(c)).
    transversal: list[tuple[int, ...] | None] = [None] * n
    transversal[0] = ()
    height = [0] * n
    tree_edges: set[tuple[int, int]] = set()
    reached = [0]
    for c in reached:  # grows while it is walked
        for i in range(g):
            c2 = forward[i][c]
            if transversal[c2] is None:
                transversal[c2] = transversal[c] + (i + 1,)
                height[c2] = height[c] + values[i]
                tree_edges.add((c, i + 1))
                reached.append(c2)

    # Kept Schreier generators s_{c,i} = T(c) x_i T(c.x_i)^-1, tree edges
    # dropped.  A kept word is reduced: T(c.x_i) ends in x_i only where
    # c.x_i = c'.x_i with (c', i) a tree edge, so c' = c and (c, i) is that
    # tree edge.  kept[i - 1][c] is the index of s_{c,i}, 0 for a tree edge.
    schreier: dict[tuple[int, int], int | None] = {}
    kept = [[0] * n for _ in range(g)]
    words: list[Word] = []
    sub_values: list[int] = []
    for c in range(n):
        for i in range(1, g + 1):
            if (c, i) in tree_edges:
                schreier[(c, i)] = None
                continue
            c2 = forward[i - 1][c]
            schreier[(c, i)] = kept[i - 1][c] = len(words) + 1
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

    names = tuple(f"{p.generator_names[i - 1]}_{c}"
                  for c in range(n) for i in range(1, g + 1)
                  if schreier[(c, i)] is not None)
    sub = Presentation(names, tuple(relators))
    restricted = validate_character(sub, sub_values)
    return SubgroupPresentation(sub, schreier, tuple(words), restricted, n)
