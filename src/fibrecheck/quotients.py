"""Finite target groups and homomorphism enumeration from a presentation.

Groups are stored as multiplication tables over element ids 0..order-1 with
the identity at id 0, which handles cyclic, symmetric, and user-loaded
groups uniformly at desk scale.  The table file format is::

    order: n
    <n rows of n whitespace-separated element ids>   # row g, column h -> g*h
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import Presentation, Word

__all__ = [
    "FiniteGroup",
    "FiniteQuotient",
    "trivial_group",
    "cyclic_group",
    "symmetric_group",
    "load_table_group",
    "trivial_quotient",
    "make_quotient",
    "enumerate_homs",
    "image_closure",
    "same_kernel",
    "regular_representation",
    "build_catalog",
    "restrict_to_image",
]


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group as a multiplication table with identity id 0."""

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str
    perms: tuple[tuple[int, ...], ...] | None = None  # set when built from permutations

    def __post_init__(self):
        n = self.order
        if n < 1 or len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("malformed multiplication table")
        for row in self.table:
            if any(not 0 <= e < n for e in row):
                raise ValueError("table entry out of range")
        for g in range(n):
            if self.table[0][g] != g or self.table[g][0] != g:
                raise ValueError("id 0 is not an identity element")
        for g in range(n):
            if 0 not in self.table[g]:
                raise ValueError(f"element {g} has no inverse")
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    if self.table[self.table[g][h]][k] != self.table[g][self.table[h][k]]:
                        raise ValueError("table is not associative")
        object.__setattr__(self, "_inverses", tuple(row.index(0) for row in self.table))

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inverse(self, g: int) -> int:
        return self._inverses[g]

    def word_image(self, w: Word, images: tuple[int, ...]) -> int:
        e = 0
        for x in w.letters:
            e = self.mul(e, images[x - 1] if x > 0 else self.inverse(images[-x - 1]))
        return e


@dataclass(frozen=True)
class FiniteQuotient:
    """Generator images defining a homomorphism onto (a subgroup of) a group."""

    group: FiniteGroup
    gen_images: tuple[int, ...]
    surjective: bool

    def label(self) -> dict:
        return {
            "name": self.group.name,
            "order": self.group.order,
            "gen_images": list(self.gen_images),
        }


def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, ((0,),), "trivial")


def cyclic_group(m: int) -> FiniteGroup:
    if m < 1:
        raise ValueError("cyclic group order must be positive")
    table = tuple(tuple((g + h) % m for h in range(m)) for g in range(m))
    return FiniteGroup(m, table, f"Z/{m}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements the permutations of 0..n-1 in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # Composition left-to-right: (g*h)(x) = h(g(x)).
    table = tuple(
        tuple(index[tuple(h[g[x]] for x in range(n))] for h in perms) for g in perms
    )
    return FiniteGroup(len(perms), table, f"S{n}", perms=tuple(perms))


def load_table_group(text: str, name: str) -> FiniteGroup:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("order:"):
        raise ValueError("table group file must start with 'order: n'")
    try:
        n = int(lines[0].split(":", 1)[1])
    except ValueError:
        raise ValueError("bad order line in table group file")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1:]:
        row = tuple(int(x) for x in ln.split())
        table.append(row)
    return FiniteGroup(n, tuple(table), name)


def trivial_quotient(p: Presentation) -> FiniteQuotient:
    return FiniteQuotient(trivial_group(), (0,) * p.generator_count, True)


def make_quotient(p: Presentation, group: FiniteGroup, images: tuple[int, ...]) -> FiniteQuotient:
    """Validate relators and surjectivity for explicit generator images."""
    if len(images) != p.generator_count:
        raise ValueError("one image per generator required")
    for j, r in enumerate(p.relators):
        if group.word_image(r, images) != 0:
            raise ValueError(f"relator {j + 1} is not killed by the given images")
    surjective = len(image_closure(group, images)) == group.order
    return FiniteQuotient(group, images, surjective)


def image_closure(g: FiniteGroup, seeds) -> set[int]:
    """Smallest multiplicatively closed subset containing the seeds and 0."""
    closure = {0}
    frontier = [0]
    seeds = set(seeds)
    while frontier:
        e = frontier.pop()
        for s in seeds:
            for nxt in (g.mul(e, s), g.mul(e, g.inverse(s))):
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
    return closure


def enumerate_homs(p: Presentation, target: FiniteGroup,
                   surjective_only: bool = False) -> list[FiniteQuotient]:
    """All homomorphisms into the target, lexicographic in image tuples.

    Backtracking assigns generator images one at a time and evaluates a
    relator as soon as all of its letters are assigned.
    """
    g = p.generator_count
    by_last_gen: dict[int, list[Word]] = {}
    for r in p.relators:
        by_last_gen.setdefault(r.max_index(), []).append(r)
    out: list[FiniteQuotient] = []
    images: list[int] = []

    def descend():
        k = len(images)
        if k == g:
            imgs = tuple(images)
            surjective = len(image_closure(target, imgs)) == target.order
            if not surjective_only or surjective:
                out.append(FiniteQuotient(target, imgs, surjective))
            return
        for e in range(target.order):
            images.append(e)
            if all(target.word_image(r, tuple(images) + (0,) * (g - k - 1)) == 0
                   for r in by_last_gen.get(k + 1, ())):
                descend()
            images.pop()

    descend()
    return out


def same_kernel(p: Presentation, q1: FiniteQuotient, q2: FiniteQuotient) -> bool:
    """Kernel equality via the closure of paired generator images in Q1 x Q2.

    Both kernels agree exactly when the paired closure is no larger than
    either image, so the search aborts as soon as it grows past that size.
    """
    g1, g2 = q1.group, q2.group
    size1 = len(image_closure(g1, q1.gen_images))
    size2 = len(image_closure(g2, q2.gen_images))
    if size1 != size2:
        return False
    pairs = {(0, 0)}
    frontier = [(0, 0)]
    seeds = list(zip(q1.gen_images, q2.gen_images))
    while frontier:
        a, b = frontier.pop()
        for s1, s2 in seeds:
            for nxt in ((g1.mul(a, s1), g2.mul(b, s2)),
                        (g1.mul(a, g1.inverse(s1)), g2.mul(b, g2.inverse(s2)))):
                if nxt not in pairs:
                    pairs.add(nxt)
                    if len(pairs) > size1:
                        return False
                    frontier.append(nxt)
    return len(pairs) == size1


def regular_representation(g: FiniteGroup, e: int) -> list[int]:
    """Right-multiplication permutation q -> q*e as a lookup list."""
    if not 0 <= e < g.order:
        raise ValueError(f"element id {e} out of range")
    return [g.mul(q, e) for q in range(g.order)]


def restrict_to_image(p: Presentation, q: FiniteQuotient) -> FiniteQuotient:
    """Replace a non-surjective quotient by its image subgroup's table."""
    if q.surjective:
        return q
    elements = sorted(image_closure(q.group, q.gen_images))
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(
        tuple(index[q.group.mul(a, b)] for b in elements) for a in elements
    )
    name = "trivial" if len(elements) == 1 else f"{q.group.name}>im{len(elements)}"
    sub = FiniteGroup(len(elements), table, name)
    return FiniteQuotient(sub, tuple(index[e] for e in q.gen_images), True)


def build_catalog(max_order: int, extra: list[FiniteGroup] | None = None) -> tuple[FiniteGroup, ...]:
    """Cyclic targets Z/2..Z/max, symmetric targets with n! <= max, extras.

    Targets come ordered by (order, name), without duplicate (name, order) pairs.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    groups: list[FiniteGroup] = []
    for m in range(2, max_order + 1):
        groups.append(cyclic_group(m))
    n = 3
    while True:
        order = 1
        for k in range(2, n + 1):
            order *= k
        if order > max_order:
            break
        groups.append(symmetric_group(n))
        n += 1
    groups.extend(extra or [])
    seen: set[tuple[str, int]] = set()
    unique = []
    for g in sorted(groups, key=lambda g: (g.order, g.name)):
        if (g.name, g.order) not in seen:
            seen.add((g.name, g.order))
            unique.append(g)
    return tuple(unique)
