"""Finite target groups and homomorphism enumeration from a presentation.

Groups are stored as multiplication tables over element ids 0..order-1 with
the identity at id 0, which handles cyclic, symmetric, and user-loaded
groups uniformly at desk scale.  The table file format is::

    order: n
    <n rows of n whitespace-separated element ids>   # row g, column h -> g*h

Every table is checked for associativity by Light's test, and orders above
`MAX_GROUP_ORDER` are refused before a table is built.  Homomorphisms are
merged by `kernel_key`, a canonical label of the kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import Presentation, Word

__all__ = [
    "MAX_GROUP_ORDER",
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
    "kernel_key",
    "regular_representation",
    "build_catalog",
    "restrict_to_image",
]

# Largest target order: that of S5.  A table holds order^2 entries, all built
# and checked before any use (z100000 would ask for 10^10), and the scan's
# chains have blocks of the order's size.
MAX_GROUP_ORDER = 120


def _check_group_order(n: int, what: str) -> None:
    """Refuse an order above MAX_GROUP_ORDER before anything of that size is built."""
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"{what} {n} is too large: at most {MAX_GROUP_ORDER} is supported")


def _orbit(table: tuple[tuple[int, ...], ...], generators) -> list[int]:
    """What right multiplication by the generators reaches from 0, breadth-first
    in generator order; in a finite group, the subgroup they generate."""
    elements = [0]
    seen = {0}
    for e in elements:  # grows while it is walked
        row = table[e]
        for s in generators:
            if row[s] not in seen:
                seen.add(row[s])
                elements.append(row[s])
    return elements


def _is_associative(table: tuple[tuple[int, ...], ...]) -> bool:
    """Light's test on a table whose id 0 is a two-sided identity.

    The elements a with (x*a)*y = x*(a*y) for all x and y are closed under
    products and include 0, so it suffices to check a set whose products
    reach every element.  It is chosen greedily: each element that the
    earlier ones do not reach from 0 joins it.  In a group each one at least
    doubles the subgroup reached, so order n needs at most log2(n) of them,
    and each costs n^2 lookups.
    """
    generators: list[int] = []
    reached = {0}
    for a in range(1, len(table)):
        if a in reached:
            continue
        generators.append(a)
        # Row x*a lists (x*a)*y over y; row x permuted by row a lists x*(a*y).
        if any(table[row[a]] != tuple(row[z] for z in table[a]) for row in table):
            return False
        reached = set(_orbit(table, generators))
    return True


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
        if not _is_associative(self.table):
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
    _check_group_order(m, "cyclic group order")
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
    _check_group_order(n, "table group order")
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
    for e in images:
        if not 0 <= e < group.order:
            raise ValueError(f"element id {e} out of range")
    for j, r in enumerate(p.relators):
        if group.word_image(r, images) != 0:
            raise ValueError(f"relator {j + 1} is not killed by the given images")
    surjective = len(image_closure(group, images)) == group.order
    return FiniteQuotient(group, images, surjective)


def image_closure(g: FiniteGroup, seeds) -> set[int]:
    """Smallest multiplicatively closed subset containing the seeds and 0."""
    return set(_orbit(g.table, list(seeds)))


def enumerate_homs(p: Presentation, target: FiniteGroup,
                   surjective_only: bool = False) -> list[FiniteQuotient]:
    """All homomorphisms into the target, lexicographic in image tuples.

    Backtracking assigns generator images one at a time and evaluates a
    relator as soon as all of its letters are assigned.  At each search node
    the relators whose last generator is the new one are resolved once into
    indices of `ids`: each run of assigned letters, inverses included,
    becomes one element id, and each letter of the new generator points at
    slot 0 (x) or 1 (x^-1), which hold the candidate image and its inverse.
    A candidate then costs one table read per run and per new letter.
    """
    g = p.generator_count
    table, inverse = target.table, target._inverses
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
        ids, checks = [0, 0], []
        for r in by_last_gen.get(k + 1, ()):
            steps, run = [], 0  # run: the element id of the assigned letters since the last new one
            for x in r.letters:
                if abs(x) == k + 1:
                    if run:
                        steps.append(len(ids))
                        ids.append(run)
                        run = 0
                    steps.append(0 if x > 0 else 1)
                else:
                    run = table[run][images[x - 1] if x > 0 else inverse[images[-x - 1]]]
            if run:
                steps.append(len(ids))
                ids.append(run)
            checks.append(steps)
        for e in range(target.order):
            ids[0], ids[1] = e, inverse[e]
            for steps in checks:
                v = 0
                for y in steps:
                    v = table[v][ids[y]]
                if v:
                    break
            else:
                images.append(e)
                descend()
                images.pop()

    descend()
    return out


def kernel_key(q: FiniteQuotient) -> tuple[tuple[int, ...], ...]:
    """Canonical label of ker(alpha): two keys are equal exactly when the kernels are.

    The image is labelled breadth-first from the identity, in generator
    order, and the key is the tuple of the generator permutations on those
    labels.  It describes the image as a pointed transitive set of the free
    group up to isomorphism, and such a set determines the stabiliser of its
    point, which is the kernel; conversely the kernel determines the set, its
    cosets.
    """
    elements = _orbit(q.group.table, q.gen_images)
    label = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(label[q.group.mul(e, s)] for e in elements) for s in q.gen_images)


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
