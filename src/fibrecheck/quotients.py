"""Finite target groups and homomorphism enumeration from a presentation.

Groups are stored as multiplication tables over element ids 0..order-1 with
the identity at id 0, which handles cyclic, symmetric, and user-loaded
groups uniformly at desk scale.  The table file format is::

    order: n
    <n rows of n whitespace-separated element ids>   # row g, column h -> g*h

Every table loaded from a file is checked to be a group's, associativity by
Light's test; the catalog's cyclic and symmetric tables are groups by
construction.  Orders above `MAX_GROUP_ORDER` are refused before a table is
built.  Homomorphisms are merged by `kernel_key`, a canonical label of the
kernel; `keyed_homs` gives each homomorphism with its key.  An automorphism
alpha of the target gives alpha o h the kernel of h, so `orbit_key` walks
one image per orbit of the target's automorphisms and serves the rest of
the orbit from a memo: the conjugations of any target, and for Z/m the
units, where a homomorphism onto the subgroup of index g, images a, has the
key of a/g in Z/(m/g).  Every key is `kernel_key`'s, so merging across
targets is unchanged.  And h is a homomorphism into Z/m exactly when
E a = 0 mod m, E the relators' exponent-sum matrix, so cyclic targets are
searched without their table.
A quotient's image is read as its action on its elements (`image_action`),
not built as a group with a table, and `schreier_tree` walks that action
once for every reader of its Schreier tree: the closed form of H0, the
columns of b2 that the order route collapses, and the Reidemeister-Schreier
rewrite of the kernel.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter, mul

from .words import Presentation, Word

__all__ = [
    "MAX_GROUP_ORDER",
    "FiniteGroup",
    "FiniteQuotient",
    "ImageLabel",
    "ImageAction",
    "trivial_group",
    "cyclic_group",
    "symmetric_group",
    "load_table_group",
    "trivial_quotient",
    "make_quotient",
    "enumerate_homs",
    "keyed_homs",
    "orbit_key",
    "image_closure",
    "kernel_key",
    "build_catalog",
    "image_label",
    "image_action",
    "schreier_tree",
]

# Largest target order: that of S5.  A table holds order^2 entries, all built
# and checked before any use (z100000 would ask for 10^10), and the scan's
# chains have blocks of the order's size.
MAX_GROUP_ORDER = 120


def _check_group_order(n: int, what: str) -> None:
    """Refuse an order above MAX_GROUP_ORDER before anything of that size is built."""
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"{what} {n} is too large: at most {MAX_GROUP_ORDER} is supported")


def _labels(table: tuple[tuple[int, ...], ...], generators) -> dict[int, int]:
    """What right multiplication by the generators reaches from 0, each element
    with its position in the breadth-first walk, in generator order; in a
    finite group, the subgroup they generate."""
    label = {0: 0}
    elements = [0]
    for e in elements:  # grows while it is walked
        row = table[e]
        for s in generators:
            if row[s] not in label:
                label[row[s]] = len(elements)
                elements.append(row[s])
    return label


def _kernel_key(table: tuple[tuple[int, ...], ...],
                images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """`kernel_key` of the homomorphism with these generator images: the
    generator permutations on the image, labelled by `_labels`."""
    label = _labels(table, images)
    return tuple(tuple([label[table[e][s]] for e in label]) for s in images)


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
        if any(table[row[a]] != tuple(map(row.__getitem__, table[a])) for row in table):
            return False
        reached = _labels(table, generators)
    return True


def _check_table(n: int, table: tuple[tuple[int, ...], ...]) -> None:
    """Refuse a table of order n that is not a group's with identity id 0:
    its shape, its range, the identity, inverses and Light's test.  Tables
    enter from outside only through `load_table_group`."""
    # Each check walks whole rows and columns in C: min, max, zip, `in`.
    if n < 1 or len(table) != n or any(len(row) != n for row in table):
        raise ValueError("malformed multiplication table")
    if min(map(min, table)) < 0 or max(map(max, table)) >= n:
        raise ValueError("table entry out of range")
    identity = tuple(range(n))
    if table[0] != identity or next(zip(*table)) != identity:
        raise ValueError("id 0 is not an identity element")
    for g, row in enumerate(table):
        if 0 not in row:
            raise ValueError(f"element {g} has no inverse")
    if not _is_associative(table):
        raise ValueError("table is not associative")


class FiniteGroup:
    """Finite group as a multiplication table with identity id 0, taken as
    given: a table from outside passes `_check_table` first."""

    __slots__ = ("order", "table", "name", "perms", "columns", "cyclic", "_inverses")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], name: str,
                 perms: tuple[tuple[int, ...], ...] | None = None):
        self.order = order
        self.table = table
        self.name = name
        self.perms = perms  # set when built from permutations
        self.columns = tuple(zip(*table))  # column a: right multiplication by a, g -> g*a
        # Z/n's own table, g*h = g+h mod n: row 1 is h -> 1+h, so that g = 1^g.
        identity = table[0]  # 0, 1, ..., order - 1
        self.cyclic = table[1 % order] == identity[1:] + identity[:1]
        self._inverses = tuple(row.index(0) for row in table)

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inverse(self, g: int) -> int:
        return self._inverses[g]

    def word_image(self, w: Word, images: tuple[int, ...]) -> int:
        e = 0
        for x in w.letters:
            e = self.mul(e, images[x - 1] if x > 0 else self.inverse(images[-x - 1]))
        return e


class FiniteQuotient:
    """Generator images defining a homomorphism onto (a subgroup of) a group."""

    __slots__ = ("group", "gen_images", "surjective")

    def __init__(self, group: FiniteGroup, gen_images: tuple[int, ...], surjective: bool):
        self.group = group
        self.gen_images = gen_images
        self.surjective = surjective

    def label(self) -> dict:
        return ImageLabel(self.group.name, self.group.order, self.gen_images).label()


class ImageLabel:
    """A quotient's image as a report names it (`image_label`)."""

    __slots__ = ("name", "order", "gen_images")

    def __init__(self, name: str, order: int, gen_images: tuple[int, ...]):
        self.name = name
        self.order = order
        self.gen_images = gen_images

    def label(self) -> dict:
        return {"name": self.name, "order": self.order, "gen_images": list(self.gen_images)}


class ImageAction(ImageLabel):
    """The image of a quotient as its right regular action on its points
    0..order-1, the labels of its elements; `perms[i]` takes g to g*alpha(x_i)
    and `inverses[i]` to g*alpha(x_i)^-1.  Its label has the label of
    alpha(x_i), perms[i][0], as gen_images[i]."""

    __slots__ = ("perms", "inverses")

    def __init__(self, name: str, order: int, perms: tuple[tuple[int, ...], ...],
                 inverses: tuple[tuple[int, ...], ...]):
        super().__init__(name, order, tuple([perm[0] for perm in perms]))
        self.perms = perms
        self.inverses = inverses


def schreier_tree(action: ImageAction, values: tuple[int, ...]
                  ) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """The breadth-first Schreier tree of the action from point 0, in
    generator order: each point c's transversal word T(c), a positive word
    of generator numbers, its height, the sum of `values` along T(c), and
    the tree's n - 1 edges, in the order the walk takes them.

    The edge c -> c*alpha(x_i) is numbered (i - 1)*n + c, n the order: the
    row of b1 and the column of b2 that it indexes in the twisted chain.
    It is a tree edge where T(c*alpha(x_i)) is T(c) x_i; every other edge
    closes the Schreier generator T(c) x_i T(c*alpha(x_i))^-1 of the
    kernel, whose value is height(c) + values[i] - height(c*alpha(x_i)),
    and a tree edge's is 0.
    """
    n = action.order
    transversal: list = [None] * n
    transversal[0] = ()
    height = [0] * n
    tree: list[int] = []
    reached = [0]
    for c in reached:  # grows while it is walked
        for i, (perm, k) in enumerate(zip(action.perms, values), 1):
            c2 = perm[c]
            if transversal[c2] is None:
                transversal[c2] = transversal[c] + (i,)
                height[c2] = height[c] + k
                tree.append((i - 1) * n + c)
                reached.append(c2)
    return transversal, height, tree


def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, ((0,),), "trivial")


def cyclic_group(m: int) -> FiniteGroup:
    if m < 1:
        raise ValueError("cyclic group order must be positive")
    _check_group_order(m, "cyclic group order")
    row = tuple(range(m))
    table = tuple(row[g:] + row[:g] for g in range(m))  # row g: g + h mod m
    return FiniteGroup(m, table, f"Z/{m}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements the permutations of 0..n-1 in lexicographic order.

    Its order is checked against MAX_GROUP_ORDER before any permutation is
    listed, on the product 2*3*...*k, which stops once it passes the cap, so
    n! is never formed for a large n."""
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > MAX_GROUP_ORDER:
            break
    _check_group_order(order, f"symmetric group S{n} of order at least")
    perms = tuple(itertools.permutations(range(n)))
    if n < 2:  # itemgetter of one index gives a scalar, of none raises
        return FiniteGroup(1, ((0,),), f"S{n}", perms=perms)
    index = {p: i for i, p in enumerate(perms)}.__getitem__
    # Composition left-to-right: (g*h)(x) = h(g(x)), that is itemgetter(*g)(h).
    table = tuple([tuple(map(index, map(itemgetter(*g), perms))) for g in perms])
    return FiniteGroup(len(perms), table, f"S{n}", perms=perms)


def load_table_group(text: str, name: str) -> FiniteGroup:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("order:"):
        raise ValueError("table group file must start with 'order: n'")
    try:
        n = int(lines[0].split(":", 1)[1])
    except ValueError:
        raise ValueError("bad order line in table group file")
    if n < 1:
        raise ValueError(f"table group order {n} must be at least 1")
    _check_group_order(n, "table group order")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    table = tuple([tuple(int(x) for x in ln.split()) for ln in lines[1:]])
    _check_table(n, table)
    return FiniteGroup(n, table, name)


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
    return set(_labels(g.table, list(seeds)))


def enumerate_homs(p: Presentation, target: FiniteGroup,
                   surjective_only: bool = False) -> list[FiniteQuotient]:
    """All homomorphisms into the target, lexicographic in image tuples
    (`keyed_homs` without the keys)."""
    return [FiniteQuotient(target, images, onto) for images, key in keyed_homs(p, target)
            if (onto := len(key[0]) == target.order) or not surjective_only]


def keyed_homs(p: Presentation, target: FiniteGroup, memo: dict | None = None
               ) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """The generator images of every homomorphism into the target with its
    `kernel_key`, lexicographic in image tuples.

    Backtracking assigns generator images one at a time and checks each
    relator once the generators that decide it are assigned: into Z/m by
    its exponent sums (`_exponent_sum_candidates`), into any other target
    through the table (`_table_candidates`).  Each key is `kernel_key`'s,
    from `orbit_key` with `memo`: for a cyclic target, one dict that a scan
    shares across all its cyclic targets; for any other, a dict of this
    target's own, which the caller keeps only while it reads this target,
    as its entries are keyed by the image tuple alone.  The length of the
    key's permutations is the image's order.  The search recurses over the
    first g - 1 generators only; each candidate of the last completes a
    homomorphism in the loop over them.
    """
    g, order = p.generator_count, target.order
    candidates = (_exponent_sum_candidates(p, order) if target.cyclic
                  else _table_candidates(p, target))
    memo = {} if memo is None else memo
    out: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = []
    images: list[int] = []

    def descend():
        if len(images) == g - 1:  # the leaves: each candidate completes a homomorphism
            prefix = tuple(images)
            for e in candidates(images):
                imgs = prefix + (e,)
                out.append((imgs, orbit_key(target, imgs, memo)))
            return
        for e in candidates(images):
            images.append(e)
            descend()
            images.pop()

    descend()
    return out


def _table_candidates(p: Presentation, target: FiniteGroup):
    """The images of generator k + 1, given those of x_1..x_k, that kill
    every relator whose last generator it is, walked through the table.

    At each search node those relators are resolved once into indices of
    `ids`: each run of assigned letters, inverses included, becomes one
    element id, and each letter of the new generator points at slot 0 (x)
    or 1 (x^-1), which hold the candidate image and its inverse.  A
    candidate then costs one table read per run and per new letter.
    """
    table, inverse, order = target.table, target._inverses, target.order
    by_last_gen: dict[int, list[Word]] = {}
    for r in p.relators:
        by_last_gen.setdefault(r.max_index(), []).append(r)

    def candidates(images: list[int]) -> list[int]:
        k = len(images)
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
        found = []
        for e in range(order):
            ids[0], ids[1] = e, inverse[e]
            for steps in checks:
                v = 0
                for y in steps:
                    v = table[v][ids[y]]
                if v:
                    break
            else:
                found.append(e)
        return found

    return candidates


def _exponent_sum_candidates(p: Presentation, m: int):
    """`_table_candidates` for Z/m, read off the relators' exponent sums.

    A relator with exponent sums e maps to e.a in Z/m, so it holds exactly
    when e.a = 0 mod m, which is decided at its last generator k + 1 whose
    sum is nonzero mod m: s + c x = 0 mod m, with s the sum over the
    assigned images and c = e_{k+1}.  The first such relator is solved, as
    x = x0 mod m/gcd(c, m) where gcd(c, m) divides s, and each other one
    costs one multiply-add per solution.
    """
    g = p.generator_count
    deciding: list[list[list[int]]] = [[] for _ in range(g)]
    for r in p.relators:
        sums = [0] * g
        for x in r.letters:
            sums[abs(x) - 1] += 1 if x > 0 else -1
        nonzero = [j for j, e in enumerate(sums) if e % m]
        if nonzero:
            deciding[nonzero[-1]].append(sums)

    def candidates(images: list[int]):
        k = len(images)
        found = None
        for sums in deciding[k]:
            s, c = sum(map(mul, sums, images)), sums[k]
            if found is None:
                d = gcd(c, m)
                step = m // d
                found = range(-s // d * pow(c // d, -1, step) % step, m, step) if s % d == 0 else ()
            else:
                found = [e for e in found if (s + c * e) % m == 0]
        return range(m) if found is None else found

    return candidates


def orbit_key(target: FiniteGroup, images: tuple[int, ...], memo: dict
              ) -> tuple[tuple[int, ...], ...]:
    """`kernel_key` of the homomorphism with these images, walked once per
    orbit of the target's automorphisms and read from `memo` after.

    An automorphism alpha of the target gives alpha o h the kernel of h;
    the walk of alpha(a) labels alpha(x) as that of a labels x, so the key is
    the same too.  A walk registers the conjugates s^-1 a s over every s in
    the target, read from its table, which is exact onto any image.  Into
    Z/m it registers the unit multiples u a instead: images a onto the
    subgroup of index g = gcd(m, a) have the key of a/g in Z/(m/g), x -> g x
    being an isomorphism onto that subgroup, so the entry is (m/g, a/g),
    shared by every Z/m' with m/g dividing m'.  Such a memo maps each n to
    the units of Z/n other than 1, found once, and the keys of the images
    a/g into Z/n.  Other entries are keyed by the image tuple alone, so
    `memo` then holds one target's entries only: another table's ids name
    other elements.
    """
    if target.cyclic:
        g = gcd(target.order, *images)
        n = target.order // g
        entry = memo.get(n)
        if entry is None:
            entry = memo[n] = ([u for u in range(2, n) if gcd(u, n) == 1], {})
        units, keys = entry
        reduced = tuple([a // g for a in images])
        key = keys.get(reduced)
        if key is None:
            key = keys[reduced] = _kernel_key(target.table, images)
            for u in units:
                keys[tuple([u * a % n for a in reduced])] = key
        return key
    key = memo.get(images)
    if key is None:
        key = _kernel_key(target.table, images)
        table, inverse = target.table, target._inverses
        for s, column in enumerate(target.columns):
            row = table[inverse[s]]
            memo[tuple([row[column[a]] for a in images])] = key
    return key


def kernel_key(q: FiniteQuotient) -> tuple[tuple[int, ...], ...]:
    """Canonical label of ker(alpha): two keys are equal exactly when the kernels are.

    The image is labelled breadth-first from the identity, in generator
    order, and the key is the tuple of the generator permutations on those
    labels.  It describes the image as a pointed transitive set of the free
    group up to isomorphism, and such a set determines the stabiliser of its
    point, which is the kernel; conversely the kernel determines the set, its
    cosets.  Each permutation in the key has the image's order as its length.
    `orbit_key` gives this key for every homomorphism, walking one image
    per automorphism orbit of the target.
    """
    return _kernel_key(q.group.table, q.gen_images)


def image_label(q: FiniteQuotient) -> ImageLabel:
    """`image_action(q)`'s label, read off the image's elements with no
    permutation built: alpha(x_i) is labelled by its place among them in
    ascending ambient id, the point that perms[i] takes 0 to."""
    group, images = q.group, q.gen_images
    if q.surjective:
        return ImageLabel(group.name, group.order, images)
    elements = sorted(_labels(group.table, images))
    n = len(elements)
    return ImageLabel("trivial" if n == 1 else f"{group.name}>im{n}", n,
                      tuple(map(elements.index, images)))


def image_action(q: FiniteQuotient) -> ImageAction:
    """The action of q's image on its elements in ascending ambient id, read
    off the target's columns in O(order * generators), and named for the
    target where q is onto it, else "trivial" or "<target>>im<order>"."""
    group, images = q.group, q.gen_images
    columns = group.columns
    forward = [columns[a] for a in images]
    backward = [columns[group.inverse(a)] for a in images]
    if q.surjective:
        return ImageAction(group.name, group.order, tuple(forward), tuple(backward))
    elements = sorted(_labels(group.table, images))
    n = len(elements)
    label = dict(zip(elements, range(n)))
    return ImageAction("trivial" if n == 1 else f"{group.name}>im{n}", n,
                       tuple([tuple([label[column[e]] for e in elements]) for column in forward]),
                       tuple([tuple([label[column[e]] for e in elements]) for column in backward]))


def build_catalog(max_order: int, extra: list[FiniteGroup] | None = None) -> tuple[FiniteGroup, ...]:
    """Cyclic targets Z/2..Z/max, symmetric targets with n! <= max, extras.

    Targets come ordered by (order, name).  A name given twice with the same
    table is kept once; with two different tables it is refused.
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
    named: dict[str, FiniteGroup] = {}
    for g in sorted(groups, key=lambda g: (g.order, g.name)):
        if named.setdefault(g.name, g).table != g.table:
            raise ValueError(f"two different tables are named {g.name}")
    return tuple(named.values())
