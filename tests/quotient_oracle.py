"""Test-only oracles for `fibrecheck.quotients`.

`same_kernel` decides kernel equality by a closure in Q1 x Q2; `fibrecheck`
merges quotients by comparing `kernel_key`s instead, and the tests compare
the two.  `is_associative_brute` is the triple loop over all (g, h, k) that
Light's test in `FiniteGroup` replaces.
"""

from __future__ import annotations

from fibrecheck.quotients import FiniteQuotient, image_closure
from fibrecheck.words import Presentation


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


def is_associative_brute(table) -> bool:
    """(g*h)*k = g*(h*k) for every triple."""
    n = len(table)
    return all(table[table[g][h]][k] == table[g][table[h][k]]
               for g in range(n) for h in range(n) for k in range(n))
