"""Test-only oracle: direct products of presentations, and the degree-1
vanishing of a product at a quotient pulled back from its first factor.

No command takes a product; the tests use one to check that a vanishing
twisted polynomial of (G, chi) stays vanishing on G x H with chi extended
by 0, and that crossing with the trivial group changes nothing.
"""

from __future__ import annotations

from typing import Sequence

from fibrecheck.alexander import full_report
from fibrecheck.polyalg import CoefficientField
from fibrecheck.quotients import FiniteQuotient
from fibrecheck.words import Character, Presentation, Word


def _fresh_names(taken: list[str], wanted: Sequence[str]) -> list[str]:
    out = []
    for name in wanted:
        candidate, k = name, 2
        while candidate in taken or candidate in out:
            candidate = f"{name}_{k}"
            k += 1
        out.append(candidate)
    return out


def direct_product(pa: Presentation, pb: Presentation) -> Presentation:
    """Presentation of the direct product: both relator sets plus all commutators."""
    ga = pa.generator_count
    names = list(pa.generator_names) + _fresh_names(list(pa.generator_names), pb.generator_names)
    relators = list(pa.relators)
    for r in pb.relators:
        relators.append(Word(tuple(x + ga if x > 0 else x - ga for x in r.letters)))
    for i in range(1, ga + 1):
        for j in range(ga + 1, ga + pb.generator_count + 1):
            relators.append(Word((i, j, -i, -j)))
    return Presentation(tuple(names), tuple(relators))


def product_vanishing_test(p1: Presentation, chi1: Character, q1: FiniteQuotient,
                           p2: Presentation,
                           coefficient_field: CoefficientField | None = None) -> bool:
    """Degree-1 vanishing of (p1 x p2, (chi1, 0)) at the quotient pulled back
    through the projection onto the first factor."""
    if chi1.is_zero:
        raise ValueError("non-trivial character required on the first factor")
    coefficient_field = coefficient_field or CoefficientField.rationals()
    product = direct_product(p1, p2)
    chi = Character(chi1.values + (0,) * p2.generator_count)
    composite = FiniteQuotient(
        q1.group,
        q1.gen_images + (0,) * p2.generator_count,
        q1.surjective,
    )
    reports = full_report(product, chi, composite, coefficient_field)
    return reports[1].vanishing
