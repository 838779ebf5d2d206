"""Twisted chain maps from Fox data; vanishing and normalized orders.

The presentation gives a partial free resolution; acting on row vectors from
the right, b1 stacks the evaluated x_i - 1 and b2 holds the evaluated Fox
derivatives, with b2 @ b1 = 0.  Vanishing is decided on the rank route, the
ranks of b1 and b2 over F(t).  Each rank is first bounded from below by
`rank_lower_bound`, the rank after mapping t to a point of a finite field:
minors map to minors, so the bound never exceeds the true rank.  Where the
bound meets an upper bound known beforehand, min(rows, cols) for b1 and
rows(b1) - rank b1 for b2 (the rows of b2 lie in the left kernel of b1), it
is the rank.  Otherwise exact Bareiss elimination decides, so Bareiss runs
for every rank deficit, where vanishing must be certified exactly, and when
the point is a root of every maximal minor.  The Smith-normal-form route
computes the orders independently, with Smith forms taken over the Laurent
ring F[t^{+-1}] itself, where the monomial entries that fill b1 and b2 are
units: ord H0 from SNF(b1), and ord H1 from SNF(b2) alone, because over the
PID F[t^{+-1}] the sequence
0 -> H1 -> C1/rowspace(b2) -> im(b1) -> 0 splits (im(b1) lies in a free
module, so it is free) and C1/rowspace(b2) = H1 + im(b1).  So H1 is torsion
exactly when rank SNF(b2) = rows(b1) - rank SNF(b1), and its order is then
the product of the nonzero invariant factors of b2, the classical
Fox-matrix order (Wada 1994, Kirk-Livingston 1999).  Neither route reads the
other's result; if their vanishing verdicts disagree, the run is aborted as
internally inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .foxcalc import (
    CONVENTION,
    GroupRingElement,
    Representation,
    build_representation,
    evaluate,
    fox_derivative,
)
from .polyalg import (
    CoefficientField,
    LaurentPoly,
    PolyMatrix,
    SnfResult,
    rank_lower_bound,
    rank_over_fraction_field,
    smith_normal_form,
)
from .quotients import FiniteQuotient, restrict_to_image
from .words import Character, Presentation, Word, render_character, render_presentation

__all__ = [
    "InternalCheckError",
    "TwistedChain",
    "AlexanderReport",
    "DEFAULT_ORDER_CEILING",
    "build_chain",
    "h1_vanishing",
    "h1_order",
    "h0_report",
    "full_report",
]

DEFAULT_ORDER_CEILING = 96


class InternalCheckError(RuntimeError):
    """A mandatory internal cross-check failed; results are untrustworthy."""


def _certified_rank(m: PolyMatrix, upper: int) -> int:
    """Rank over F(t), given an upper bound on it.

    The finite-field rank is a lower bound, so where it reaches `upper` it
    is the rank; only a shortfall runs exact Bareiss elimination.
    """
    lower = rank_lower_bound(m)
    return lower if lower == upper else rank_over_fraction_field(m)


@dataclass(frozen=True)
class TwistedChain:
    """Boundary data: b1 is (g*|Q|) x |Q|, b2 is (s*|Q|) x (g*|Q|)."""

    presentation: Presentation
    representation: Representation
    b1: PolyMatrix
    b2: PolyMatrix

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @property
    def block_size(self) -> int:
        return self.representation.dim

    def rank_b1(self) -> int:
        """Rank of b1 over F(t): the finite-field bound if it reaches min(rows, cols), else Bareiss."""
        cache = self._cache
        if "b1" not in cache:
            cache["b1"] = _certified_rank(self.b1, min(self.b1.rows, self.b1.cols))
        return cache["b1"]

    def rank_b2(self) -> int:
        """Rank of b2 over F(t): the finite-field bound if it reaches its upper
        bound rows(b1) - rank b1 (b2 @ b1 = 0), else Bareiss."""
        cache = self._cache
        if "b2" not in cache:
            upper = min(self.b2.rows, self.b1.rows - self.rank_b1())
            cache["b2"] = _certified_rank(self.b2, upper)
        return cache["b2"]

    def snf_b1(self) -> SnfResult:
        """SNF of b1, shared by the degree-0 order and the degree-1 rank target."""
        cache = self._cache
        if "snf_b1" not in cache:
            cache["snf_b1"] = smith_normal_form(self.b1)
        return cache["snf_b1"]


@dataclass(frozen=True)
class AlexanderReport:
    """Vanishing verdict and normalized order for one degree."""

    degree: int
    vanishing: bool
    rank_over_frac: int
    order: LaurentPoly | None  # None when the order route was skipped
    order_skipped: bool
    field: CoefficientField
    quotient: FiniteQuotient
    character: Character
    convention: str = CONVENTION

    def as_dict(self, p: Presentation) -> dict:
        return {
            "degree": self.degree,
            "vanishing": self.vanishing,
            "rank": self.rank_over_frac,
            "order": None if self.order is None else self.order.render(),
            "order_skipped": self.order_skipped,
            "field": self.field.name,
            "quotient": self.quotient.label(),
            "character": render_character(p, self.character),
            "convention": self.convention,
        }


def build_chain(p: Presentation, rep: Representation) -> TwistedChain:
    """Assemble both boundary matrices and verify the chain condition."""
    field = rep.field
    n = rep.dim
    one = GroupRingElement.of_word(Word())
    b1 = PolyMatrix.vstack([evaluate(rep, GroupRingElement.of_word(p.generator(i)) - one)
                            for i in range(1, p.generator_count + 1)])
    if p.relators:
        rows = []
        for r in p.relators:
            rows.append(PolyMatrix.hstack([
                evaluate(rep, fox_derivative(r, i)) for i in range(1, p.generator_count + 1)
            ]))
        b2 = PolyMatrix.vstack(rows)
    else:
        b2 = PolyMatrix.zeros(field, 0, p.generator_count * n)
    if not (b2 @ b1).is_zero:
        raise InternalCheckError("chain condition b2 @ b1 = 0 violated")
    return TwistedChain(p, rep, b1, b2)


def h1_vanishing(c: TwistedChain) -> tuple[bool, int]:
    """Rank of H1 over F(t): dim of the left kernel of b1 minus rank of b2."""
    kernel_dim = c.b1.rows - c.rank_b1()
    rank_h1 = kernel_dim - c.rank_b2()
    return rank_h1 > 0, rank_h1


def _factor_product(field, snf: SnfResult, full_rank: int) -> LaurentPoly:
    """Product of the nonzero invariant factors, or zero unless snf has full_rank."""
    if snf.rank != full_rank:
        return LaurentPoly.zero(field)
    order = LaurentPoly.one(field)
    for d in snf.invariant_factors[:snf.rank]:
        order = order * d
    return order.canonical()


def _h1_order(c: TwistedChain) -> tuple[LaurentPoly, SnfResult]:
    snf = smith_normal_form(c.b2)
    return _factor_product(c.b1.field, snf, c.b1.rows - c.snf_b1().rank), snf


def h1_order(c: TwistedChain) -> LaurentPoly:
    """Normalized order of H1 through the Smith-normal-form route.

    C1/rowspace(b2) is H1 plus the free module im(b1), so the order is the
    product of the nonzero invariant factors of b2 when their number is
    rows(b1) - rank SNF(b1), and zero (H1 has free rank) otherwise.
    """
    return _h1_order(c)[0]


def h0_report(c: TwistedChain, order_ceiling: int = DEFAULT_ORDER_CEILING) -> AlexanderReport:
    """Cokernel of b1: torsion iff b1 has full column rank."""
    n = c.block_size
    rank_b1 = c.rank_b1()
    vanishing = rank_b1 < n
    rank_h0 = n - rank_b1
    skip = c.b1.rows > order_ceiling
    order = None
    if not skip:
        snf = c.snf_b1()
        order = _factor_product(c.b1.field, snf, n)
        if vanishing != order.is_zero:
            raise InternalCheckError(
                "degree-0 cross-check failed: rank route and SNF route disagree\n"
                + _diagnostic(c, rank_h0, order, snf)
            )
    return AlexanderReport(0, vanishing, rank_h0, order, skip, c.b1.field,
                           c.representation.quotient, c.representation.character)


def _diagnostic(c: TwistedChain, rank: int, order: LaurentPoly | None, snf=None) -> str:
    """What reproduces a failed cross-check, with the sizes involved; no matrix entries."""
    p, rep = c.presentation, c.representation
    q = rep.quotient
    lines = [
        f"presentation: {render_presentation(p).replace(chr(10), ' | ')}",
        f"character: {render_character(p, rep.character)}",
        f"quotient: {q.group.name} (order {q.group.order}), images {list(q.gen_images)}",
        f"field: {c.b1.field.name}",
        f"b1: {c.b1.rows}x{c.b1.cols}, b2: {c.b2.rows}x{c.b2.cols}",
        f"rank over Frac: {rank}",
        f"order: {'<skipped>' if order is None else order.render()}",
    ]
    if snf is not None:
        lines.append("invariant factors: ["
                     + ", ".join(d.render() for d in snf.invariant_factors) + "]")
    return "\n".join(lines)


def _h1_report(c: TwistedChain, order_ceiling: int) -> AlexanderReport:
    vanishing, rank_h1 = h1_vanishing(c)
    skip = c.b1.rows > order_ceiling
    order = None
    if not skip:
        order, snf = _h1_order(c)
        if vanishing != order.is_zero:
            raise InternalCheckError(
                "degree-1 cross-check failed: rank route and SNF route disagree\n"
                + _diagnostic(c, rank_h1, order, snf)
            )
    return AlexanderReport(1, vanishing, rank_h1, order, skip, c.b1.field,
                           c.representation.quotient, c.representation.character)


def full_report(p: Presentation, chi: Character, q: FiniteQuotient,
                field: CoefficientField,
                order_ceiling: int = DEFAULT_ORDER_CEILING) -> list[AlexanderReport]:
    """Degree-0 and degree-1 reports with the dual-route cross-check."""
    q = restrict_to_image(p, q)
    rep = build_representation(p, chi, q, field)
    chain = build_chain(p, rep)
    return [h0_report(chain, order_ceiling), _h1_report(chain, order_ceiling)]
