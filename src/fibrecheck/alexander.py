"""Twisted chain maps from Fox data; vanishing and normalized orders.

The presentation gives a partial free resolution; acting on row vectors from
the right, b1 stacks the images of x_i - 1 and b2 holds the images of the
Fox derivatives, both filled straight from the group table.  Everything up
to the choice of coefficient field is done once per quotient, over Z, by
`integral_chain`: the quotient is restricted to its image, the relators are
checked, each relator's Fox images are read in one walk, b2 @ b1 = 0 is
checked as Fox's fundamental formula in the group ring of Q x Z, term by
term over Z, the closed form of H0 is walked, and b1 and b2 are kept as
sparse integer rows.  `IntegralChain.over(field)` is the one way to make a
`TwistedChain`: it reads the same rows over each field, and the kernels of
`polyalg` reduce every coefficient as they read it, Bareiss included.
Vanishing is decided on the rank route, the ranks of b1 and b2 over F(t).
Both come from the algebra where b1 has a block t^s P - I with s != 0, P
the permutation matrix of right multiplication by alpha(x_k): any generator
with chi_k = s != 0 gives one.  Its determinant is +-prod over the cycles c
of P of (t^{s|c|} - 1), whose top and bottom coefficients are +-1, so it is
nonzero over every field and rank b1 = |Q|; the block is read from b1's own
rows, not from chi.  b2 @ b1 = 0 then gives the Wada-matrix identity
B_k = -B_rest b1_rest b1_k^{-1} over F(t), where B_k is column block k of
b2 and B_rest the rest of b2: rank b2 = rank B_rest, b2 less one column
block (Wada 1994, Kirk-Livingston 1999).  B_rest is bounded from below by
`rank_lower_bound`, the rank after mapping t to a point of a finite field:
minors map to minors, so the bound never exceeds the true rank.  Where the
bound meets min(rows, cols) of B_rest, which is rows(b1) - rank b1, it is
the rank.  Otherwise exact Bareiss elimination decides, so Bareiss runs for
every rank deficit, where vanishing must be certified exactly, and when the
point is a root of every maximal minor.  Only an explicit zero character
leaves b1 without such a block; then b1 is bounded the same way against
min(rows, cols), and the whole of b2 against rows(b1) - rank b1 (its rows
lie in the left kernel of b1).
Over Q the ranks may come from a prime field instead: an r x r minor of the
integral rows that is nonzero mod p is nonzero over Z, so rank over Q(t) >=
rank over F_p(t), while the upper bounds are the same for every field once
rank b1 is.  An `IntegralChain` keeps the largest rank of b2, and of b1
where it was eliminated, that a chain it built over some F_p proved, by the
bound or by Bareiss, and its chain over Q takes such a rank without
elimination where it reaches Q's upper bound.  A default scan runs F2 and
F3 before Q, and every Q job reads rank b2 so, since a shortfall of b2 over
F_p is a degree-1 vanishing, which stops the job before Q.  Where Q comes
first or alone, it runs its own bound; between two primes nothing is
inferred.  The order route computes the orders independently, over Q too.
H0 is in closed form: each orbit of the image of alpha on Q contributes
F[t^{+-1}]/(t^d - 1), where dZ = chi(ker alpha) is read off one
breadth-first walk.  ord H1 comes from one diagonal form of b2 over the
PID F[t^{+-1}], where the monomial entries of b2 are units.  The sequence
0 -> H1 -> C1/rowspace(b2) -> im(b1) -> 0 splits (im(b1) lies in a free
module, so it is free), so H1 is torsion exactly when the diagonal has
rows(b1) - rank b1 nonzero entries, with rank b1 = |Q| - rank H0 from the
closed form, and its order is then their product, the classical Fox-matrix
order (Wada 1994, Kirk-Livingston 1999).  That diagonal form is taken once
per quotient, over Z[t^{+-1}]: the elimination pivots only on entries with
top coefficient +-1, so every step is an elementary operation over Z and
b2 ~ D (+) R there, with D diagonal.  Each field reads D mod p, where no entry
of D vanishes, and finishes the residual R, the rows left where a remainder
with another top coefficient stopped the elimination; it is usually empty.
Neither route reads the other's result; if they disagree, the run is aborted
as internally inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import mul

from .foxcalc import CONVENTION, Representation, build_representation, fox_images
from .polyalg import (
    CoefficientField,
    IntegralDiagonal,
    LaurentPoly,
    SnfResult,
    SparseMatrix,
    integral_diagonal_form,
    rank_lower_bound,
    rank_over_fraction_field,
)
from .quotients import FiniteQuotient, restrict_to_image
from .words import Character, Presentation, render_character, render_presentation

__all__ = [
    "InternalCheckError",
    "IntegralChain",
    "TwistedChain",
    "AlexanderReport",
    "integral_chain",
    "chain_reports",
    "h1_vanishing",
    "h0_report",
    "full_report",
]

class InternalCheckError(RuntimeError):
    """A mandatory internal cross-check failed; results are untrustworthy."""


def _certified_rank(m: SparseMatrix, upper: int,
                    proved: tuple[int, CoefficientField] | None = None) -> tuple[int, str]:
    """Rank over F(t), given an upper bound on it, and the route that fixed it.

    `m` is B_rest, b2 less the column block of b1's unit minor, whose rank
    is that of b2 by the Wada-matrix identity and whose upper bound
    min(rows, cols) is rows(b1) - rank b1; without that minor it is b1 or
    the whole of b2.  `proved` is (rank, F_p) for a rank that F_p(t) proved
    for the same integral rows, which the caller passes only over Q: there
    it is a lower bound, since a minor that is nonzero mod p is nonzero over
    Z, so where it reaches `upper` it is the rank and nothing is eliminated.
    Otherwise the finite-field rank is a lower bound, so where it reaches
    `upper` it is the rank; only a shortfall runs exact Bareiss elimination.
    """
    if proved is not None and proved[0] == upper:
        return upper, f"inherited from the {proved[1].name} certificate"
    lower = rank_lower_bound(m)
    if lower == upper:
        return lower, "by this field's bound"
    return rank_over_fraction_field(m), "by Bareiss"


def _unit_minor(b1: list[dict[int, dict[int, int]]], n: int) -> tuple[int, int] | None:
    """(k, s) for the first block k of the rows of b1, n x n each, that reads
    t^s P - I with s != 0, else None.

    P must be a permutation matrix: each row q of the block is
    {q: -1, pi(q): t^s}, or {q: t^s - 1} where pi(q) = q, with one shift s
    and pi a bijection.  The determinant is then +-prod over the cycles c of
    pi of (t^{s|c|} - 1), nonzero over every field, so rank b1 = n.  Only a
    zero character has no such block.
    """
    for k in range(len(b1) // n):
        shift, image = None, set()
        for q, row in enumerate(b1[k * n:(k + 1) * n]):
            if len(row) == 2:
                (i, f), (j, g) = row.items()
                if j == q:
                    i, f, j, g = j, g, i, f
                if i != q or len(f) != 1 or f.get(0) != -1 or len(g) != 1:
                    break
                ((s, c),) = g.items()
            elif len(row) == 1 and len(f := row.get(q, ())) == 2 and f.get(0) == -1:
                j = q
                (s, c), other = f.items()
                if not s:
                    s, c = other
            else:
                break
            if c != 1 or not s or shift not in (None, s) or j in image:
                break
            shift = s
            image.add(j)
        else:
            return k, shift
    return None


@dataclass(frozen=True)
class TwistedChain:
    """Boundary data over one field: b1 is (g*|Q|) x |Q|, b2 is (s*|Q|) x (g*|Q|).

    Made by `IntegralChain.over`, from the `integral` chain that it keeps:
    the representation, the walk of the closed form of H0, the unit minor
    of b1, the record of the ranks that chains over prime fields proved (see
    `_certify`), the rows of b2 less one column block and the diagonal form
    of b2 over Z[t^{+-1}] are all read from there, once for every field.
    Rank b1 is |Q| where b1 has a unit minor t^s P - I in block k, and rank
    b2 is then the rank of B_rest, b2 less column block k: b2 @ b1 = 0
    writes B_k = -B_rest b1_rest b1_k^{-1} over F(t) (the Wada matrix).
    """

    integral: IntegralChain
    b1: SparseMatrix
    b2: SparseMatrix

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @property
    def representation(self) -> Representation:
        return self.integral.representation

    @property
    def block_size(self) -> int:
        return self.integral.representation.dim

    def _certify(self, key: str, m: SparseMatrix, upper: int) -> tuple[int, str]:
        """(rank, route) of `m`, whose rank is that of b1 or b2 as `key` names, by `_certified_rank`.

        Over Q it reads the rank that a prime field proved, if any; over F_p
        it records its own rank there for the fields that follow.
        """
        proved = self.integral.proved
        if m.field.p is None:
            return _certified_rank(m, upper, proved.get(key))
        rank, route = _certified_rank(m, upper)
        if rank > proved.get(key, (-1,))[0]:
            proved[key] = rank, m.field
        return rank, route

    def rank_b1(self) -> int:
        """Rank of b1 over F(t): |Q| by a unit minor, else the finite-field
        bound if it reaches min(rows, cols), else Bareiss."""
        cache = self._cache
        if "b1" not in cache:
            minor = self.integral.minor
            if minor is None:
                cache["b1"] = self._certify("b1", self.b1, min(self.b1.rows, self.b1.cols))
            else:
                cache["b1"] = self.b1.cols, "by the minor of block {}, t^{} P - I".format(*minor)
        return cache["b1"][0]

    def rank_b2(self) -> int:
        """Rank of b2 over F(t), read on B_rest, b2 less the unit minor's
        column block, against min(rows, cols); without a unit minor, on b2
        against rows(b1) - rank b1 (b2 @ b1 = 0).  The finite-field bound
        decides where it reaches that bound, else Bareiss.  Over Q, a rank
        that a prime field proved is the rank where it reaches the same
        bound, and nothing is eliminated."""
        cache = self._cache
        if "b2" not in cache:
            minor = self.integral.minor
            if minor is None:
                m, upper, read = self.b2, min(self.b2.rows, self.b1.rows - self.rank_b1()), "b2"
            else:
                k = minor[0]
                m = SparseMatrix(self.b2.field, self.integral.b2_less(),
                                 self.b2.rows, self.b2.cols - self.b1.cols)
                upper, read = min(m.rows, m.cols), f"b2 less column block {k}"
            rank, route = self._certify("b2", m, upper)
            cache["b2"] = rank, f"{route}, read on {read} ({m.rows}x{m.cols})"
        return cache["b2"][0]

    def h0_closed_form(self) -> tuple[int, int, LaurentPoly]:
        """(d, rank H0, ord H0) by `_h0_closed_form`, walked once per chain."""
        cache = self._cache
        if "h0" not in cache:
            cache["h0"] = _h0_closed_form(self)
        return cache["h0"]


@dataclass(frozen=True)
class AlexanderReport:
    """Vanishing verdict and normalized order for one degree."""

    degree: int
    vanishing: bool
    rank_over_frac: int
    order: LaurentPoly
    field: CoefficientField
    quotient: FiniteQuotient
    character: Character
    convention: str = CONVENTION

    order_skipped = property(lambda self: False)  # schema-1 key; every report has its order

    def as_dict(self, p: Presentation) -> dict:
        return {
            "degree": self.degree,
            "vanishing": self.vanishing,
            "rank": self.rank_over_frac,
            "order": self.order.render(),
            "order_skipped": self.order_skipped,
            "field": self.field.name,
            "quotient": self.quotient.label(),
            "character": render_character(p, self.character),
            "convention": self.convention,
        }


def _fundamental_formula_holds(rep: Representation,
                               blocks: list[dict[int, dict[int, int]]]) -> bool:
    """Fox's sum_i (dr/dx_i)(x_i - 1) = r - 1, mapped into Z[Q x Z].

    r maps to the identity, so the images f_{i,g} of dr/dx_i must satisfy
    sum_i sum_g f_{i,g} * (t^{chi_i} [g*alpha(x_i)] - [g]) = 0.  P is
    faithful on Z[Q], so this is b2 @ b1 = 0 on the relator's rows, decided
    exactly over Z in time linear in the terms.
    """
    table = rep.quotient.group.table
    total: dict[tuple[int, int], int] = {}
    for block, a, s in zip(blocks, rep.quotient.gen_images, rep.character.values):
        for g, shifts in block.items():
            h = table[g][a]
            for k, c in shifts.items():
                total[h, k + s] = total.get((h, k + s), 0) + c
                total[g, k] = total.get((g, k), 0) - c
    return not any(total.values())


class IntegralChain:
    """The twisted chain of one quotient over Z[t^{+-1}], before any field.

    b1 and b2 are the rows of `SparseMatrix`, column -> {exponent: int},
    and walk is (d, copies) of the closed form of H0.  `minor` is (k, s) of
    the block t^s P - I of b1 that `_unit_minor` reads from its rows, or
    None, as for a chain built by hand.  None of them, nor the
    representation, depends on the coefficient field; `over` reads them over
    one.  `proved` maps "b2", and "b1" where b1 has no unit minor, to the
    largest rank that a chain read over some F_p proved, with that field,
    for the chains read over Q.
    `b2_less` makes the rows of b2 less the minor's column block on first
    use, and `b2_form` eliminates b2 over Z[t^{+-1}] on first use, to
    b2 ~ D (+) R there (see `polyalg.integral_diagonal_form`); both are kept
    for every field, and each field reduces D and finishes the residual R,
    usually empty, by itself.  It is a plain class: a frozen dataclass would
    take about a millisecond at import to generate methods that nothing here
    uses.
    """

    __slots__ = ("representation", "b1", "b2", "walk", "minor", "proved", "_b2_less", "_b2_form")

    def __init__(self, representation: Representation,
                 b1: list[dict[int, dict[int, int]]], b2: list[dict[int, dict[int, int]]],
                 walk: tuple[int, int], minor: tuple[int, int] | None = None):
        self.representation = representation
        self.b1 = b1
        self.b2 = b2
        self.walk = walk
        self.minor = minor
        self.proved: dict[str, tuple[int, CoefficientField]] = {}
        self._b2_less: list[dict[int, dict[int, int]]] | None = None
        self._b2_form: IntegralDiagonal | None = None

    def over(self, field: CoefficientField) -> TwistedChain:
        """The chain over `field`, the one way to make a `TwistedChain`.

        It keeps this chain and shares its rows: nothing is copied or reduced
        here, and the field is that of b1 and b2.
        """
        p, n = self.representation.presentation, self.representation.dim
        g = p.generator_count
        return TwistedChain(self, SparseMatrix(field, self.b1, g * n, n),
                            SparseMatrix(field, self.b2, len(p.relators) * n, g * n))

    def b2_less(self) -> list[dict[int, dict[int, int]]]:
        """The rows of b2 without column block k of the unit minor, the later
        columns moved down one block, made once for every field; they share
        b2's entry dicts."""
        if self._b2_less is None:
            n, k = self.representation.dim, self.minor[0]
            lo, hi = k * n, (k + 1) * n
            self._b2_less = [{j if j < lo else j - n: f for j, f in row.items() if not lo <= j < hi}
                             for row in self.b2]
        return self._b2_less

    def b2_form(self) -> IntegralDiagonal:
        """b2 ~ D (+) R over Z[t^{+-1}] by `integral_diagonal_form`, taken once for every field."""
        if self._b2_form is None:
            p, n = self.representation.presentation, self.representation.dim
            self._b2_form = integral_diagonal_form(self.b2, len(p.relators) * n,
                                                   p.generator_count * n)
        return self._b2_form


def _assemble(rep: Representation) -> IntegralChain:
    """Assemble both boundary matrices over Z from the group table, after checking the chain condition.

    Block (j, i) of b2 is sum_g f_{i,g} P(g), with f_{i,g} from one
    `fox_images` walk along relator j: f_{i,g} at (q, q*g) for every q.
    Block i of b1 is t^{chi_i} P(alpha(x_i)) - I.  Every relator's images
    must satisfy the fundamental formula in Z[Q x Z], which is b2 @ b1 = 0
    over every coefficient field; no matrix is multiplied.  Entries that
    are the same polynomial share one dict, which nothing changes.  The
    unit minor of b1 is read from the rows made here, once for every field.
    """
    n = rep.dim
    table = rep.quotient.group.table
    relator_blocks = [fox_images(rep, r) for r in rep.presentation.relators]
    if not all(_fundamental_formula_holds(rep, blocks) for blocks in relator_blocks):
        raise InternalCheckError("chain condition b2 @ b1 = 0 violated")
    b1 = []
    minus_one = {0: -1}
    for a, s in zip(rep.quotient.gen_images, rep.character.values):
        shift = {s: 1}
        for q in range(n):
            if a:
                qa = table[q][a]
                b1.append({q: minus_one, qa: shift} if q < qa else {qa: shift, q: minus_one})
            else:  # zero when chi_i = 0 too
                b1.append({q: {s: 1, 0: -1}} if s else {})
    b2 = []
    for blocks in relator_blocks:
        terms = [(i * n, g, f) for i, block in enumerate(blocks) for g, shifts in block.items()
                 if (f := {k: c for k, c in shifts.items() if c})]
        for q in range(n):
            row_q = table[q]
            b2.append(dict(sorted([(i0 + row_q[g], f) for i0, g, f in terms])))
    return IntegralChain(rep, b1, b2, _h0_walk(rep), _unit_minor(b1, n))


def h1_vanishing(c: TwistedChain) -> tuple[bool, int]:
    """Rank of H1 over F(t): dim of the left kernel of b1 minus rank of b2."""
    kernel_dim = c.b1.rows - c.rank_b1()
    rank_h1 = kernel_dim - c.rank_b2()
    return rank_h1 > 0, rank_h1


def _h0_walk(rep: Representation) -> tuple[int, int]:
    """(d, copies), where dZ = chi(ker alpha) and copies = |Q : im alpha|.

    A breadth-first walk over the image of alpha gives each element g the
    character value h(g) of its tree path.  Each edge g -> g*alpha(x_i) off
    the tree closes a Schreier generator of the kernel, of character value
    h(g) + chi_i - h(g*alpha(x_i)), and d is their gcd.
    """
    table, images, values = rep.quotient.group.table, rep.quotient.gen_images, rep.character.values
    height, walk, d = {0: 0}, [0], 0
    for g in walk:
        for x, k in zip(images, values):
            h, y = height[g] + k, table[g][x]
            if y in height:
                d = gcd(d, h - height[y])
            else:
                height[y] = h
                walk.append(y)
    return d, rep.dim // len(walk)


def _h0_closed_form(c: TwistedChain) -> tuple[int, int, LaurentPoly]:
    """(d, rank H0, ord H0): each of the |Q : im alpha| orbits contributes
    F[t^{+-1}]/(t^d - 1) to H0, with d from `_h0_walk`."""
    d, copies = c.integral.walk
    field = c.b1.field
    if d == 0:
        return 0, copies, LaurentPoly.zero(field)
    cyclic = LaurentPoly.from_int_coeffs(field, {d: 1, 0: -1})  # monic, t^0 term: canonical
    return d, 0, reduce(mul, [cyclic] * copies)


def _h1_order(c: TwistedChain) -> tuple[LaurentPoly, SnfResult]:
    """Normalized order of H1 through the order route, and the diagonal form of b2.

    C1/rowspace(b2) is H1 plus the free module im(b1), so the order is the
    product of the nonzero diagonal entries of b2 when there are
    rows(b1) - rank b1 of them, and zero (H1 has free rank) otherwise; here
    rank b1 = |Q| - rank H0 comes from the closed form, not the rank route.
    The diagonal form is b2 ~ D (+) R over Z[t^{+-1}], which the integral
    chain took once, read over this field: D's entries reduced mod p, whose
    top coefficients +-1 keep them nonzero, and R, left where a remainder
    had another top coefficient, finished by `diagonal_form` here.
    """
    form = c.integral.b2_form().over(c.b1.field)
    rank_b1 = c.block_size - c.h0_closed_form()[1]
    if form.rank != c.b1.rows - rank_b1:
        return LaurentPoly.zero(c.b1.field), form
    # Canonical entries have a canonical product: F[t] is a domain.  A
    # canonical monomial is 1, so only the longer entries are multiplied.
    factors = [e for e in form.diagonal if len(e.coeffs) > 1]
    return (reduce(mul, factors) if factors else LaurentPoly.one(c.b1.field)), form


def h0_report(c: TwistedChain) -> AlexanderReport:
    """Cokernel of b1: vanishing by the rank route, order by the closed form."""
    rank_h0 = c.block_size - c.rank_b1()
    d, closed_rank, order = c.h0_closed_form()
    if rank_h0 != closed_rank:
        raise InternalCheckError(
            "degree-0 cross-check failed: rank route and closed form disagree\n"
            + _diagnostic(c, rank_h0, order, f"d: {d} (closed-form rank {closed_rank})")
        )
    return AlexanderReport(0, rank_h0 > 0, rank_h0, order, c.b1.field,
                           c.representation.quotient, c.representation.character)


def _diagnostic(c: TwistedChain, rank: int, order: LaurentPoly, detail: str) -> str:
    """What reproduces a failed cross-check, with the sizes involved, and the
    route of each rank of b1 and b2 that was computed: the unit minor that
    gave rank b1, and the matrix that rank b2 was read on, with its shape;
    no matrix entries."""
    rep, cache = c.representation, c._cache
    p = rep.presentation
    q = rep.quotient
    return "\n".join([
        f"presentation: {render_presentation(p).replace(chr(10), ' | ')}",
        f"character: {render_character(p, rep.character)}",
        f"quotient: {q.group.name} (order {q.group.order}), images {list(q.gen_images)}",
        f"field: {c.b1.field.name}",
        f"b1: {c.b1.rows}x{c.b1.cols}, b2: {c.b2.rows}x{c.b2.cols}",
        *(f"rank of {key}: {cache[key][0]} {cache[key][1]}" for key in ("b1", "b2") if key in cache),
        f"rank over Frac: {rank}",
        f"order: {order.render()}",
        detail,
    ])


def _h1_report(c: TwistedChain) -> AlexanderReport:
    vanishing, rank_h1 = h1_vanishing(c)
    order, form = _h1_order(c)
    if vanishing != order.is_zero:
        phase = c.integral.b2_form()
        from_z = len(phase.diagonal)
        residual = (f"residual {len(phase.residual)}x{phase.cols - from_z} finished over {c.b1.field.name}"
                    if phase.residual else "no residual")
        raise InternalCheckError(
            "degree-1 cross-check failed: rank route and order route disagree\n"
            + _diagnostic(c, rank_h1, order, "diagonal of b2: ["
                          + ", ".join(d.render() for d in form.diagonal)
                          + f"] ({from_z} entries from Z, {residual})")
        )
    return AlexanderReport(1, vanishing, rank_h1, order, c.b1.field,
                           c.representation.quotient, c.representation.character)


def integral_chain(p: Presentation, chi: Character, q: FiniteQuotient) -> IntegralChain:
    """Everything of the chain that no field changes, once per quotient.

    The quotient is restricted to its image and every relator must map to
    the identity; then `_assemble` assembles b1 and b2 over Z and
    walks H0.
    """
    return _assemble(build_representation(p, chi, restrict_to_image(p, q)))


def chain_reports(c: TwistedChain) -> list[AlexanderReport]:
    """Degree-0 and degree-1 reports of one chain with the dual-route cross-check."""
    return [h0_report(c), _h1_report(c)]


def full_report(p: Presentation, chi: Character, q: FiniteQuotient,
                field: CoefficientField) -> list[AlexanderReport]:
    """Degree-0 and degree-1 reports with the dual-route cross-check."""
    return chain_reports(integral_chain(p, chi, q).over(field))
