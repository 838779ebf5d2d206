"""Twisted chain maps from Fox data; vanishing and normalized orders.

The presentation gives a partial free resolution; acting on row vectors from
the right, b1 stacks the images of x_i - 1 and b2 holds the images of the
Fox derivatives, both read off the permutations of the quotient's image
(`quotients.image_action`).  Everything up to the choice of coefficient
field is done once per quotient, over Z, by `integral_chain`: the relators
are checked, each relator's Fox images are read in one walk, b2 @ b1 = 0 is
checked as Fox's fundamental formula in the group ring of Q x Z, term by
term over Z, d of the closed form of H0 and the edges that the order route
collapses are read off the one Schreier tree of the image's action, and b2
is kept as sparse integer rows; of b1, whose entries no route reads, only
its shape (`MatrixShape`).
`IntegralChain.over(field)` is the one way to make a `TwistedChain`: it
reads the same rows over each field, and the kernels of `polyalg` reduce
every coefficient as they read it, Bareiss included.
Vanishing is decided on the rank route, the ranks of b1 and b2 over F(t).
Rank b1 is the identity |Q| - [chi = 0], read off chi.  A generator with
chi_k = s != 0 gives b1 the block t^s P - I, P the permutation matrix of
right multiplication by alpha(x_k).  Its determinant is +-prod over the
cycles c of P of (t^{s|c|} - 1), whose top and bottom coefficients are
+-1, so it is nonzero over every field and rank b1 = |Q|; the minor is
(k, chi_k) for the first generator with chi_k != 0.  For the zero
character every block is P - I or zero, so every row of b1 sums to 0 and
rank b1 <= |Q| - 1; the |Q| - 1 edges of the image's Schreier tree give
rows e_{c*alpha(x_i)} - e_c, independent over every field, so
rank b1 = |Q| - 1.  Only b2 is eliminated.  With the minor, b2 @ b1 = 0
gives the Wada-matrix identity B_k = -B_rest b1_rest b1_k^{-1} over
F(t), where B_k is column block k of b2 and B_rest the rest of b2:
rank b2 = rank B_rest, b2 less one column block (Wada 1994,
Kirk-Livingston 1999), against min(rows, cols), which is
rows(b1) - rank b1.  Without it, the whole of b2 is read against
rows(b1) - rank b1, since its rows lie in the left kernel of b1.  That
matrix is bounded from below by `rank_lower_bound`, the rank after mapping
t to a point of a finite field: minors map to minors, so the bound never
exceeds the true rank, and where it meets the upper bound it is the rank.
Otherwise exact Bareiss elimination decides, so Bareiss runs for every rank
deficit, where vanishing must be certified exactly, and when the point is a
root of every maximal minor.
Over Q the rank of b2 may come from a prime field instead: an r x r minor
of the integral rows that is nonzero mod p is nonzero over Z, so rank over
Q(t) >= rank over F_p(t), while the upper bound is the same for every
field.  An `IntegralChain` keeps the first prime field over which a chain
it built proved b2's full rank, by the bound or by Bareiss, and its chain
over Q takes that rank without elimination.  That is the one fact Q reads:
a shortfall of b2 over F_p is a degree-1 vanishing, which stops a scan's
job before Q.  A default scan runs F2 and F3 before Q, and every Q job
reads rank b2 so.  Where Q comes first or alone, it runs its own bound;
between two primes nothing is inferred.  The order route computes the orders
independently, over Q too.
H0 is in closed form: Q is the image of alpha, so H0 is F[t^{+-1}]/(t^d - 1),
where dZ = chi(ker alpha) is the gcd of the character's values on the
Schreier generators of the kernel, read off the walk that Reidemeister-
Schreier rewrites along (`quotients.schreier_tree`).  Its rank is
|Q| - rank b1 = [chi = 0], checked against the walk: d = 0 exactly when
chi = 0, as chi(ker alpha) has finite index in chi(G).
ord H1 comes from one diagonal form of b2 over the PID F[t^{+-1}], where
the monomial entries of b2 are units.  The sequence
0 -> H1 -> C1/rowspace(b2) -> im(b1) -> 0 splits (im(b1) lies in a free
module, so it is free), so H1 is torsion exactly when the diagonal has
rows(b1) - rank b1 nonzero entries, and its order is then their product,
the classical Fox-matrix order (Wada 1994, Kirk-Livingston 1999).  The
route first collapses the image's Schreier tree, the step behind
Reidemeister-Schreier: the rows t^{chi_i} e_{c*alpha(x_i)} - e_c of b1 at
the tree's n - 1 edges, with e_0, are a unitriangular basis of C0, so a
unimodular change of basis of C1 takes every other edge f to f' with b1(f')
a multiple of e_0, and b2 @ b1 = 0 then leaves each row of b2 its entry at
f' and 0 at every tree edge: b2 ~ [b2 less the tree's columns | 0] over
Z[t^{+-1}], every invariant factor kept, for every character and every
field.  That matrix is the Fox matrix of the kernel's Reidemeister-
Schreier presentation, up to monomial units on its rows and columns, so
`untwist-check` compares two
constructions of the same collapsed matrix: `_assemble`'s and the one
`reidschreier.rewrite_subgroup` presents.  Its diagonal form is taken once
per quotient, over Z[t^{+-1}]: the elimination pivots only on entries with
top coefficient +-1, so every step is an elementary operation over Z and
the matrix is D (+) R there, with D diagonal.  The product of D's entries
is taken once over Z too: reduction mod p is a ring map, so each field
reduces that one product, which no reduction makes zero, and finishes the
residual R, the rows left where a remainder with another top coefficient
stopped the elimination; it is usually empty.
Neither route reads the other's result, and both read rank b1 from the
identity; if they disagree, the run is aborted as internally inconsistent.
The two read different reductions of b2: the rank route drops one column
block, by the Wada identity over F(t), and the order route the tree's
columns, by the identity above over Z[t^{+-1}]; the two share b2's rows
and nothing derived from them, so each still checks the other.
"""

from __future__ import annotations

from math import gcd

from .foxcalc import CONVENTION, Representation, build_representation, fox_images
from .polyalg import (
    CoefficientField,
    IntegralDiagonal,
    LaurentPoly,
    SparseMatrix,
    column_places,
    integral_diagonal_form,
    rank_lower_bound,
    rank_over_fraction_field,
)
from .quotients import FiniteQuotient, ImageAction, ImageLabel, schreier_tree
from .words import Character, Presentation, render_character, render_presentation

__all__ = [
    "InternalCheckError",
    "IntegralChain",
    "MatrixShape",
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
                    proved: CoefficientField | None = None) -> tuple[int, str]:
    """Rank over F(t), given an upper bound on it, and the route that fixed it.

    `m` is B_rest, b2 less the column block of b1's unit minor, whose rank
    is that of b2 by the Wada-matrix identity and whose upper bound
    min(rows, cols) is rows(b1) - rank b1; without that minor it is the
    whole of b2.  `proved` is a prime field F_p over which the same
    integral rows reached `upper`, which the caller passes only over Q:
    a minor that is nonzero mod p is nonzero over Z, so `upper` is the rank
    and nothing is eliminated.  Otherwise the finite-field rank is a lower
    bound, so where it reaches `upper` it is the rank; only a shortfall runs
    exact Bareiss elimination.
    """
    if proved is not None:
        return upper, f"inherited from the {proved.name} certificate"
    lower = rank_lower_bound(m)
    if lower == upper:
        return lower, "by this field's bound"
    return rank_over_fraction_field(m), "by Bareiss"


class MatrixShape:
    """b1's field and shape, (g*n) x n for g generators and n = |Q|, without
    entries, which no route reads: a `SparseMatrix` without rows is zero."""

    __slots__ = ("field", "rows", "cols")

    def __init__(self, field: CoefficientField | None, rows: int, cols: int):
        self.field = field
        self.rows = rows
        self.cols = cols


class TwistedChain:
    """Boundary data over one field: b1 is (g*|Q|) x |Q|, b2 is (s*|Q|) x (g*|Q|).

    Made by `IntegralChain.over`, from the `integral` chain that it keeps:
    the representation, d of the closed form of H0, the unit minor of b1,
    the prime field that proved b2's full rank (see `rank_b2`),
    the rows of b2 less one column block and the diagonal form of b2 less
    the Schreier tree's columns over Z[t^{+-1}] are all read from there,
    once for every field; b1 is only a `MatrixShape`.  Rank b1 is an
    identity: |Q| where b1 has a unit minor t^s P - I in block k, and
    |Q| - 1 for the zero character.  Rank b2 is then the rank of B_rest, b2
    less column block k: b2 @ b1 = 0 writes B_k = -B_rest b1_rest b1_k^{-1}
    over F(t) (the Wada matrix); without the minor it is read on b2.
    """

    __slots__ = ("integral", "b1", "b2", "_rank_b2")

    def __init__(self, integral: IntegralChain, b1: MatrixShape, b2: SparseMatrix):
        self.integral = integral
        self.b1 = b1
        self.b2 = b2
        self._rank_b2: tuple[int, str] | None = None

    @property
    def representation(self) -> Representation:
        return self.integral.representation

    @property
    def block_size(self) -> int:
        return self.b1.cols

    def rank_b1(self) -> int:
        """Rank of b1 over F(t), by the identity |Q| - [chi = 0]: |Q| by the
        unit minor, and |Q| - 1 for the zero character, by the image's
        Schreier tree.  The rank route, the order route and H0 read it."""
        return self.b1.cols - (self.integral.minor is None)

    def rank_b2(self) -> int:
        """Rank of b2 over F(t), read on B_rest, b2 less the unit minor's
        column block, against min(rows, cols); for the zero character, on b2
        against rows(b1) - rank b1 (b2 @ b1 = 0), by `_certified_rank`.  The
        finite-field bound decides where it reaches that bound, else Bareiss.
        The first prime field to reach it is recorded in `integral.proved`,
        and Q reads the full rank from there without eliminating."""
        if self._rank_b2 is None:
            integral = self.integral
            minor = integral.minor
            if minor is None:
                m, upper, read = self.b2, min(self.b2.rows, self.b1.rows - self.rank_b1()), "b2"
            else:
                k = minor[0]
                m = SparseMatrix(self.b2.field, integral.b2_less(),
                                 self.b2.rows, self.b2.cols - self.b1.cols)
                upper, read = min(m.rows, m.cols), f"b2 less column block {k}"
            field = m.field
            rank, route = _certified_rank(m, upper, integral.proved if field.p is None else None)
            if rank == upper and field.p is not None and integral.proved is None:
                integral.proved = field
            self._rank_b2 = rank, f"{route}, read on {read} ({m.rows}x{m.cols})"
        return self._rank_b2[0]


class AlexanderReport:
    """Vanishing verdict and normalized order for one degree, labelled by the image's action."""

    __slots__ = ("degree", "vanishing", "rank_over_frac", "order", "field", "quotient",
                 "character")

    def __init__(self, degree: int, vanishing: bool, rank_over_frac: int, order: LaurentPoly,
                 field: CoefficientField, quotient: ImageAction, character: Character):
        self.degree = degree
        self.vanishing = vanishing
        self.rank_over_frac = rank_over_frac
        self.order = order
        self.field = field
        self.quotient = quotient
        self.character = character

    order_skipped = property(lambda self: False)  # schema-1 key; every report has its order

    def as_dict(self, p: Presentation, order: str | None = None, character: str | None = None,
                quotient: ImageLabel | None = None) -> dict:
        """The schema-1 record; a caller may pass the order's and the
        character's texts, and the label of a quotient that reuses it."""
        return {
            "degree": self.degree,
            "vanishing": self.vanishing,
            "rank": self.rank_over_frac,
            "order": self.order.render() if order is None else order,
            "order_skipped": self.order_skipped,
            "field": self.field.name,
            "quotient": (quotient or self.quotient).label(),
            "character": render_character(p, self.character) if character is None else character,
            "convention": CONVENTION,
        }


def _fundamental_formula_holds(rep: Representation,
                               blocks: dict[int, dict[int, dict[int, int]]]) -> bool:
    """Fox's sum_i (dr/dx_i)(x_i - 1) = r - 1, mapped into Z[Q x Z].

    r maps to the identity, so the images f_{i,g} of dr/dx_i must satisfy
    sum_i sum_g f_{i,g} * (t^{chi_i} [g*alpha(x_i)] - [g]) = 0.  P is
    faithful on Z[Q], so this is b2 @ b1 = 0 on the relator's rows, decided
    exactly over Z in time linear in the terms; only the blocks of the
    generators that r contains are read.
    """
    perms, values = rep.action.perms, rep.character.values
    total: dict[tuple[int, int], int] = {}
    for i, block in blocks.items():
        perm, s = perms[i], values[i]
        for g, shifts in block.items():
            h = perm[g]
            for k, c in shifts.items():
                total[h, k + s] = total.get((h, k + s), 0) + c
                total[g, k] = total.get((g, k), 0) - c
    return not any(total.values())


class IntegralChain:
    """The twisted chain of one quotient over Z[t^{+-1}], before any field.

    b2 is the rows of a `SparseMatrix`, column -> {exponent: int}, and d,
    with dZ = chi(ker alpha), gives the closed form of H0; b1 has no rows.
    `tree` lists the n - 1 edges of the image's Schreier tree, each
    numbered as its row of b1 and its column of b2
    (`quotients.schreier_tree`).  `minor` is (k, s) of the block t^s P - I
    of b1, s = chi_k != 0 for the first such generator, read off chi; it is
    None exactly for the zero character.  None of them, nor the
    representation, depends on the coefficient field; `over` reads them
    over one.  `proved` is the first prime field over which b2 reached its
    full rank, read by the chains over Q, or None: a shortfall over F_p is a
    vanishing, which ends a scan's job before Q.
    `b2_less` makes the rows of b2 less the minor's column block on first
    use, for the rank route, and `b2_form` eliminates b2 less the tree's
    columns over Z[t^{+-1}] on first use, to D (+) R there (see
    `polyalg.integral_diagonal_form`), for the order route; both are kept
    for every field, and so is the product of D's entries over Z, which
    each field reduces before it finishes the residual R, usually empty.
    """

    __slots__ = ("representation", "b2", "d", "tree", "minor", "proved", "_b2_less", "_b2_form")

    def __init__(self, representation: Representation, b2: list[dict[int, dict[int, int]]],
                 d: int, tree: list[int], minor: tuple[int, int] | None):
        self.representation = representation
        self.b2 = b2
        self.d = d
        self.tree = tree
        self.minor = minor
        self.proved: CoefficientField | None = None
        self._b2_less: list[dict[int, dict[int, int]]] | None = None
        self._b2_form: IntegralDiagonal | None = None

    def over(self, field: CoefficientField) -> TwistedChain:
        """The chain over `field`, the one way to make a `TwistedChain`.

        It keeps this chain and shares its rows: nothing is copied or reduced
        here, and the field is that of b1's shape and b2.
        """
        b1 = self.b1_shape(field)
        return TwistedChain(self, b1, SparseMatrix(field, self.b2, len(self.b2), b1.rows))

    def b1_shape(self, field: CoefficientField | None = None) -> MatrixShape:
        """b1's shape, (g*n) x n, over `field`: n = |Q| and g generators."""
        n = self.representation.action.order
        return MatrixShape(field, self.representation.presentation.generator_count * n, n)

    def b2_less(self) -> list[dict[int, dict[int, int]]]:
        """The rows of b2 without column block k of the unit minor, the later
        columns moved down one block, made once for every field."""
        if self._b2_less is None:
            b1, k = self.b1_shape(), self.minor[0]
            self._b2_less = _rows_less(self.b2, b1.rows, range(k * b1.cols, (k + 1) * b1.cols))
        return self._b2_less

    def b2_form(self) -> IntegralDiagonal:
        """b2 ~ [b2 less the tree's columns | 0] ~ D (+) R over Z[t^{+-1}],
        the second by `integral_diagonal_form` on one read of b2 that leaves
        the tree's columns out, taken once for every field.

        The rows b1(T) = t^{chi_i} e_{c*alpha(x_i)} - e_c of the tree edges T,
        with e_0, are a unitriangular basis of C0, in the walk's order.  So
        each other edge f is changed, by a unimodular column operation, to
        f' = f - sum lambda_T T with b1(f') = mu_f e_0, and b2 @ b1 = 0 then
        gives every row of b2 the coordinate 0 at each T and its old entry
        at each f'.  That is b2 less the tree's columns and n - 1 zero
        columns, over Z[t^{+-1}] and so over every field, with every
        invariant factor of b2.
        """
        if self._b2_form is None:
            self._b2_form = integral_diagonal_form(self.b2, self.b1_shape().rows, self.tree)
        return self._b2_form


def _rows_less(rows: list[dict[int, dict[int, int]]], cols: int,
               dropped) -> list[dict[int, dict[int, int]]]:
    """`rows`, of `cols` columns, without the columns in `dropped`, each
    column left numbered by its place among those kept; the new rows keep
    the order of their entries and share the old rows' entry dicts."""
    place = column_places(cols, dropped)
    return [{k: f for j, f in row.items() if (k := place[j]) is not None} for row in rows]


def _assemble(rep: Representation) -> IntegralChain:
    """Assemble b2 over Z from the image's action, after checking the chain condition.

    Block (j, i) of b2 is sum_g f_{i,g} P(g), with f_{i,g} from one
    `fox_images` walk along relator j: f_{i,g} at (q, q*g) for every q, read
    on g's column, and no block where relator j lacks x_i, so a row costs
    its relator's terms.  Block i of b1, never written, is
    t^{chi_i} P(alpha(x_i)) - I.  Every relator's images must satisfy the
    fundamental formula in Z[Q x Z], which is b2 @ b1 = 0 over every
    coefficient field; no matrix is multiplied.  Entries that are the same
    polynomial share one dict, which nothing changes.  The unit minor of b1
    is block k, t^s P - I, of the first generator with chi_k = s != 0, read
    off chi; a block with chi_i = 0 is P - I or zero, never one.
    """
    n, perms, inverses = rep.action.order, rep.action.perms, rep.action.inverses
    relator_blocks = [fox_images(rep, r) for r in rep.presentation.relators]
    if not all(_fundamental_formula_holds(rep, blocks) for blocks in relator_blocks):
        raise InternalCheckError("chain condition b2 @ b1 = 0 violated")
    minor = next(((k, s) for k, s in enumerate(rep.character.values) if s), None)
    # Column g, [q*g for each point q], for every g that a prefix of a relator
    # reaches: the action is regular, so a column is known by its entry g at
    # 0, and each new one is composed from the last, n reads.
    columns = {0: list(range(n))}
    for r in rep.presentation.relators:
        column = columns[0]
        for x in r.letters:
            perm = perms[x - 1] if x > 0 else inverses[-x - 1]
            g = perm[column[0]]
            if g not in columns:
                columns[g] = list(map(perm.__getitem__, column))
            column = columns[g]
    b2 = []
    for blocks in relator_blocks:
        terms = [(i * n, columns[g], f) for i, block in blocks.items()
                 for g, shifts in block.items() if (f := {k: c for k, c in shifts.items() if c})]
        for q in range(n):
            b2.append(dict(sorted([(i0 + column_g[q], f) for i0, column_g, f in terms])))
    return IntegralChain(rep, b2, *_schreier_walk(rep), minor)


def h1_vanishing(c: TwistedChain) -> tuple[bool, int]:
    """Rank of H1 over F(t): dim of the left kernel of b1 minus rank of b2."""
    kernel_dim = c.b1.rows - c.rank_b1()
    rank_h1 = kernel_dim - c.rank_b2()
    return rank_h1 > 0, rank_h1


def _schreier_walk(rep: Representation) -> tuple[int, list[int]]:
    """(d, tree) from the one walk of the image's Schreier tree: dZ =
    chi(ker alpha), and the tree's edges, numbered as columns of b2.

    `schreier_tree` gives each element g the character value h(g) of its
    tree path.  Each edge g -> g*alpha(x_i) closes a Schreier generator of
    the kernel, of character value h(g) + chi_i - h(g*alpha(x_i)), and d is
    their gcd; a tree edge's value is 0, so every edge is read alike.
    """
    values = rep.character.values
    _, height, tree = schreier_tree(rep.action, values)
    return gcd(*[h + k - height[y] for perm, k in zip(rep.action.perms, values)
                 for h, y in zip(height, perm)]), tree


def _h1_order(c: TwistedChain) -> LaurentPoly:
    """Normalized order of H1 through the order route.

    C1/rowspace(b2) is H1 plus the free module im(b1), so the order is the
    product of the nonzero diagonal entries of b2 when there are
    rows(b1) - rank b1 of them, and zero (H1 has free rank) otherwise; rank
    b1 is an identity, and no rank of b2 is read.
    The integral chain collapsed the image's Schreier tree,
    b2 ~ [b2 less the tree's columns | 0], which keeps every invariant
    factor, and took that matrix to D (+) R over Z[t^{+-1}] and the product
    of D's entries once; `IntegralDiagonal.order` reduces that product into
    this field and multiplies in R's entries, finished here.
    """
    return c.integral.b2_form().order(c.b1.field, c.b1.rows - c.rank_b1())


def h0_report(c: TwistedChain) -> AlexanderReport:
    """Cokernel of b1: the image's action is transitive, so H0 is
    F[t^{+-1}]/(t^d - 1), d from `_schreier_walk`, of rank |Q| - rank b1 =
    [chi = 0].  chi(ker alpha) = dZ has finite index in chi(G), so a walk
    with d = 0 for chi != 0, or d != 0 for chi = 0, aborts the run."""
    d, field = c.integral.d, c.b1.field
    rank_h0 = c.block_size - c.rank_b1()
    # monic, t^0 term: canonical over every field
    order = LaurentPoly.from_int_coeffs(field, {d: 1, 0: -1}) if d else LaurentPoly.zero(field)
    if (d == 0) != bool(rank_h0):
        raise InternalCheckError(
            f"degree-0 check failed: the Schreier walk gives d = {d}, but chi is "
            + ("zero" if rank_h0 else "nonzero") + "\n"
            + _diagnostic(c, rank_h0, order, f"d: {d}")
        )
    return AlexanderReport(0, rank_h0 > 0, rank_h0, order, field,
                           c.representation.action, c.representation.character)


def _diagnostic(c: TwistedChain, rank: int, order: LaurentPoly, detail: str) -> str:
    """What reproduces a failed check, with the sizes involved, the unit
    minor of b1 that gives its rank, or that there is none, and the matrix
    that rank b2 was read on, with its shape, if computed; no entries.  It
    ends with an `alex` command line for the same presentation, character,
    field and quotient, the quotient as the chain was given it (`alex`
    reads its image again)."""
    rep, minor = c.representation, c.integral.minor
    p = rep.presentation
    q = rep.action
    return "\n".join([
        f"presentation: {render_presentation(p).replace(chr(10), ' | ')}",
        f"character: {render_character(p, rep.character)}",
        f"quotient: {q.name} (order {q.order}), images {list(q.gen_images)}",
        f"field: {c.b1.field.name}",
        f"b1: {c.b1.rows}x{c.b1.cols}, b2: {c.b2.rows}x{c.b2.cols}",
        f"rank of b1: {c.rank_b1()} by "
        + ("the minor of block {}, t^{} P - I".format(*minor) if minor
           else "the Schreier tree of the image, |Q| - 1"),
        *(["rank of b2: {} {}".format(*c._rank_b2)] if c._rank_b2 else []),
        f"rank over Frac: {rank}",
        f"order: {order.render()}",
        detail,
        "reproduce: " + _alex_command(p, rep.character, rep.quotient, c.b1.field),
    ])


def _alex_command(p: Presentation, chi: Character, q: FiniteQuotient,
                  field: CoefficientField) -> str:
    """A `fibrecheck alex` line for bash that recomputes one report.

    The presentation goes in through a process substitution, and every
    argument is single-quoted.  A group loaded from a table file is named
    by the file's stem, which stands in for its path.
    """
    def quoted(text: str) -> str:
        return "'" + text.replace("'", "'\\''") + "'"

    group = q.group
    if group.order == 1:
        target = "trivial"
    else:
        target = ("z" + group.name[2:] if group.name == f"Z/{group.order}"
                  else group.name.lower() if group.perms is not None
                  else f"file:{group.name}")
        target += ":" + ",".join(map(str, q.gen_images))
    lines = " ".join(map(quoted, render_presentation(p).split("\n")))
    return (f"fibrecheck alex --pres <(printf '%s\\n' {lines}) "
            f"--char {quoted(render_character(p, chi))} --quotient {quoted(target)} "
            f"--field {field.name.lower()}")


def _h1_report(c: TwistedChain) -> AlexanderReport:
    vanishing, rank_h1 = h1_vanishing(c)
    order = _h1_order(c)
    if vanishing != order.is_zero:
        phase = c.integral.b2_form()
        from_z = len(phase.diagonal)
        residual = (f"residual {len(phase.residual)}x{phase.cols - from_z} finished over {c.b1.field.name}"
                    if phase.residual else "no residual")
        raise InternalCheckError(
            "degree-1 cross-check failed: rank route and order route disagree\n"
            + _diagnostic(c, rank_h1, order, "diagonal of b2: ["
                          + ", ".join(d.render() for d in phase.entries(c.b1.field))
                          + f"] ({from_z} entries from Z, {residual})")
        )
    return AlexanderReport(1, vanishing, rank_h1, order, c.b1.field,
                           c.representation.action, c.representation.character)


def integral_chain(p: Presentation, chi: Character, q: FiniteQuotient) -> IntegralChain:
    """Everything of the chain that no field changes, once per quotient.

    Every relator must map to the identity; then `_assemble` assembles b2
    over Z from the action of q's image, checks b2 @ b1 = 0, and reads d of
    H0 and the unit minor of b1.
    """
    return _assemble(build_representation(p, chi, q))


def chain_reports(c: TwistedChain) -> list[AlexanderReport]:
    """Degree-0 and degree-1 reports of one chain with the dual-route cross-check."""
    return [h0_report(c), _h1_report(c)]


def full_report(p: Presentation, chi: Character, q: FiniteQuotient,
                field: CoefficientField) -> list[AlexanderReport]:
    """Degree-0 and degree-1 reports with the dual-route cross-check."""
    return chain_reports(integral_chain(p, chi, q).over(field))
