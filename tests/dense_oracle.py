"""Test-only oracles: dense matrices, and words evaluated as matrices.

`fibrecheck` keeps every matrix as a `polyalg.SparseMatrix` of integer rows,
and its kernels read only `field`, `rows`, `cols` and `sparse_rows()`.
`PolyMatrix` here is a dense matrix of LaurentPoly entries over one field
with the same four members, so the tests can write matrices entry by entry,
multiply and stack them, and hand them to the same kernels; `to_dense` reads
a sparse matrix into one.

The chain of a quotient is filled by `fibrecheck.alexander` from one walk
per relator (`fibrecheck.foxcalc.fox_images`), over Z, on the permutations
of the image's right regular action (`fibrecheck.quotients.image_action`),
and read over each field by `IntegralChain.over`; `chain_over` makes such a
chain from a given representation.  That chain writes b2 only: of b1 it
keeps the field and shape, since no route reads b1's entries, so b1 is
written out only here, by `dense_chain`.  This module keeps two older routes as
references, both read off the target's multiplication table and neither off
the action.  They work in the image of the quotient, whose elements
`image_elements` finds by closing the generator images under the table's
products and labels in ascending ambient id, as the program does.
`evaluate` maps each word of a group-ring element to the monomial matrix
t^{chi(w)} P(alpha(w)), with alpha(w) read off the group table.
`DenseRepresentation` multiplies one dense n x n matrix per generator and
per inverse, from the table, letter by letter, and a group-ring element's
image is the sum of its scaled word images.  The tests compare the routes
entry for entry, and `DenseRepresentation` also takes generator matrices of
another convention, such as the transposed one.
"""

from __future__ import annotations

from typing import Sequence

from fibrecheck.alexander import IntegralChain, TwistedChain, _assemble, _h1_order, _schreier_walk
from fibrecheck.foxcalc import Representation
from fibrecheck.polyalg import CoefficientField, LaurentPoly, SparseMatrix
from fibrecheck.quotients import FiniteQuotient
from fibrecheck.words import Word
from free_group_oracle import GroupRingElement, fox_derivative


def term(field: CoefficientField, c: int, k: int = 0) -> LaurentPoly:
    """c * t^k with an integer coefficient."""
    return LaurentPoly(field, {k: field.of_int(c)})


class PolyMatrix:
    """Dense matrix of LaurentPoly entries; zero-dimensional shapes allowed."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: CoefficientField, entries: Sequence[Sequence[LaurentPoly]],
                 rows: int | None = None, cols: int | None = None):
        self.field = field
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries) if rows is None else rows
        self.cols = (len(self.entries[0]) if self.entries else 0) if cols is None else cols
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, field: CoefficientField, rows: int, cols: int) -> "PolyMatrix":
        z = LaurentPoly.zero(field)
        return cls(field, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, field: CoefficientField, n: int) -> "PolyMatrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.entries[i][i] = LaurentPoly.one(field)
        return m

    @classmethod
    def from_int_rows(cls, field: CoefficientField, rows: Sequence[Sequence[dict[int, int] | int]]) -> "PolyMatrix":
        """Entries are ints (constants) or {exp: int} maps."""
        return cls(field, [[term(field, e) if isinstance(e, int)
                            else LaurentPoly.from_int_coeffs(field, e) for e in row]
                           for row in rows])

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(", ".join(e.render() for e in row) for row in self.entries)
        return f"PolyMatrix({self.rows}x{self.cols}: [{body}])"

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def copy(self) -> "PolyMatrix":
        return PolyMatrix(self.field, [list(row) for row in self.entries], self.rows, self.cols)

    def transpose(self) -> "PolyMatrix":
        out = PolyMatrix.zeros(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.entries[j][i] = self.entries[i][j]
        return out

    def _check_shape(self, other: "PolyMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other)
        return PolyMatrix(self.field, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        ], self.rows, self.cols)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other)
        return PolyMatrix(self.field, [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        ], self.rows, self.cols)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        out_entries = []
        for row in self.entries:
            acc: list[dict[int, object]] = [{} for _ in range(other.cols)]
            for k in range(self.cols):
                a = row[k].coeffs
                if not a:
                    continue
                for j, entry in enumerate(other.entries[k]):
                    cell = acc[j]
                    for e1, c1 in a.items():
                        for e2, c2 in entry.coeffs.items():
                            e = e1 + e2
                            s = f.add(cell.get(e, f.zero), f.mul(c1, c2))
                            if s == 0:
                                cell.pop(e, None)
                            else:
                                cell[e] = s
            out_entries.append([LaurentPoly._raw(f, cell) for cell in acc])
        return PolyMatrix(f, out_entries, self.rows, other.cols)

    @classmethod
    def vstack(cls, blocks: Sequence["PolyMatrix"]) -> "PolyMatrix":
        if not blocks:
            raise ValueError("vstack of nothing")
        field, cols = blocks[0].field, blocks[0].cols
        entries = [row for b in blocks for row in b.entries]
        return cls(field, entries, sum(b.rows for b in blocks), cols)

    @classmethod
    def hstack(cls, blocks: Sequence["PolyMatrix"]) -> "PolyMatrix":
        if not blocks:
            raise ValueError("hstack of nothing")
        field, rows = blocks[0].field, blocks[0].rows
        entries = [[e for b in blocks for e in b.entries[i]] for i in range(rows)]
        return cls(field, entries, rows, sum(b.cols for b in blocks))

    def column(self, j: int) -> list[LaurentPoly]:
        return [self.entries[i][j] for i in range(self.rows)]

    def sparse_rows(self) -> list[dict[int, dict[int, object]]]:
        """Each row as {column: coefficient dict} of its nonzero entries."""
        return [{j: e.coeffs for j, e in enumerate(row) if e.coeffs} for row in self.entries]


def to_dense(m: SparseMatrix) -> PolyMatrix:
    """The dense matrix of a sparse one, each coefficient read into its field."""
    out = PolyMatrix.zeros(m.field, m.rows, m.cols)
    for i, row in enumerate(m.sparse_rows()):
        for j, coeffs in row.items():
            out.entries[i][j] = LaurentPoly.from_int_coeffs(m.field, coeffs)
    return out


def chain_over(rep: Representation, field: CoefficientField) -> TwistedChain:
    """The chain of `rep` over `field`, as `fibrecheck.alexander.integral_chain` builds it."""
    return _assemble(rep).over(field)


def h1_order(c: TwistedChain) -> LaurentPoly:
    """ord H1 through the order route alone; no rank is read."""
    return _h1_order(c)


def evaluate(rep: Representation, e: GroupRingElement, field: CoefficientField) -> PolyMatrix:
    """Linear extension of the word action to group-ring elements, over `field`.

    The terms c*w are gathered by their image g = alpha(w) into one Laurent
    polynomial f_g = sum c*t^{chi(w)}, and the image of e is sum_g f_g P(g)
    on the image of alpha: f_g sits at (q, q*g) for every element q of the
    image, each labelled by `image_elements`, and distinct g fill distinct
    entries.
    """
    group, images, chi = rep.quotient.group, rep.quotient.gen_images, rep.character
    elements = image_elements(rep.quotient)
    label = {e: i for i, e in enumerate(elements)}
    by_image: dict[int, dict[int, int]] = {}
    for w, c in e.terms.items():
        shifts = by_image.setdefault(group.word_image(w, images), {})
        k = chi.of_word(w)
        shifts[k] = shifts.get(k, 0) + c
    out = PolyMatrix.zeros(field, len(elements), len(elements))
    for g, shifts in by_image.items():
        f = LaurentPoly.from_int_coeffs(field, shifts)
        for q, h in enumerate(elements):
            out.entries[q][label[group.mul(h, g)]] = f
    return out


def image_elements(q: FiniteQuotient) -> list[int]:
    """The elements of q's image, in ascending ambient id: the generator
    images closed under the table's products, from the identity."""
    group = q.group
    elements = {0}
    while True:
        grown = elements | {group.mul(e, a) for e in elements for a in q.gen_images}
        if grown == elements:
            return sorted(elements)
        elements = grown


class DenseRepresentation:
    """Generator matrices and their inverses, multiplied letter by letter."""

    def __init__(self, field: CoefficientField, dim: int,
                 matrices: list[PolyMatrix], inverses: list[PolyMatrix]):
        self.field = field
        self.dim = dim
        self.matrices = matrices
        self.inverses = inverses
        self._word_cache: dict[tuple[int, ...], PolyMatrix] = {}

    @classmethod
    def of(cls, rep: Representation, field: CoefficientField) -> "DenseRepresentation":
        """The matrices t^{chi(x_i)} P(alpha(x_i)) of the right regular
        action of the image, read off the table on `image_elements`."""
        group = rep.quotient.group
        elements = image_elements(rep.quotient)
        label = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        matrices, inverses = [], []
        for e, k in zip(rep.quotient.gen_images, rep.character.values):
            fwd = PolyMatrix.zeros(field, n, n)
            bwd = PolyMatrix.zeros(field, n, n)
            for row, h in enumerate(elements):
                fwd.entries[row][label[group.mul(h, e)]] = term(field, 1, k)
                bwd.entries[row][label[group.mul(h, group.inverse(e))]] = term(field, 1, -k)
            matrices.append(fwd)
            inverses.append(bwd)
        return cls(field, n, matrices, inverses)

    def generator_matrix(self, i: int) -> PolyMatrix:
        return self.matrices[i - 1]

    def phi(self, w: Word) -> PolyMatrix:
        """Image of a word: the product of generator matrix images."""
        cached = self._word_cache.get(w.letters)
        if cached is not None:
            return cached
        out = PolyMatrix.identity(self.field, self.dim)
        for x in w.letters:
            out = out @ (self.matrices[x - 1] if x > 0 else self.inverses[-x - 1])
        self._word_cache[w.letters] = out
        return out

    def evaluate(self, e: GroupRingElement) -> PolyMatrix:
        """Linear extension of the word action to group-ring elements."""
        out = PolyMatrix.zeros(self.field, self.dim, self.dim)
        for w, c in e.terms.items():
            fc = self.field.of_int(c)
            img = self.phi(w)
            scaled = PolyMatrix(self.field, [[x.scale(fc) for x in row] for row in img.entries],
                                img.rows, img.cols)
            out = out + scaled
        return out


def dense_chain(dense: DenseRepresentation, rep: Representation) -> tuple[TwistedChain, PolyMatrix]:
    """The chain of b2 assembled from the dense images, labelled with `rep`,
    and b1 beside it.

    b1 stacks the blocks phi(x_i) - I and b2 the evaluated Fox derivatives;
    `chain_over` fills the same b2 from the group table and writes no entry
    of b1, and so does the chain returned here, which keeps b1's shape
    only.  The b1 returned beside it is what the tests check rank b1,
    b2 @ b1 = 0 and the kernel route against.  The closed form of H0 and
    the Schreier tree are walked on `rep`, the unit minor of b1 is taken
    from chi as `_assemble` takes it, no rank is inherited, and the order
    route eliminates the integer rows of this b2, less the tree's columns,
    over Z[t^{+-1}].
    """
    p = rep.presentation
    ident = PolyMatrix.identity(dense.field, dense.dim)
    b1 = PolyMatrix.vstack([dense.generator_matrix(i) - ident
                            for i in range(1, p.generator_count + 1)])
    if p.relators:
        b2 = PolyMatrix.vstack([
            PolyMatrix.hstack([dense.evaluate(fox_derivative(r, i))
                               for i in range(1, p.generator_count + 1)])
            for r in p.relators
        ])
    else:
        b2 = PolyMatrix.zeros(dense.field, 0, p.generator_count * dense.dim)
    minor = next(((k, s) for k, s in enumerate(rep.character.values) if s), None)
    integral = IntegralChain(rep, b2.sparse_rows(), *_schreier_walk(rep), minor)
    return TwistedChain(integral, integral.b1_shape(dense.field), b2), b1
