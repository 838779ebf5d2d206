"""Test-only oracles: dense matrices, and words evaluated as matrices.

`fibrecheck` keeps every matrix as a `polyalg.SparseMatrix` of integer rows,
and its kernels read only `field`, `rows`, `cols` and `sparse_rows()`.
`PolyMatrix` here is a dense matrix of LaurentPoly entries over one field
with the same four members, so the tests can write matrices entry by entry,
multiply and stack them, and hand them to the same kernels; `to_dense` reads
a sparse matrix into one.

The chain of a quotient is filled by `fibrecheck.alexander` from one walk
per relator (`fibrecheck.foxcalc.fox_images`), over Z, and read over each
field by `IntegralChain.over`; `chain_over` makes such a chain from a given
representation.  This module keeps two older routes as references.
`evaluate` maps each word of a group-ring element to the monomial matrix
t^{chi(w)} P(alpha(w)), with alpha(w) read off the group table.
`DenseRepresentation` multiplies one dense n x n matrix per generator and
per inverse, letter by letter, and a group-ring element's image is the sum
of its scaled word images.  The tests compare the routes entry for entry,
and `DenseRepresentation` also takes generator matrices of another
convention, such as the transposed one.
"""

from __future__ import annotations

from typing import Sequence

from fibrecheck.alexander import IntegralChain, TwistedChain, _assemble, _h0_walk, _h1_order
from fibrecheck.foxcalc import Representation
from fibrecheck.polyalg import CoefficientField, LaurentPoly, SparseMatrix
from fibrecheck.quotients import regular_representation
from fibrecheck.words import Word
from free_group_oracle import GroupRingElement, fox_derivative


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
        return cls(field, [[LaurentPoly.term(field, e) if isinstance(e, int)
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
    """The chain of `rep` over `field`, with the quotient taken as given.

    `fibrecheck.alexander.integral_chain` restricts the quotient to its image
    first; this takes the representation as it is, as the oracles do.
    """
    return _assemble(rep).over(field)


def h1_order(c: TwistedChain) -> LaurentPoly:
    """ord H1 through the order route alone; no rank is read."""
    return _h1_order(c)[0]


def evaluate(rep: Representation, e: GroupRingElement, field: CoefficientField) -> PolyMatrix:
    """Linear extension of the word action to group-ring elements, over `field`.

    The terms c*w are gathered by their image g = alpha(w) into one Laurent
    polynomial f_g = sum c*t^{chi(w)}, and the image of e is sum_g f_g P(g):
    f_g sits at (q, q*g) for every q, and distinct g fill distinct entries.
    """
    group, images, chi = rep.quotient.group, rep.quotient.gen_images, rep.character
    by_image: dict[int, dict[int, int]] = {}
    for w, c in e.terms.items():
        shifts = by_image.setdefault(group.word_image(w, images), {})
        k = chi.of_word(w)
        shifts[k] = shifts.get(k, 0) + c
    out = PolyMatrix.zeros(field, rep.dim, rep.dim)
    for g, shifts in by_image.items():
        f = LaurentPoly.from_int_coeffs(field, shifts)
        for q in range(rep.dim):
            out.entries[q][group.mul(q, g)] = f
    return out


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
        """The matrices t^{chi(x_i)} P(alpha(x_i)) of the right regular action."""
        group, n = rep.quotient.group, rep.dim
        matrices, inverses = [], []
        for e, k in zip(rep.quotient.gen_images, rep.character.values):
            perm = regular_representation(group, e)
            perm_inv = regular_representation(group, group.inverse(e))
            fwd = PolyMatrix.zeros(field, n, n)
            bwd = PolyMatrix.zeros(field, n, n)
            for row in range(n):
                fwd.entries[row][perm[row]] = LaurentPoly.term(field, 1, k)
                bwd.entries[row][perm_inv[row]] = LaurentPoly.term(field, 1, -k)
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


def dense_chain(dense: DenseRepresentation, rep: Representation) -> TwistedChain:
    """b1 and b2 assembled from the dense images, labelled with `rep`.

    b1 stacks the blocks phi(x_i) - I and b2 the evaluated Fox derivatives;
    `chain_over` fills the same matrices from the group table.  The closed
    form of H0 is walked on `rep`, no rank is inherited, and the order
    route eliminates the integer rows of this b2 over Z[t^{+-1}].
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
    integral = IntegralChain(rep, b1.sparse_rows(), b2.sparse_rows(), _h0_walk(rep))
    return TwistedChain(integral, b1, b2)
