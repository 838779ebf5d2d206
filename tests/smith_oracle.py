"""Test-only oracle: the Smith normal form over F[t^{+-1}].

`fibrecheck` takes orders from `polyalg.diagonal_form`, the nonzero entries
of a diagonal form, which need not divide one another.  This module keeps
the full Smith form, with the divisibility pass that makes its factors a
chain d1 | d2 | ..., as a reference: its factors are the invariant factors,
padded with zeros to min(rows, cols) entries, and the product of the first
k is the gcd of the k x k minors for every k.  The tests compare the
production form against it.
"""

from __future__ import annotations

from fibrecheck.polyalg import LaurentPoly
from dense_oracle import PolyMatrix


def smith_normal_form(m: PolyMatrix) -> tuple[LaurentPoly, ...]:
    """Smith normal form over the Euclidean domain F[t^{+-1}], normed by span:
    the invariant factors, then zeros to min(rows, cols) entries.

    The pivot is an entry of least span, the first in row-major order on
    ties.  A monomial pivot c*t^k is a unit: multiples of its inverse clear
    its column exactly, which leaves nothing in its row to clear and nothing
    for it to fail to divide, and its factor is 1.  Any other pivot clears
    its row and column by `divmod_laurent`, whose remainders have smaller
    span and restart the pivot search; once the cross is clear, an entry of
    the remaining block that the pivot does not divide is added into the
    pivot row and elimination repeats, so the factors form a divisibility
    chain.
    """
    field = m.field
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    n = min(rows, cols)
    factors: list[LaurentPoly] = []

    def find_pivot(k: int):
        best, best_span = None, 0
        for i in range(k, rows):
            row = a[i]
            for j in range(k, cols):
                c = row[j].coeffs
                if not c:
                    continue
                if len(c) == 1:
                    return i, j
                span = max(c) - min(c)
                if best is None or span < best_span:
                    best, best_span = (i, j), span
        return best

    for k in range(n):
        pos = find_pivot(k)
        if pos is None:
            break
        while True:
            i0, j0 = pos
            a[k], a[i0] = a[i0], a[k]
            if j0 != k:
                for row in a:
                    row[k], row[j0] = row[j0], row[k]
            pivot = a[k][k]
            top = [(j, a[k][j]) for j in range(k + 1, cols) if a[k][j].coeffs]
            if len(pivot.coeffs) == 1:
                # Row k and column k are never read again, so they are left as they are.
                ((e, c),) = pivot.coeffs.items()
                inverse = LaurentPoly._raw(field, {-e: field.inv(c)})
                for i in range(k + 1, rows):
                    row = a[i]
                    if row[k].coeffs:
                        q = row[k] * inverse
                        for j, y in top:
                            row[j] = row[j] - q * y
                break
            dirty = False
            for i in range(k + 1, rows):
                row = a[i]
                if not row[k].coeffs:
                    continue
                q, r = row[k].divmod_laurent(pivot)
                row[k] = r
                for j, y in top:
                    row[j] = row[j] - q * y
                if r.coeffs:
                    dirty = True
            left = [(i, a[i][k]) for i in range(k + 1, rows) if a[i][k].coeffs]
            for j, y in top:
                q, r = y.divmod_laurent(pivot)
                a[k][j] = r
                for i, x in left:
                    a[i][j] = a[i][j] - q * x
                if r.coeffs:
                    dirty = True
            if dirty:
                pos = find_pivot(k)
                continue
            # Cross is clear; enforce divisibility into the remaining block.
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if not a[i][j].is_zero and not a[i][j].divmod_laurent(pivot)[1].is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(k, cols):
                a[k][j] = a[k][j] + a[offender][j]
            pos = (k, k)
        factors.append(pivot.canonical())

    factors.extend(LaurentPoly.zero(field) for _ in range(n - len(factors)))
    return tuple(factors)


def rank_of(factors: tuple[LaurentPoly, ...]) -> int:
    """The number of nonzero factors, with or without zero padding."""
    return sum(1 for d in factors if not d.is_zero)


def order_of(field, factors: tuple[LaurentPoly, ...], full_rank: int) -> LaurentPoly:
    """Product of the nonzero factors, canonical, or zero unless there are full_rank of them."""
    if rank_of(factors) != full_rank:
        return LaurentPoly.zero(field)
    order = LaurentPoly.one(field)
    for d in factors:
        if not d.is_zero:
            order = order * d
    return order.canonical()
