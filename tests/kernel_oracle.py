"""Test-only oracle: the kernel route to the degree-1 order.

`fibrecheck` takes ord H1 from one diagonal form of b2.  This module keeps
the older, independent route as a reference: a free basis K of the left
kernel of b1 from a column Hermite form of b1^T, the rows of b2 rewritten in
K-coordinates by `solve_in_span`, and the invariant factors of that
coordinate matrix.  The tests compare the two routes.  The Hermite form
works over F[t], so its inputs first pass `clear_denominators`, and it
divides with remainder in F[t] by `divmod_poly`.
"""

from __future__ import annotations

from fibrecheck.alexander import TwistedChain
from fibrecheck.polyalg import LaurentPoly, NotInSpan
from dense_oracle import DenseRepresentation, PolyMatrix, dense_chain, to_dense
from smith_oracle import order_of, smith_normal_form


def divmod_poly(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in F[t]; both operands must have low >= 0."""
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field.name} vs {b.field.name}")
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if (not a.is_zero and a.low < 0) or b.low < 0:
        raise ValueError("divmod_poly needs polynomials in F[t]")
    f = a.field
    rem = dict(a.coeffs)
    quo: dict[int, object] = {}
    db, lead = b.high, b.coeffs[b.high]
    lead_inv = f.inv(lead)
    while rem and max(rem) >= db:
        e = max(rem)
        q = f.mul(rem[e], lead_inv)
        quo[e - db] = q
        for eb, cb in b.coeffs.items():
            ee = eb + e - db
            c = f.sub(rem.get(ee, f.zero), f.mul(q, cb))
            if c == 0:
                rem.pop(ee, None)
            else:
                rem[ee] = c
    return LaurentPoly(f, quo), LaurentPoly(f, rem)


def clear_denominators(m: PolyMatrix) -> PolyMatrix:
    """Scale each row by a t-power so all entries lie in F[t].

    Row scaling by units of F[t^{+-1}] changes neither rank, kernels, nor
    the unit class of invariant factors; the stripped t-powers are dropped.
    """
    out = m.copy()
    for i in range(out.rows):
        lows = [e.low for e in out.entries[i] if not e.is_zero]
        if lows and min(lows) < 0:
            shift = -min(lows)
            out.entries[i] = [e.shifted(shift) for e in out.entries[i]]
    return out


def _require_poly_entries(m: PolyMatrix, where: str):
    for row in m.entries:
        for e in row:
            if not e.is_zero and e.low < 0:
                raise ValueError(f"{where} needs entries in F[t]; clear denominators first")


def hermite_normal_form(m: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """Column echelon form over F[t]: returns (H, U) with m @ U = H.

    U is a product of column swaps, constant scalings, and additions of
    F[t]-multiples of one column to another, so it is invertible over F[t]
    and preserves the column span.  Pivots are made monic; each pivot's
    first nonzero row strictly increases and zero columns come last.
    """
    _require_poly_entries(m, "hermite_normal_form")
    h = m.copy()
    u = PolyMatrix.identity(m.field, m.cols)

    def add_col(dst: int, src: int, q: LaurentPoly):
        for mat in (h, u):
            for i in range(mat.rows):
                mat.entries[i][dst] = mat.entries[i][dst] - q * mat.entries[i][src]

    def swap_col(j1: int, j2: int):
        for mat in (h, u):
            for i in range(mat.rows):
                mat.entries[i][j1], mat.entries[i][j2] = mat.entries[i][j2], mat.entries[i][j1]

    def scale_col(j: int, c):
        for mat in (h, u):
            for i in range(mat.rows):
                mat.entries[i][j] = mat.entries[i][j].scale(c)

    c = 0
    for r in range(m.rows):
        if c >= m.cols:
            break
        live = [j for j in range(c, m.cols) if not h.entries[r][j].is_zero]
        if not live:
            continue
        while len(live) > 1:
            jmin = min(live, key=lambda j: h.entries[r][j].high)
            for j in live:
                if j == jmin:
                    continue
                q, _ = divmod_poly(h.entries[r][j], h.entries[r][jmin])
                add_col(j, jmin, q)
            live = [j for j in range(c, m.cols) if not h.entries[r][j].is_zero]
        if live[0] != c:
            swap_col(live[0], c)
        scale_col(c, m.field.inv(h.entries[r][c].coeffs[h.entries[r][c].high]))
        c += 1
    return h, u


def kernel_basis(m: PolyMatrix) -> PolyMatrix:
    """Free-module basis of {v : m @ v = 0}; one column per basis vector."""
    _require_poly_entries(m, "kernel_basis")
    h, u = hermite_normal_form(m)
    zero_cols = [j for j in range(h.cols) if all(h.entries[i][j].is_zero for i in range(h.rows))]
    out = PolyMatrix.zeros(m.field, m.cols, len(zero_cols))
    for k, j in enumerate(zero_cols):
        for i in range(m.cols):
            out.entries[i][k] = u.entries[i][j]
    return out


def solve_in_span(basis: PolyMatrix, target: PolyMatrix) -> PolyMatrix:
    """Solve basis @ X = target exactly over F[t^{+-1}].

    Raises NotInSpan when a target column is outside the span of the basis
    columns; for chain complexes that signals a broken boundary condition.
    """
    if basis.rows != target.rows:
        raise ValueError("basis and target row counts differ")
    # Joint row scaling keeps solutions intact and puts entries in F[t].
    joint = clear_denominators(PolyMatrix.hstack([basis, target])) if basis.cols or target.cols \
        else PolyMatrix.zeros(basis.field, basis.rows, 0)
    b = PolyMatrix(basis.field, [row[:basis.cols] for row in joint.entries], basis.rows, basis.cols)
    t = PolyMatrix(basis.field, [row[basis.cols:] for row in joint.entries], basis.rows, target.cols)
    h, u = hermite_normal_form(b)
    pivots = []  # (row, col) per nonzero column of h
    for j in range(h.cols):
        rows_nonzero = [i for i in range(h.rows) if not h.entries[i][j].is_zero]
        if rows_nonzero:
            pivots.append((rows_nonzero[0], j))
    x = PolyMatrix.zeros(basis.field, basis.cols, target.cols)
    for col in range(target.cols):
        residual = t.column(col)
        y = [LaurentPoly.zero(basis.field) for _ in range(h.cols)]
        for r, j in pivots:
            if residual[r].is_zero:
                continue
            q = residual[r].exact_div(h.entries[r][j])
            y[j] = q
            for i in range(basis.rows):
                residual[i] = residual[i] - q * h.entries[i][j]
        if any(not e.is_zero for e in residual):
            raise NotInSpan(f"target column {col} is not in the span of the basis")
        for i in range(basis.cols):
            acc = LaurentPoly.zero(basis.field)
            for j in range(h.cols):
                if not y[j].is_zero and not u.entries[i][j].is_zero:
                    acc = acc + u.entries[i][j] * y[j]
            x.entries[i][col] = acc
    return x


def kernel_route_h1_order(c: TwistedChain) -> LaurentPoly:
    """ord H1 as the invariant factors of b2 in kernel-of-b1 coordinates.

    The left kernel of b1 is freely spanned by the columns of K; the rows of
    b2 rewritten in K-coordinates present H1, and the order is the product
    of the invariant factors (zero when the presentation has free rank).
    The chain keeps only b1's shape, so b1 is the one `dense_chain` writes
    out for the same representation.
    """
    field = c.b1.field
    _, b1 = dense_chain(DenseRepresentation.of(c.representation, field), c.representation)
    kernel = kernel_basis(clear_denominators(b1.transpose()))
    coords = solve_in_span(kernel, clear_denominators(to_dense(c.b2)).transpose())
    return order_of(field, smith_normal_form(coords), kernel.cols)
