"""Exact Laurent-polynomial linear algebra over Q or a prime field F_p.

Coefficients are Python Fractions (rationals) or ints reduced mod p, so all
arithmetic is exact.  Matrices over F[t] are brought to Smith normal form by
Euclidean elimination on polynomial degrees; rank over the rational-function
field F(t) uses fraction-free Bareiss elimination with minimal-degree
pivoting.  Units of F[t^{+-1}] are c*t^k, so the
canonical representative of a nonzero polynomial class is monic with nonzero
constant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "CoefficientField",
    "LaurentPoly",
    "PolyMatrix",
    "SnfResult",
    "NotInSpan",
    "rank_over_fraction_field",
    "smith_normal_form",
    "clear_denominators",
    "poly_gcd",
]


class NotInSpan(ArithmeticError):
    """An exact division in F[t^{+-1}] was not exact."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CoefficientField:
    """The rationals, or the field with p elements (p prime)."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @classmethod
    def rationals(cls) -> "CoefficientField":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "CoefficientField":
        return cls(p)

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    def of_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return 1 / Fraction(a) if self.p is None else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.p == other.p

    def __hash__(self):
        return hash(("CoefficientField", self.p))

    def __repr__(self):
        return f"CoefficientField({self.name})"


class LaurentPoly:
    """Laurent polynomial as a sparse exponent -> nonzero coefficient map."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CoefficientField, coeffs: dict[int, object] | None = None):
        self.field = field
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def _raw(cls, field: CoefficientField, coeffs: dict[int, object]) -> "LaurentPoly":
        """Internal constructor for dicts already free of zero coefficients."""
        self = object.__new__(cls)
        self.field = field
        self.coeffs = coeffs
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: CoefficientField) -> "LaurentPoly":
        return cls(field)

    @classmethod
    def one(cls, field: CoefficientField) -> "LaurentPoly":
        return cls(field, {0: field.one})

    @classmethod
    def term(cls, field: CoefficientField, c: int, k: int = 0) -> "LaurentPoly":
        """c * t^k with an integer coefficient."""
        return cls(field, {k: field.of_int(c)})

    @classmethod
    def from_int_coeffs(cls, field: CoefficientField, coeffs: dict[int, int]) -> "LaurentPoly":
        return cls(field, {e: field.of_int(c) for e, c in coeffs.items()})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def low(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no lowest exponent")
        return min(self.coeffs)

    @property
    def high(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no highest exponent")
        return max(self.coeffs)

    @property
    def span(self) -> int:
        """Degree spread; elimination pivots are chosen to minimise this."""
        return 0 if self.is_zero else self.high - self.low

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"LaurentPoly({self.render()!r} over {self.field.name})"

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"field mismatch: {self.field.name} vs {other.field.name}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        f = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = f.add(out.get(e, f.zero), c)
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly._raw(f, out)

    def __neg__(self) -> "LaurentPoly":
        f = self.field
        return LaurentPoly._raw(f, {e: f.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        if not other.coeffs:
            return self
        f = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = f.sub(out.get(e, f.zero), c)
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly._raw(f, out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        f = self.field
        if not self.coeffs or not other.coeffs:
            return LaurentPoly._raw(f, {})
        if len(self.coeffs) == 1:
            ((e1, c1),) = self.coeffs.items()
            return LaurentPoly._raw(f, {e1 + e2: f.mul(c1, c2) for e2, c2 in other.coeffs.items()})
        if len(other.coeffs) == 1:
            ((e2, c2),) = other.coeffs.items()
            return LaurentPoly._raw(f, {e1 + e2: f.mul(c1, c2) for e1, c1 in self.coeffs.items()})
        out: dict[int, object] = {}
        zero = f.zero
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = f.add(out.get(e, zero), f.mul(c1, c2))
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly._raw(f, out)

    def scale(self, c) -> "LaurentPoly":
        f = self.field
        if c == 0:
            return LaurentPoly._raw(f, {})
        return LaurentPoly._raw(f, {e: f.mul(x, c) for e, x in self.coeffs.items()})

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly._raw(self.field, {e + k: c for e, c in self.coeffs.items()})

    def reciprocal(self) -> "LaurentPoly":
        """Substitute t -> t^-1."""
        return LaurentPoly._raw(self.field, {-e: c for e, c in self.coeffs.items()})

    def monic(self) -> "LaurentPoly":
        """Scale so the highest-exponent coefficient is 1."""
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.coeffs[self.high]))

    def canonical(self) -> "LaurentPoly":
        """Canonical representative up to units c*t^k: monic, lowest exponent 0."""
        if self.is_zero:
            return self
        return self.shifted(-self.low).monic()

    def divmod_poly(self, b: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Division with remainder in F[t]; both operands must have low >= 0."""
        self._check(b)
        if b.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if (not self.is_zero and self.low < 0) or b.low < 0:
            raise ValueError("divmod_poly needs polynomials in F[t]")
        f = self.field
        rem = dict(self.coeffs)
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
        return LaurentPoly._raw(f, quo), LaurentPoly._raw(f, rem)

    def exact_div(self, b: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient in F[t^{+-1}]; raises NotInSpan if inexact."""
        self._check(b)
        if b.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero(self.field)
        la, lb = self.low, b.low
        q, r = self.shifted(-la).divmod_poly(b.shifted(-lb))
        if not r.is_zero:
            raise NotInSpan(f"{b.render()} does not divide {self.render()}")
        return q.shifted(la - lb)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Ascending-exponent rendering, e.g. ``-2 + t``; zero is ``0``."""
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                if c == self.field.one:
                    parts.append(tpow)
                elif self.field.p is None and c == -1:
                    parts.append(f"-{tpow}")
                else:
                    parts.append(f"{c}*{tpow}")
        return " + ".join(parts)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd in F[t] (inputs must have low >= 0)."""
    while not b.is_zero:
        a, b = b, a.divmod_poly(b)[1]
    return a.monic()


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
        """Test helper: entries are ints (constants) or {exp: int} maps."""
        out = []
        for row in rows:
            out.append([
                LaurentPoly.term(field, e) if isinstance(e, int)
                else LaurentPoly.from_int_coeffs(field, e)
                for e in row
            ])
        return cls(field, out)

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

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(self.field, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        ], self.rows, self.cols)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(self.field, [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        ], self.rows, self.cols)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        zero = f.zero
        out_entries = []
        for i in range(self.rows):
            acc: list[dict[int, object]] = [{} for _ in range(other.cols)]
            row = self.entries[i]
            for k in range(self.cols):
                a = row[k].coeffs
                if not a:
                    continue
                other_row = other.entries[k]
                for j in range(other.cols):
                    b = other_row[j].coeffs
                    if not b:
                        continue
                    cell = acc[j]
                    for e1, c1 in a.items():
                        for e2, c2 in b.items():
                            e = e1 + e2
                            s = f.add(cell.get(e, zero), f.mul(c1, c2))
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


def rank_over_fraction_field(m: PolyMatrix) -> int:
    """Rank over F(t) by fraction-free Bareiss elimination.

    Pivots are chosen with minimal degree spread to curb coefficient growth;
    the two-step division is exact by the Sylvester determinant identity, so
    entries stay Laurent polynomials throughout.
    """
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    prev = LaurentPoly.one(m.field)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if not a[i][c].is_zero and (
                pivot_row is None or a[i][c].span < a[pivot_row][c].span
            ):
                pivot_row = i
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, rows):
            if all(a[i][j].is_zero for j in range(c, cols)):
                continue
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]).exact_div(prev)
            a[i][c] = LaurentPoly.zero(m.field)
        prev = a[r][c]
        r += 1
    return r


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d1 | d2 | ... (monic in F[t], or zero) and the rank."""

    invariant_factors: tuple[LaurentPoly, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if not d.is_zero)


def smith_normal_form(m: PolyMatrix) -> SnfResult:
    """Smith normal form over the Euclidean domain F[t]."""
    _require_poly_entries(m, "smith_normal_form")
    field = m.field
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    n = min(rows, cols)
    factors: list[LaurentPoly] = []

    def find_pivot(k: int):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if not a[i][j].is_zero and (best is None or a[i][j].high < a[best[0]][best[1]].high):
                    best = (i, j)
        return best

    for k in range(n):
        pos = find_pivot(k)
        if pos is None:
            break
        while True:
            i0, j0 = pos
            a[k], a[i0] = a[i0], a[k]
            for row in a:
                row[k], row[j0] = row[j0], row[k]
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k].is_zero:
                    continue
                q, r = a[i][k].divmod_poly(a[k][k])
                for j in range(k, cols):
                    a[i][j] = a[i][j] - q * a[k][j]
                if not r.is_zero:
                    dirty = True
            for j in range(k + 1, cols):
                if a[k][j].is_zero:
                    continue
                q, r = a[k][j].divmod_poly(a[k][k])
                for i in range(k, rows):
                    a[i][j] = a[i][j] - q * a[i][k]
                if not r.is_zero:
                    dirty = True
            if dirty:
                pos = find_pivot(k)
                continue
            # Cross is clear; enforce divisibility into the remaining block.
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if not a[i][j].is_zero and not a[i][j].divmod_poly(a[k][k])[1].is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(k, cols):
                a[k][j] = a[k][j] + a[offender][j]
            pos = (k, k)
        inv_lead = field.inv(a[k][k].coeffs[a[k][k].high])
        factors.append(a[k][k].scale(inv_lead))

    factors.extend(LaurentPoly.zero(field) for _ in range(n - len(factors)))
    return SnfResult(tuple(factors))
