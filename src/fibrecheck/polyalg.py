"""Exact Laurent-polynomial linear algebra over Q or a prime field F_p.

Coefficients are Python Fractions (rationals) or ints reduced mod p, so all
arithmetic is exact.  Matrices over F[t] are brought to Smith normal form by
Euclidean elimination on polynomial degrees.  Rank over the rational-function
field F(t) has two routes.  `rank_lower_bound` maps t to a fixed point of a
finite field and eliminates there; every minor maps to the image of that
minor, so the result never exceeds the rank over F(t), and it proves the rank
whenever it meets a known upper bound.  `rank_over_fraction_field` is exact
fraction-free Bareiss elimination with minimal-degree pivoting, the fallback
when the bound falls short.  Units of F[t^{+-1}] are c*t^k, so the
canonical representative of a nonzero polynomial class is monic with nonzero
constant term.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

__all__ = [
    "CoefficientField",
    "LaurentPoly",
    "PolyMatrix",
    "SnfResult",
    "NotInSpan",
    "EVALUATION_POINT",
    "rank_lower_bound",
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


# Image of t over Q (modulo 2^61 - 1) and over F_p when p^2 > 2^13 (modulo p).
EVALUATION_POINT = 1_000_000_007
_MERSENNE_61 = (1 << 61) - 1
_GF_ORDER_LIMIT = 1 << 13


def rank_lower_bound(m: PolyMatrix) -> int:
    """Rank of m after mapping t to a fixed point of a finite field.

    A nonzero minor of the image is the image of the same minor of m, so
    the result never exceeds the rank over F(t); it falls short only when
    the point is a root of every nonzero maximal minor.  Over Q, t maps to
    EVALUATION_POINT modulo the prime 2^61 - 1, and the bound is 0 when that
    prime divides a denominator.  Over F_p, t maps to a generator of
    GF(p^k), the largest such field of order at most 2^13, while k >= 2;
    once p^2 > 2^13, t maps to EVALUATION_POINT modulo p.
    """
    p = m.field.p
    if p is not None and p * p <= _GF_ORDER_LIMIT:
        return _rank_in_extension(m, p)
    modulus = _MERSENNE_61 if p is None else p
    point = EVALUATION_POINT % modulus or 1  # every nonzero point gives a bound
    powers: dict[int, int] = {}
    a = []
    for row in m.entries:
        image = []
        for entry in row:
            value = 0
            for e, c in entry.coeffs.items():
                if c.denominator != 1:  # a Fraction over Q
                    if c.denominator % modulus == 0:
                        return 0
                    c = c.numerator * pow(c.denominator, -1, modulus)
                x = powers.get(e)
                if x is None:
                    x = powers[e] = pow(point, e, modulus)
                value += c.numerator * x
            image.append(value % modulus)
        a.append(image)
    rank = 0
    for c in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        inv = pow(top[c], -1, modulus)
        for i in range(rank + 1, m.rows):
            if a[i][c]:
                f = a[i][c] * inv % modulus
                a[i] = [(x - f * y) % modulus for x, y in zip(a[i], top)]
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _zech_field(p: int) -> tuple[int, int, array, array]:
    """GF(p^k), with k >= 2 the largest such that p^k <= 2^13, by Zech logarithms.

    Returns (n, neg_one, zech, prime_log).  The nonzero elements are the
    powers alpha^i, 0 <= i < n = p^k - 1, of a root alpha of the first
    primitive polynomial x^k + ... + c0 in a fixed search order; zech[i] is
    the exponent of 1 + alpha^i, or -1 when that sum is zero; neg_one is the
    exponent of -1; prime_log[c] is the exponent of c in F_p (index 0
    unused).  Only candidates whose norm (-1)^k c0 is a primitive root mod p
    are tried, since the norm of a generator generates F_p^*.
    """
    k = 2
    while p ** (k + 1) <= _GF_ORDER_LIMIT:
        k += 1
    q, top = p ** k, p ** (k - 1)
    n = q - 1
    order_factors = [r for r in range(2, p) if (p - 1) % r == 0 and _is_prime(r)]
    roots = [g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors)]

    def add(a: int, b: int) -> int:  # digitwise in base p: vectors over F_p
        if p == 2:
            return a ^ b
        out, place = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * place
            place *= p
        return out

    for middle in product(range(p), repeat=k - 1):
        for g in roots:
            low = [(-1) ** k * g % p, *middle]  # coefficients of x^0 .. x^(k-1)
            # x^k = -low, times each possible leading digit d
            reduce_by = [sum((-d * c) % p * p ** i for i, c in enumerate(low)) for d in range(p)]
            exp = array("i", [0]) * n
            v = 1
            for i in range(n):
                if v == 1 and i:
                    break
                exp[i] = v
                d, rest = divmod(v, top)
                v = add(rest * p, reduce_by[d]) if d else rest * p
            else:
                if v != 1:
                    continue
                log = array("i", [0]) * q
                for i, v in enumerate(exp):
                    log[v] = i
                zech = array("i", [0]) * n
                for i, v in enumerate(exp):
                    w = v - v % p + (v + 1) % p
                    zech[i] = log[w] if w else -1
                return n, log[p - 1], zech, log[:p]
    raise AssertionError(f"no primitive polynomial of degree {k} over F{p}")


def _rank_in_extension(m: PolyMatrix, p: int) -> int:
    """Rank of m at t -> alpha in GF(p^k), eliminating on Zech exponents (-1 is zero)."""
    n, neg_one, zech, prime_log = _zech_field(p)
    a = []
    for row in m.entries:
        image = []
        for entry in row:
            acc = -1
            for e, c in entry.coeffs.items():
                x = (prime_log[c] + e) % n
                if acc < 0:
                    acc = x
                else:
                    z = zech[(x - acc) % n]
                    acc = -1 if z < 0 else (acc + z) % n
            image.append(acc)
        a.append(image)
    rank = 0
    for c in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if a[i][c] >= 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        shift = neg_one - top[c]  # row_i -= (a_ic / a_rc) * row_r
        for i in range(rank + 1, m.rows):
            row = a[i]
            if row[c] < 0:
                continue
            f = row[c] + shift
            for j in range(c + 1, m.cols):
                y = top[j]
                if y < 0:
                    continue
                s = (f + y) % n
                x = row[j]
                if x < 0:
                    row[j] = s
                else:
                    z = zech[(s - x) % n]
                    row[j] = -1 if z < 0 else (x + z) % n
        rank += 1
    return rank


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
