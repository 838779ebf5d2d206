"""Exact Laurent-polynomial linear algebra over Q or a prime field F_p.

Coefficients over Q are Python ints, and Fractions only where a non-unit
has been inverted; over F_p they are ints reduced mod p.  All arithmetic is
exact.  Matrices are brought to a diagonal form over the Laurent ring
F[t^{+-1}] itself, a Euclidean domain whose units are the
monomials c*t^k and whose norm is the span (highest minus lowest exponent),
so monomial entries are unit pivots.  The diagonal need not be a
divisibility chain: an order needs only the product of its nonzero entries,
the gcd of the r x r minors for r the rank.  Rank over the rational-function
field F(t) has two routes.  `rank_lower_bound` maps t to a fixed point of a
finite field and eliminates there; every minor maps to the image of that
minor, so the result never exceeds the rank over F(t), and it proves the rank
whenever it meets a known upper bound.  `rank_over_fraction_field` is exact
fraction-free Bareiss elimination with minimal-degree pivoting, the fallback
when the bound falls short.  There is one matrix type, `SparseMatrix`: rows
of integer coefficients over Z, one dict per row from column to nonzero
entry, which every kernel reads through `sparse_rows()` and reduces into the
field only as it reads.  So one set of rows serves every field.  The
diagonal form and the finite-field rank eliminate sparse rows, with a list
per column of the rows that hold it: the matrices of a twisted chain are
mostly zero, and neither a pivot search nor a row operation visits a zero
entry.  `integral_diagonal_form` runs the same elimination once over
Z[t^{+-1}], pivoting only on entries with top coefficient +-1, so that each
field reads its diagonal D mod p and finishes only the rows R it left.
Bareiss reads the same rows into its own rows of Laurent
polynomials.  Units of F[t^{+-1}] are c*t^k, so the canonical
representative of a nonzero polynomial class is monic with nonzero constant
term.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "CoefficientField",
    "LaurentPoly",
    "SparseMatrix",
    "SnfResult",
    "NotInSpan",
    "EVALUATION_POINT",
    "MAX_FIELD_PRIME",
    "rank_lower_bound",
    "rank_over_fraction_field",
    "diagonal_form",
    "IntegralDiagonal",
    "integral_diagonal_form",
]


class NotInSpan(ArithmeticError):
    """An exact division in F[t^{+-1}] was not exact."""


# Largest characteristic accepted, itself prime.  `_is_prime` tries divisors
# up to sqrt(p): about 46000 at the cap, but 10^15 for a 30-digit prime.
MAX_FIELD_PRIME = (1 << 31) - 1


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
    """The rationals, or the field with p elements (p prime).

    Over Q an integral value is an int: `of_int`, `zero` and `one` give
    ints, and ints stay ints under add, sub, mul and the inverse of +-1.  A
    Fraction is built only to invert a non-unit, and is an int again when its
    denominator is 1.  Arithmetic among Fractions may still give an integral
    Fraction; it compares, hashes and prints as the int it equals.
    """

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int | None = None):
        if p is not None and p > MAX_FIELD_PRIME:
            raise ValueError(f"F{p} is too large: at most F{MAX_FIELD_PRIME} is supported")
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
        return n if self.p is None else n % self.p

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
        if self.p is not None:
            return pow(a, self.p - 2, self.p)
        if a == 1 or a == -1:
            return a
        r = Fraction(a.denominator, a.numerator)
        return r.numerator if r.denominator == 1 else r

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

    def divmod_laurent(self, b: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Division with remainder in F[t^{+-1}]: self = q*b + r, span r < span b.

        A monomial b (a unit) leaves no remainder; see `_divide`.
        """
        self._check(b)
        if b.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r = dict(self.coeffs)
        q = _divide(r, b.coeffs, self.field)
        return LaurentPoly._raw(self.field, q), LaurentPoly._raw(self.field, r)

    def exact_div(self, b: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient in F[t^{+-1}]; raises NotInSpan if inexact."""
        q, r = self.divmod_laurent(b)
        if not r.is_zero:
            raise NotInSpan(f"{b.render()} does not divide {self.render()}")
        return q

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


def _divide(r: dict[int, object], b: dict[int, object], f: CoefficientField) -> dict[int, object]:
    """Reduce r modulo b in F[t^{+-1}] in place and return the quotient.

    Each step cancels the top term of r by a shifted multiple of b, which
    adds no term outside the current span of r, until span r < span b.  A
    nonzero multiple of b has span at least span b, so a b that divides r
    leaves r empty.  Both are raw {exponent: coefficient} dicts over f, and
    b is nonzero.  The top term cancels exactly, so the next top is found by
    walking down from it; the bottom exponent never decreases, so it is
    walked up only when its term cancels.  A division thus walks the span
    of r at most twice, however many steps it takes.
    """
    p = f.p
    hb = max(b)
    sb = hb - min(b)
    lead_inv = f.inv(b[hb])
    quotient: dict[int, object] = {}
    if not r:
        return quotient
    top, low = max(r), min(r)
    while top - low >= sb:
        c = r[top] * lead_inv
        if p is not None:
            c %= p
        s = top - hb
        quotient[s] = c
        _sub_mul(r, {s: c}, b, p)
        if not r:
            break
        while top not in r:
            top -= 1
        while low not in r:
            low += 1
    return quotient


def _sub_mul(r: dict[int, object], q: dict[int, object], y: dict[int, object], p: int | None) -> None:
    """r -= q * y in place on raw coefficient dicts, dropping zero coefficients."""
    get = r.get
    for eq, cq in q.items():
        for ey, cy in y.items():
            k = eq + ey
            v = get(k, 0) - cq * cy
            if p is not None:
                v %= p
            if v:
                r[k] = v
            else:
                r.pop(k, None)


class SparseMatrix:
    """A matrix over F[t^{+-1}] kept as sparse rows of integer coefficients.

    `data[i]` maps the column of each nonzero entry of row i, in ascending
    order, to its {exponent: coefficient} dict.  The coefficients are ints
    (or values of `field`), read into `field` only by the kernels that take
    them: each reduces a coefficient as it reads it and drops an entry that
    vanishes there, so several fields can share one `data`, which nothing
    changes.  The kernels read only `field`, `rows`, `cols` and
    `sparse_rows()`.
    """

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field: CoefficientField, data: list[dict[int, dict[int, int]]],
                 rows: int, cols: int):
        self.field = field
        self.data = data
        self.rows = rows
        self.cols = cols

    def sparse_rows(self) -> list[dict[int, dict[int, int]]]:
        return self.data


def rank_over_fraction_field(m: SparseMatrix) -> int:
    """Rank over F(t) by fraction-free Bareiss elimination.

    The rows of `m.sparse_rows()` are read into rows of LaurentPoly over
    `m.field`, zero entries included.  Pivots are chosen with minimal degree
    spread to curb coefficient growth; the two-step division is exact by the
    Sylvester determinant identity, so entries stay Laurent polynomials
    throughout.
    """
    field = m.field
    rows, cols = m.rows, m.cols
    zero = LaurentPoly.zero(field)
    a = []
    for entries in m.sparse_rows():
        row = [zero] * cols
        for j, coeffs in entries.items():
            row[j] = LaurentPoly.from_int_coeffs(field, coeffs)
        a.append(row)
    prev = LaurentPoly.one(field)
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
            a[i][c] = zero
        prev = a[r][c]
        r += 1
    return r


# Image of t over Q (modulo 2^61 - 1) and over F_p when p^2 > 2^13 (modulo p).
EVALUATION_POINT = 1_000_000_007
_MERSENNE_61 = (1 << 61) - 1
_GF_ORDER_LIMIT = 1 << 13


def rank_lower_bound(m: SparseMatrix) -> int:
    """Rank of m after mapping t to a fixed point of a finite field.

    A nonzero minor of the image is the image of the same minor of m, so
    the result never exceeds the rank over F(t); it falls short only when
    the point is a root of every nonzero maximal minor.  Over Q, t maps to
    EVALUATION_POINT modulo the prime 2^61 - 1, and the bound is 0 when that
    prime divides a denominator.  Over F_p, t maps to a generator of
    GF(p^k), the largest such field of order at most 2^13, while k >= 2;
    once p^2 > 2^13, t maps to EVALUATION_POINT modulo p.

    The image is eliminated as sparse rows, column -> nonzero value, read
    from `m.sparse_rows()`: each coefficient is reduced as it is read, and an
    entry whose image is zero is left out.  Rows are taken in order; each
    that is still nonzero pivots on its last entry and clears that column
    from the rows listed as holding it, touching only the pivot row's
    nonzeros.  Over GF(p^k) a value is a Zech exponent.
    """
    p = m.field.p
    if p is not None and p * p <= _GF_ORDER_LIMIT:
        return _rank_in_extension(m, p)
    modulus = _MERSENNE_61 if p is None else p
    point = EVALUATION_POINT % modulus or 1  # every nonzero point gives a bound
    powers: dict[int, int] = {}
    rows, holders = [], [[] for _ in range(m.cols)]
    for entries in m.sparse_rows():
        row = {}
        for j, coeffs in entries.items():
            value = 0
            for e, c in coeffs.items():
                if c.denominator != 1:  # a Fraction over Q
                    if c.denominator % modulus == 0:
                        return 0
                    c = c.numerator * pow(c.denominator, -1, modulus)
                x = powers.get(e)
                if x is None:
                    x = powers[e] = pow(point, e, modulus)
                value += c.numerator * x
            value %= modulus
            if value:
                row[j] = value
                holders[j].append(row)
        if row:
            rows.append(row)
    rank = 0
    for top in rows:
        if not top:
            continue
        c, pivot = top.popitem()
        factor = modulus - pow(pivot, -1, modulus)  # row_i -= (a_ic / a_tc) * top
        scaled = [(j, y * factor % modulus) for j, y in top.items()]
        top.clear()
        for row in holders[c]:
            x = row.pop(c, None)
            if x is None:
                continue
            for j, y in scaled:
                old = row.get(j)
                if old is None:
                    row[j] = x * y % modulus
                    holders[j].append(row)
                else:
                    v = (old + x * y) % modulus
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        rank += 1
    return rank


# (c0, ..., c_{k-1}) of the primitive polynomial x^k + c_{k-1} x^(k-1) + ... + c0
# that `_zech_field` builds GF(p^k) from, for each prime p with p^2 <= 2^13; k
# is the largest with p^k <= 2^13.  Each is the first primitive polynomial in
# a fixed search order, which the tests re-derive; F2's is
# x^13 + x^12 + x^10 + x^9 + 1.
_PRIMITIVE_LOW = {
    2: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1),
    3: (2, 0, 0, 0, 0, 1, 0, 0),
    5: (3, 0, 0, 0, 2),
    7: (3, 0, 1, 1),
    11: (5, 0, 1),
    13: (7, 0, 1),
    17: (12, 0, 1),
    19: (16, 0, 1),
    23: (7, 1),
    29: (3, 1),
    31: (12, 1),
    37: (5, 1),
    41: (12, 1),
    43: (3, 1),
    47: (13, 1),
    53: (5, 1),
    59: (2, 1),
    61: (2, 1),
    67: (12, 1),
    71: (11, 1),
    73: (11, 1),
    79: (3, 1),
    83: (2, 1),
    89: (6, 1),
}


@lru_cache(maxsize=None)
def _zech_field(p: int) -> tuple[int, int, array, array]:
    """GF(p^k), with k >= 2 the largest such that p^k <= 2^13, by Zech logarithms.

    Returns (n, neg_one, zech, prime_log).  The nonzero elements are the
    powers alpha^i, 0 <= i < n = p^k - 1, of a root alpha of the primitive
    polynomial pinned in `_PRIMITIVE_LOW`; zech[i] is the exponent of
    1 + alpha^i, or -1 when that sum is zero; neg_one is the exponent of -1;
    prime_log[c] is the exponent of c in F_p (index 0 unused).  The powers of
    x are walked once; they are n distinct residues exactly when x has order
    n, that is, when the polynomial is primitive, which is checked.

    A residue mod f is one integer holding the coefficient of x^i in the
    bits [width*i, width*(i+1)), with a guard bit above each digit: adding
    2^guard - p to a sum of two digits sets it exactly when the sum is >= p,
    and p is taken off those fields.  Multiplying by x shifts every digit up
    one field, and the digit d that leaves the top is put back as d*x^k,
    read from `reduce_by`.
    """
    low = _PRIMITIVE_LOW[p]
    k = len(low)
    n = p ** k - 1
    guard = (p - 1).bit_length()
    width = guard + 1
    ones = sum(1 << (width * i) for i in range(k))  # 1 in every field
    bias = ((1 << guard) - p) * ones
    top, digit = width * (k - 1), (1 << width) - 1
    below = (1 << top) - 1  # every field but the top one
    reduce_by = [0, sum((-c) % p << (width * i) for i, c in enumerate(low))]  # x^k = -low
    for _ in range(p - 2):  # d * x^k for each leading digit d of v in v*x
        s = reduce_by[-1] + reduce_by[1]
        reduce_by.append(s - (((s + bias) >> guard) & ones) * p)
    exp = [1] * n
    v = 1
    for i in range(1, n):  # v = v*x
        d = v >> top
        v = (v & below) << width
        if d:
            v += reduce_by[d]
            v -= (((v + bias) >> guard) & ones) * p
        exp[i] = v
    log = dict(zip(exp, range(n)))
    if len(log) != n:
        raise AssertionError(f"the polynomial pinned for F{p} is not primitive")
    zech = array("i", [log.get(v + 1 if v & digit < p - 1 else v + 1 - p, -1) for v in exp])
    return n, log[p - 1], zech, array("i", [0] + [log[c] for c in range(1, p)])


def _rank_in_extension(m: SparseMatrix, p: int) -> int:
    """Rank of m at t -> alpha in GF(p^k), eliminating sparse rows of Zech exponents."""
    n, neg_one, zech, prime_log = _zech_field(p)
    rows, holders = [], [[] for _ in range(m.cols)]
    for entries in m.sparse_rows():
        row = {}
        for j, coeffs in entries.items():
            acc = -1
            for e, c in coeffs.items():
                c %= p
                if not c:
                    continue
                x = (prime_log[c] + e) % n
                if acc < 0:
                    acc = x
                else:
                    z = zech[(x - acc) % n]
                    acc = -1 if z < 0 else (acc + z) % n
            if acc >= 0:
                row[j] = acc
                holders[j].append(row)
        if row:
            rows.append(row)
    rank = 0
    for top in rows:
        if not top:
            continue
        c, pivot = top.popitem()
        shift = neg_one - pivot  # row_i -= (a_ic / a_tc) * top
        scaled = [(j, y + shift) for j, y in top.items()]
        top.clear()
        for row in holders[c]:
            x = row.pop(c, None)
            if x is None:
                continue
            for j, y in scaled:
                s = (x + y) % n
                old = row.get(j)
                if old is None:
                    row[j] = s
                    holders[j].append(row)
                else:
                    z = zech[(s - old) % n]
                    if z < 0:
                        del row[j]
                    else:
                        row[j] = (old + z) % n
        rank += 1
    return rank


@dataclass(frozen=True)
class SnfResult:
    """The diagonal of a diagonal form over F[t^{+-1}]: canonical entries, or zero.

    The entries need not divide one another, but the product of the nonzero
    ones is the gcd of the r x r minors up to a unit, r the rank: unimodular
    operations keep that gcd, and a diagonal matrix has one such minor.
    """

    diagonal: tuple[LaurentPoly, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if not d.is_zero)


def diagonal_form(m: SparseMatrix) -> SnfResult:
    """A diagonal form of m over the Euclidean domain F[t^{+-1}], normed by span.

    The rows of `m.sparse_rows()` are copied with every coefficient reduced
    into the field, and an entry that vanishes there left out, and then
    eliminated by `_eliminate`, which consumes them all.  A unit pivot's
    entry is the shared 1, with no normalising; any other pivot's entry is
    its canonical form.  A twisted chain's b2 reaches this only as the
    residual R of `integral_diagonal_form`, which runs the same loop once
    over Z[t^{+-1}] for every field and stops where a remainder's top
    coefficient is not +-1: b2 ~ D (+) R, so a diagonal form of b2 over a
    field is D's entries mod p followed by this form of R.
    """
    field = m.field
    pivots, _ = _eliminate(*_read_rows(m.sparse_rows(), m.cols, field.p), field)
    one = LaurentPoly.one(field)
    diagonal = [one if len(d) == 1 else LaurentPoly._raw(field, d).canonical() for d in pivots]
    diagonal.extend(LaurentPoly.zero(field) for _ in range(min(m.rows, m.cols) - len(diagonal)))
    return SnfResult(tuple(diagonal))


class IntegralDiagonal:
    """b ~ D (+) R over Z[t^{+-1}], from `integral_diagonal_form` of a rows x cols b.

    That is, invertible row and column operations over Z[t^{+-1}] take b to
    the block sum of a diagonal D, a matrix R and zeros.  `diagonal` holds
    the entries of D in canonical form over Z, as raw {exponent: int} dicts
    with lowest exponent 0 and top coefficient 1, so none vanishes modulo any
    p and each is monic there; `residual` holds the rows of R, each in
    ascending column order, usually none.  `over` reads both over one field.
    It is a plain class, as `alexander.IntegralChain` is.
    """

    __slots__ = ("diagonal", "residual", "rows", "cols")

    def __init__(self, diagonal: tuple[dict[int, int], ...],
                 residual: list[dict[int, dict[int, int]]], rows: int, cols: int):
        self.diagonal = diagonal
        self.residual = residual
        self.rows = rows
        self.cols = cols

    def over(self, field: CoefficientField) -> SnfResult:
        """A diagonal form of b over `field`, as `diagonal_form` would give.

        The map Z[t^{+-1}] -> F[t^{+-1}] takes the elementary operations that
        gave D (+) R to elementary operations over F, so b is equivalent over F
        to D mod p (+) R mod p: the canonical form of each entry of D, then the
        nonzero entries of `diagonal_form` of R over `field`, then zeros.  An
        entry of D is canonical over Q as it is, and over F_p once reduced and,
        where its constant term vanished, shifted down; its top 1 stays.
        """
        p, one = field.p, LaurentPoly.one(field)
        entries = []
        for d in self.diagonal:
            if p is not None:
                d = {e: r for e, c in d.items() if (r := c % p)}
                if 0 not in d:
                    low = min(d)
                    d = {e - low: c for e, c in d.items()}
            entries.append(one if len(d) == 1 else LaurentPoly._raw(field, d))
        if self.residual:
            rest = diagonal_form(SparseMatrix(field, self.residual, len(self.residual), self.cols))
            entries += [d for d in rest.diagonal if not d.is_zero]
        entries.extend(LaurentPoly.zero(field) for _ in range(min(self.rows, self.cols) - len(entries)))
        return SnfResult(tuple(entries))


def integral_diagonal_form(data: list[dict[int, dict[int, int]]], rows: int, cols: int) -> IntegralDiagonal:
    """Eliminate integer rows over Z[t^{+-1}] once, for every field at once.

    `data` is read as in `SparseMatrix`, with each coefficient kept as the
    integer it is, and `_eliminate` runs on a copy of it with one more rule:
    a pivot has top coefficient +-1.  A monomial pivot is then +-t^k, a unit
    of Z[t^{+-1}], and any other pivot divides with integral quotients, so
    every step is an elementary operation over Z[t^{+-1}] and the result is
    b ~ D (+) R there.  Remainders whose top coefficient is not +-1 cannot be
    divided by over Z, so the phase stops after a round that leaves one in
    the pivot's row or column, and when no entry can pivot; the rows left
    are R, on which each field's `diagonal_form` finishes.  Until it stops,
    each round without such a remainder picks a pivot of strictly smaller
    span than the last or takes out a row, so the phase ends.
    """
    pivots, rest = _eliminate(*_read_rows(data, cols, None), CoefficientField.rationals(),
                              integral=True)
    diagonal = []
    for d in pivots:  # times t^-low and the top coefficient, a unit of Z[t^{+-1}]
        low, sign = min(d), d[max(d)]
        diagonal.append({e - low: c * sign for e, c in d.items()})
    return IntegralDiagonal(tuple(diagonal), [dict(sorted(row.items())) for row in rest], rows, cols)


def _read_rows(data: list[dict[int, dict[int, int]]], cols: int,
               p: int | None) -> tuple[list[dict], list[list[dict]]]:
    """Copies of the nonzero rows of `data` to eliminate, and the rows holding each column.

    Each coefficient is reduced mod p as it is read, or kept when p is None,
    and an entry that vanishes is left out; `data` is not changed.
    """
    rows, holders = [], [[] for _ in range(cols)]  # holders[j]: rows that had an entry at j
    for entries in data:
        row = {}
        for j, coeffs in entries.items():
            v = dict(coeffs) if p is None else {e: r for e, c in coeffs.items() if (r := c % p)}
            if v:
                row[j] = v
                holders[j].append(row)
        if row:
            rows.append(row)
    return rows, holders


def _eliminate(rows: list[dict], holders: list[list[dict]], field: CoefficientField,
               integral: bool = False) -> tuple[list[dict], list[dict]]:
    """Diagonalise sparse rows over F[t^{+-1}] in place; (pivots, rows left).

    Each row maps a column to the raw {exponent: coefficient} dict of a
    nonzero entry, and holders[j] lists the rows that may hold column j, so
    neither the pivot search nor a row operation visits a zero entry; a row
    that falls to zero is dropped.  The pivot is a monomial in the shortest
    row that holds one, and failing that an entry of least span, in the
    shortest row on ties; further ties go to the first met, rows in order.
    A short pivot row makes little fill-in, which keeps the spans and, over
    Q, the coefficients of later entries small.  A monomial pivot c*t^k is
    a unit: multiples of its inverse clear its column exactly, which leaves
    nothing in its row to clear.  Any other pivot clears its row and column
    by division with remainder (`_divide`), whose remainders have smaller
    span and restart the pivot search until the cross is clear.  Each
    pivot whose cross is clear is a diagonal entry, as its raw dict.

    Over a field every row is consumed and no row is left.  With `integral`
    (see `integral_diagonal_form`) only an entry with top coefficient +-1
    may pivot, and the loop stops when none is left or after a round that
    leaves a remainder whose top coefficient is not +-1; the rows left are
    returned.
    """
    p = field.p
    pivots: list[dict] = []

    def find_pivot():
        unit, unit_len = None, 0
        for row in rows:
            n = len(row)
            if unit is not None and n >= unit_len:
                continue
            for j, v in row.items():
                if len(v) == 1 and (not integral or v[max(v)] in (1, -1)):
                    unit, unit_len = (row, j), n
                    break
            if unit_len == 1:
                break
        if unit is not None:
            return unit
        best, best_span, best_n = None, 0, 0
        for row in rows:
            n = len(row)
            if best_span == 1 and n >= best_n:  # no entry here can beat it
                continue
            for j, v in row.items():
                high = max(v)
                if integral and v[high] not in (1, -1):
                    continue
                span = high - min(v)
                if best is None or span < best_span or (span == best_span and n < best_n):
                    best, best_span, best_n = (row, j), span, n
        return best

    def sub_mul(row, j, q, y):  # row[j] -= q * y
        r = row.get(j)
        if r is None:
            r = row[j] = {}
            holders[j].append(row)
        _sub_mul(r, q, y, p)
        if not r:
            del row[j]

    while rows:
        found = find_pivot()
        if found is None:  # only with `integral`: no entry can pivot
            break
        top, j0 = found
        pivot = top.pop(j0)
        stop = False
        if len(pivot) == 1:
            # A unit: clear column j0 of the other rows; the pivot row leaves with its entry.
            ((e, c),) = pivot.items()
            factor = field.inv(c)
            scaled = [(j, {ey - e: field.mul(cy, factor) for ey, cy in y.items()}) for j, y in top.items()]
            top.clear()
            for row in holders[j0]:
                x = row.pop(j0, None)
                if x is None:
                    continue
                for j, y in scaled:
                    sub_mul(row, j, x, y)
            pivots.append(pivot)
        else:
            left = list({id(row): row for row in holders[j0] if row is not top and j0 in row}.values())
            dirty = False
            for row in left:
                x = row[j0]
                q = _divide(x, pivot, field)
                if x:
                    dirty = True
                    if integral and x[max(x)] not in (1, -1):
                        stop = True
                else:
                    del row[j0]
                if q:
                    for j, y in top.items():
                        sub_mul(row, j, q, y)
            left = [row for row in left if j0 in row]
            for j, y in list(top.items()):
                q = _divide(y, pivot, field)
                if y:
                    dirty = True
                    if integral and y[max(y)] not in (1, -1):
                        stop = True
                else:
                    del top[j]
                if q:
                    for row in left:
                        sub_mul(row, j, q, row[j0])
            top[j0] = pivot
            holders[j0] = left + [top]
            if not dirty:
                top.clear()
                pivots.append(pivot)
        rows = [row for row in rows if row]
        if stop:
            break
    return pivots, rows
