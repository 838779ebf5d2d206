"""Test-only oracle: the search that chose the Zech tables' polynomials, and
the builder that made the tables in `fibrecheck/zech.bin`.

`polyalg._zech_field` reads GF(p^k) from `zech.bin`, for the primitive
polynomial pinned in `polyalg._PRIMITIVE_LOW`, with k >= 2 the largest such
that p^k <= 2^13.  Each pinned polynomial is the first primitive
x^k + ... + c0 in a fixed search order, and this module keeps that search
and the walk over the field's powers, so that the tests can re-derive every
constant and every table.  A residue mod f is one integer holding the
coefficient of x^i in the bits [width*i, width*(i+1)), with a guard bit
above each digit.

    PYTHONPATH=src python tests/zech_oracle.py     # rewrite src/fibrecheck/zech.bin
"""

from __future__ import annotations

import sys
from array import array
from itertools import product
from pathlib import Path

from fibrecheck.polyalg import _GF_ORDER_LIMIT, _PRIMITIVE_LOW


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def first_primitive_low(p: int) -> tuple[int, ...]:
    """(c0, ..., c_{k-1}) of the first primitive x^k + c_{k-1} x^(k-1) + ... + c0 over F_p.

    The search runs over c1 .. c_{k-1} lexicographically, and over c0 in
    the order of the primitive roots g mod p with c0 = (-1)^k g.  Only
    candidates whose norm (-1)^k c0 is a primitive root mod p are tried,
    since the norm of a generator generates F_p^*, and a candidate with a
    root 1 or -1 is passed over, since it is reducible (for p <= 3 these are
    all the roots there are).  A candidate f is primitive exactly when x has
    order n = p^k - 1 modulo f: x^n = 1 and x^(n/r) != 1 for each prime r
    dividing n, tested by square-and-multiply.

    Multiplying by x shifts every digit up one field, and the digit d that
    leaves the top is put back as d*x^k, read from `reduce_by`.  To square,
    the digits are first spread into fields wide enough for the coefficient
    sums, so that one integer product gives them all with no carry between
    fields.
    """
    k = 2
    while p ** (k + 1) <= _GF_ORDER_LIMIT:
        k += 1
    n = p ** k - 1
    order_factors = _prime_factors(p - 1)
    roots = [g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors)]
    proper = [n // r for r in _prime_factors(n)]  # maximal proper divisors of n
    guard = (p - 1).bit_length()
    width, wide = guard + 1, (k * (p - 1) ** 2).bit_length()  # wide: room for a square's sums
    ones = sum(1 << (width * i) for i in range(k))  # 1 in every field
    bias = ((1 << guard) - p) * ones
    top, digit = width * (k - 1), (1 << width) - 1
    below, spread = (1 << top) - 1, (1 << wide) - 1  # below: every field but the top one

    def add(a: int, b: int) -> int:  # digitwise mod p: vectors over F_p
        s = a + b
        return s - (((s + bias) >> guard) & ones) * p

    def horner(v: int, c: int, reduce_by: list[int]) -> int:  # v*x + c, c a digit
        d = v >> top
        v = ((v & below) << width) + c
        return add(v, reduce_by[d]) if d else v

    def square(a: int, reduce_by: list[int]) -> int:
        a = sum((a >> (width * i) & digit) << (wide * i) for i in range(k))
        sq, out = a * a, 0
        for i in range(wide * (2 * k - 2), -1, -wide):  # x^(2k-2) .. x^0
            out = horner(out, (sq >> i & spread) % p, reduce_by)
        return out

    def x_power(e: int, reduce_by: list[int]) -> int:  # by square-and-multiply, from the top bit
        result = 1
        for bit in bin(e)[2:]:
            result = square(result, reduce_by)
            if bit == "1":
                result = horner(result, 0, reduce_by)
        return result

    for middle in product(range(p), repeat=k - 1):
        for g in roots:
            low = [(-1) ** k * g % p, *middle]  # coefficients of x^0 .. x^(k-1)
            if (1 + sum(low)) % p == 0 or ((-1) ** k + sum(low[0::2]) - sum(low[1::2])) % p == 0:
                continue  # f(1) = 0 or f(-1) = 0
            reduce_by = [0, sum((-c) % p << (width * i) for i, c in enumerate(low))]  # x^k = -low
            for _ in range(p - 2):  # d * x^k for each leading digit d of v in v*x
                reduce_by.append(add(reduce_by[-1], reduce_by[1]))
            if x_power(n, reduce_by) != 1 or any(x_power(e, reduce_by) == 1 for e in proper):
                continue
            return tuple(low)
    raise AssertionError(f"no primitive polynomial of degree {k} over F{p}")


def build_field(p: int) -> tuple[int, int, array, array]:
    """GF(p^k) from the polynomial pinned in `_PRIMITIVE_LOW`, by walking its powers.

    Returns (n, neg_one, zech, prime_log) as `_zech_field` does.  The
    nonzero elements are the powers alpha^i, 0 <= i < n = p^k - 1, of a root
    alpha of the pinned polynomial; zech[i] is the exponent of 1 + alpha^i,
    or -1 when that sum is zero; neg_one is the exponent of -1; prime_log[c]
    is the exponent of c in F_p (index 0 unused).  The powers of x are walked
    once; they are n distinct residues exactly when x has order n, that is,
    when the polynomial is primitive, which is checked.

    Adding 2^guard - p to a sum of two digits sets the guard bit exactly
    when the sum is >= p, and p is taken off those fields.  Multiplying by x
    shifts every digit up one field, and the digit d that leaves the top is
    put back as d*x^k, read from `reduce_by`.
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
    zech = array("h", [log.get(v + 1 if v & digit < p - 1 else v + 1 - p, -1) for v in exp])
    return n, log[p - 1], zech, array("i", [0] + [log[c] for c in range(1, p)])


if __name__ == "__main__":  # every zech table as little-endian int16, in ascending p
    tables = array("h")
    for p in sorted(_PRIMITIVE_LOW):
        tables.extend(build_field(p)[2])
    if sys.byteorder == "big":
        tables.byteswap()
    target = Path(__file__).resolve().parent.parent / "src" / "fibrecheck" / "zech.bin"
    target.write_bytes(tables.tobytes())
    print(f"wrote {len(tables) * 2} bytes to {target}")
