"""Test-only oracle: the search that chose the Zech tables' polynomials.

`polyalg._zech_field` builds GF(p^k) from the primitive polynomial pinned in
`polyalg._PRIMITIVE_LOW`, with k >= 2 the largest such that p^k <= 2^13.
Each pinned polynomial is the first primitive x^k + ... + c0 in a fixed
search order, and this module keeps that search, so that the tests can
re-derive every constant.  A residue mod f is packed as in `_zech_field`:
one integer holding the coefficient of x^i in the bits
[width*i, width*(i+1)), with a guard bit above each digit.
"""

from __future__ import annotations

from itertools import product

from fibrecheck.polyalg import _GF_ORDER_LIMIT


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
