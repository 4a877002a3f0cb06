"""Closed-form counts for the vertex count V.

All counts are driven by the prime factorization V/4 = prod p^k.  sigma,
delta, mu and nu are multiplicative, so each is the product over the prime
powers p^k of V/4 of its local value there, which `_local` gives:

  sigma  - signatures, the divisor sum of V/4: (p^(k+1) - 1) / (p - 1)
  delta  - trihexes with 3-fold rotational symmetry: k + 1 for p = 1 (mod 3),
           1 or 0 (k even or odd) for p = 2 (mod 3), and 1 for p = 3
  mu     - trihexes with mirror symmetry: 2k - 1 for p = 2, k + 1 for odd p
  nu     - trihexes with both symmetries: 1 for p = 3 or even k, else 0
  trihexes = (sigma + 2*delta) / 3
  gamma  - graph isomorphism classes = (sigma + 2*delta + 3*mu) / 6
  rot_classes - graph classes with 3-fold symmetry = (delta + nu) / 2

`report(v)` multiplies the local values over one `factorize(V/4)`, and
`reports(start, end)` multiplies them in as a sieve divides each prime
power out of a segment of consecutive V/4, so a table lists no
factorization and calls `factorize` for no row.  One row function derives
the last three counts from the four by checked exact divisions.  There is
no separate function per count: callers read the `CountReport` field they
need.  Everything is exact integer arithmetic; the remaining relations
between the counts (nu in {0, 1}, delta and mu at least nu) are test
assertions.  The four per-count formulas, the paper's direct case formulas
for gamma and rot_classes, and the hyperbola-method column sums of a whole
table, independent second routes, are kept in the tests.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import InternalInconsistencyError
from .numtheory import SMALL_PRIMES, check_factorable, factorize, large_factors

# Vertex counts per sieve in `reports`: bounds its memory, not its output.
SEGMENT = 4096
# A cofactor below this that no table prime divides is 1 or prime.
_PRIME_BELOW = SMALL_PRIMES[-1] ** 2


def quarter(v: int) -> int:
    """Validate V (>= 4 and divisible by 4) and return V/4."""
    if v < 4 or v % 4:
        raise ValueError(f"vertex count must be a multiple of 4 and >= 4, got {v}")
    return v // 4


class CountReport(NamedTuple):
    """All counting-function values for one vertex count; `_fields` is the CSV header."""

    V: int
    sigma: int
    delta: int
    mu: int
    nu: int
    trihexes: int
    gamma: int
    rot_classes: int

    def csv_row(self) -> str:
        return "%d,%d,%d,%d,%d,%d,%d,%d" % self


def report(v: int) -> CountReport:
    """Compute every counting function for v from one factorization of v/4."""
    s = d = m = n = 1
    for p, k in factorize(quarter(v)):
        a, b, c, e = _local(p, k)
        s, d, m, n = s * a, d * b, m * c, n * e
    return _row(v, s, d, m, n)


def reports(start: int, end: int) -> Iterator[CountReport]:
    """`report(v)` for v = start, start + 4, ..., end, in order, from one sieve per segment.

    Each segment of SEGMENT consecutive values of v/4 keeps its cofactors
    and four columns, sigma, delta, mu and nu, all starting at 1.  Each
    prime below 1000 whose square is below the segment's end steps over
    its multiples, divides its power p^k out of the cofactor, and
    multiplies the row's columns by `_local(p, k)`.  A cofactor left below
    997^2 is 1 or prime; one at or above it has no prime factor below 1000
    and is split by Miller-Rabin and Pollard rho.  So the memory held does
    not grow with the range, and no row's factorization is listed.  A
    segment that reaches v/4 >= 2^64 is refused before it is sieved;
    `check_factorable` refuses a whole range up front.
    """
    lo, hi = quarter(start), quarter(end)
    for first in range(lo, hi + 1, SEGMENT):
        stop = min(first + SEGMENT, hi + 1)
        check_factorable(first, stop)
        count = stop - first
        rest = list(range(first, stop))
        s, d, m, n = [1] * count, [1] * count, [1] * count, [1] * count
        for p in SMALL_PRIMES:
            if p * p >= stop:
                break
            offset = -first % p
            # most multiples hold p once, so p^1's local values are looked up once
            one = _local(p, 1) if offset < count else None
            for i in range(offset, count, p):
                r = rest[i] // p
                if r % p:
                    a, b, c, e = one
                else:
                    k = 2
                    r //= p
                    while not r % p:
                        r //= p
                        k += 1
                    a, b, c, e = _local(p, k)
                rest[i] = r
                s[i] *= a
                d[i] *= b
                m[i] *= c
                n[i] *= e
        for i, r in enumerate(rest):
            if r > 1:
                for p, k in large_factors(r) if r >= _PRIME_BELOW else ((r, 1),):
                    a, b, c, e = _local(p, k)
                    s[i], d[i], m[i], n[i] = s[i] * a, d[i] * b, m[i] * c, n[i] * e
        yield from map(_row, range(4 * first, 4 * stop, 4), s, d, m, n)


def _local(p: int, k: int) -> tuple[int, int, int, int]:
    """sigma, delta, mu and nu at the prime power p^k; each count of V is their product over V/4."""
    return (
        (p ** (k + 1) - 1) // (p - 1),
        k + 1 if p % 3 == 1 else 1 - k % 2 if p % 3 else 1,
        2 * k - 1 if p == 2 else k + 1,
        1 if p == 3 else 1 - k % 2,
    )


def _row(v: int, s: int, d: int, m: int, n: int) -> CountReport:
    """The report for v from sigma, delta, mu and nu: trihexes, gamma and rot_classes by checked exact division."""
    # the rational coefficients are exact divisions; a remainder is a bug
    t, g, r = s + 2 * d, s + 2 * d + 3 * m, d + n
    if t % 3:
        raise InternalInconsistencyError(f"trihex count for V={v}: {t} not divisible by 3")
    if g % 6:
        raise InternalInconsistencyError(f"gamma for V={v}: {g} not divisible by 6")
    if r % 2:
        raise InternalInconsistencyError(f"rot_classes for V={v}: {r} not divisible by 2")
    # tuple.__new__ builds the row in C; CountReport(...) goes through a Python-level __new__
    return tuple.__new__(CountReport, (v, s, d, m, n, t // 3, g // 6, r // 2))
