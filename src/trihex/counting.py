"""Closed-form counts for the vertex count V.

All counts are driven by the prime factorization V/4 = prod p^k, with w the
exponent of 2:

  sigma  - signatures: the divisor sum of V/4, prod (p^(k+1) - 1) / (p - 1)
  delta  - trihexes with 3-fold rotational symmetry: 0 when some p = 2 (mod 3)
           has odd k, else prod (k + 1) over p = 1 (mod 3)
  mu     - trihexes with mirror symmetry: prod (k + 1) over odd p, times
           2w - 1 when w > 0
  nu     - trihexes with both symmetries: 0 when some p != 3 has odd k, else 1
  trihexes = (sigma + 2*delta) / 3
  gamma  - graph isomorphism classes = (sigma + 2*delta + 3*mu) / 6
  rot_classes - graph classes with 3-fold symmetry = (delta + nu) / 2

`report` factorizes V/4 once, builds sigma, delta, mu and nu in one pass over
its prime powers, and derives the last three counts from them; there is no
separate function per count, so callers read the field of the `CountReport`
they need.  Everything is exact integer arithmetic; the rational
coefficients become checked divisions, and the remaining relations between
the counts (nu in {0, 1}, delta and mu at least nu) are test assertions.
The four per-count formulas and the paper's direct case formulas for gamma
and rot_classes, independent second routes, are kept in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInconsistencyError
from .numtheory import factorize


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
        return ",".join(map(str, self))


def report(v: int) -> CountReport:
    """Compute every counting function for v in one pass over the factorization of v/4."""
    s = 1  # sigma: product of the prime-power divisor sums
    d = 1  # delta: product of k + 1 over p = 1 (mod 3); 0 once some p = 2 (mod 3) has odd k
    odd = 1  # product of k + 1 over the odd primes
    w = 0  # exponent of 2
    n = 1  # nu: 0 once some p != 3 has odd k
    for p, k in factorize(quarter(v)).factors:
        s *= (p ** (k + 1) - 1) // (p - 1)
        if p == 2:
            w = k
        else:
            odd *= k + 1
        if p % 3 == 1:
            d *= k + 1
        elif k % 2 and p % 3 == 2:
            d = 0
        if k % 2 and p != 3:
            n = 0
    m = (2 * w - 1) * odd if w else odd
    # the rational coefficients are exact divisions; a remainder is a bug
    t, g, r = s + 2 * d, s + 2 * d + 3 * m, d + n
    if t % 3:
        raise InternalInconsistencyError(f"trihex count for V={v}: {t} not divisible by 3")
    if g % 6:
        raise InternalInconsistencyError(f"gamma for V={v}: {g} not divisible by 6")
    if r % 2:
        raise InternalInconsistencyError(f"rot_classes for V={v}: {r} not divisible by 2")
    return CountReport(v, s, d, m, n, t // 3, g // 6, r // 2)
