"""Closed-form counting functions of the vertex count V.

All counts are driven by the prime factorization of V/4:

  sigma  - signatures (the divisor sum of V/4)
  delta  - trihexes with 3-fold rotational symmetry
  mu     - trihexes with mirror symmetry
  nu     - trihexes with both symmetries (always 0 or 1)
  trihexes = (sigma + 2*delta) / 3
  gamma  - graph isomorphism classes = (sigma + 2*delta + 3*mu) / 6
  rot_classes - graph classes with 3-fold symmetry = (delta + nu) / 2

`report` reads sigma, delta, mu and nu once each and derives the last three
counts from them; `trihex_count`, `gamma` and `rot_classes` return its
fields.  Everything is exact integer arithmetic; the rational coefficients
become checked divisions, and the remaining relations between the counts
(nu in {0, 1}, delta and mu at least nu) are test assertions.  The paper's direct case formulas for gamma and
rot_classes, an independent second route, are kept in the tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InternalInconsistencyError
from .numtheory import factorize


def quarter(v: int) -> int:
    """Validate V (>= 4 and divisible by 4) and return V/4."""
    if v < 4 or v % 4:
        raise ValueError(f"vertex count must be a multiple of 4 and >= 4, got {v}")
    return v // 4


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    if numerator % denominator:
        raise InternalInconsistencyError(f"{what}: {numerator} not divisible by {denominator}")
    return numerator // denominator


def sigma(v: int) -> int:
    """Number of signatures with vertex count v (divisor sum of v/4)."""
    f = factorize(quarter(v))
    return math.prod((p ** (k + 1) - 1) // (p - 1) for p, k in f.factors)


def delta(v: int) -> int:
    """Number of trihexes with v vertices and 3-fold rotational symmetry."""
    f = factorize(quarter(v))
    result = 1
    for p, k in f.factors:
        if p % 3 == 2 and k % 2:
            return 0
        if p % 3 == 1:
            result *= k + 1
    return result


def mu(v: int) -> int:
    """Number of trihexes with v vertices and mirror symmetry."""
    f = factorize(quarter(v))
    w = f.exponent(2)
    odd_part = math.prod(k + 1 for p, k in f.factors if p != 2)
    return odd_part if w == 0 else (2 * w - 1) * odd_part


def nu(v: int) -> int:
    """1 when some trihex with v vertices has both symmetries, else 0."""
    f = factorize(quarter(v))
    return 1 if all(k % 2 == 0 for p, k in f.factors if p != 3) else 0


def trihex_count(v: int) -> int:
    """Total number of trihexes with v vertices."""
    return report(v).trihexes


def gamma(v: int) -> int:
    """Number of graph isomorphism classes of trihexes with v vertices."""
    return report(v).gamma


def rot_classes(v: int) -> int:
    """Graph isomorphism classes of trihexes with 3-fold rotational symmetry."""
    return report(v).rot_classes


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
    """Compute every counting function for v and bundle the results."""
    s, d, m, n = sigma(v), delta(v), mu(v), nu(v)
    return CountReport(
        V=v,
        sigma=s,
        delta=d,
        mu=m,
        nu=n,
        trihexes=_exact_div(s + 2 * d, 3, f"trihex count for V={v}"),
        gamma=_exact_div(s + 2 * d + 3 * m, 6, f"gamma for V={v}"),
        rot_classes=_exact_div(d + n, 2, f"rot_classes for V={v}"),
    )
