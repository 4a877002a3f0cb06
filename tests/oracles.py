"""Independent routes that `trihex.numtheory` and `trihex.graph` are checked against.

Trial division and residue scans, where the library uses Miller-Rabin,
Pollard rho and cube roots of unity.  They do work in proportion to sqrt(n)
or n, which is what makes them obviously right, so they are only called on
small inputs.

Hensel lifting of a root mod p to the root mod p^ell above it
(`lift_prime_power`), where the library takes a primitive cube root of
unity mod p^ell directly.

The all-darts canonical code (`_min_code`), where the library roots the
code at the three darts of one triangle only: it tries all 3n starting
darts and abandons a code as soon as it exceeds the best one so far.

The rotation system by one coset reduction per neighbor (`build_rot`), where
`graph.build` computes each neighbor column once.

The paper's hexagon count 2sb + 2s + 2b (`hexagon_count`), where
`graph.validate` takes n/2 - 2 from Euler's formula.

The counting report as four separate passes over the factorization of V/4,
one per formula (`report_by_parts`), where `counting.report` multiplies the
local values of sigma, delta, mu and nu at each prime power.

The column sums of a whole `count` table from no factorization at all
(`count_sums`): Dirichlet's hyperbola method sums sigma, delta and mu over
n <= N in O(sqrt N), and the squares and three times the squares count nu.
"""

import math
from math import isqrt

import numpy as np

from trihex.counting import CountReport
from trihex.errors import InternalInconsistencyError
from trihex.graph import Rotation
from trihex.signature import Signature

# A factorization: (prime, exponent) pairs, primes strictly increasing.
Pairs = tuple[tuple[int, int], ...]

# Largest modulus for which x*x + x + 1 with x < n fits in int64; above it
# the vectorized scans fall back to exact Python integers.
_NP_SCAN_LIMIT = 2**31


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def factorize(n: int) -> Pairs:
    """Factor n >= 1 by trial division into (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need n >= 1")
    remaining = n
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            k = 0
            while remaining % p == 0:
                remaining //= p
                k += 1
            factors.append((p, k))
        p += 1 if p == 2 else 2
    if remaining > 1:
        factors.append((remaining, 1))
    return tuple(factors)


def solve_naive(n: int) -> tuple[int, ...]:
    """Roots of x^2 + x + 1 (mod n), ascending, by scanning every residue class."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n <= _NP_SCAN_LIMIT:
        x = np.arange(n, dtype=np.int64)
        values = x * x
        values += x
        values += 1
        values %= n
        roots = tuple(int(r) for r in np.flatnonzero(values == 0))
    else:
        roots = tuple(x for x in range(n) if (x * x + x + 1) % n == 0)
    return roots


def first_root_mod_prime(p: int) -> int:
    """Smallest root of x^2 + x + 1 mod a prime p with p % 3 == 1."""
    if p <= _NP_SCAN_LIMIT:
        x = np.arange(p, dtype=np.int64)
        values = x * x
        values += x
        values += 1
        values %= p
        hits = np.flatnonzero(values == 0)
        if hits.size:
            return int(hits[0])
    else:
        for x in range(p):
            if (x * x + x + 1) % p == 0:
                return x
    raise InternalInconsistencyError(f"no root mod prime {p} = 1 (mod 3)")


def lift_prime_power(p: int, root: int, ell: int) -> int:
    """Lift a root of x^2 + x + 1 mod p to the unique root mod p^ell above it.

    At each step x is adjusted by m * p^k where m cancels the current defect:
    with x^2 + x + 1 = j * p^k, choose m so that m * (2x + 1) + j is divisible
    by p.  2x + 1 is invertible mod p because p != 3.
    """
    if p == 3:
        raise ValueError("lifting is not defined for p = 3")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    root %= p
    if (root * root + root + 1) % p != 0:
        raise ValueError(f"{root} does not solve the congruence mod {p}")
    x = root
    pk = p
    for _ in range(ell - 1):
        j = (x * x + x + 1) // pk
        m = (-j * pow(2 * x + 1, -1, p)) % p
        x += m * pk
        pk *= p
    return x


def _code_from(rot: Rotation, start_v: int, start_w: int, best: list[int] | None) -> list[int] | None:
    """Breadth-first code of the graph rooted at the dart (start_v, start_w).

    Vertices are numbered in discovery order; each vertex emits its three
    neighbors' numbers, reading its rotation forwards from the entry edge.
    When `best` is given, construction aborts with None as soon as the code
    is lexicographically above it.
    """
    n = len(rot)
    label = [-1] * n
    label[start_v] = 0
    order = [start_v]
    entry = [start_w] + [0] * (n - 1)
    code: list[int] = []
    next_label = 1
    still_tied = best is not None
    for i in range(n):
        v = order[i]
        nbrs = rot[v]
        j = nbrs.index(entry[i])
        for t in range(3):
            x = nbrs[(j + t) % 3]
            lx = label[x]
            if lx < 0:
                lx = label[x] = next_label
                next_label += 1
                order.append(x)
                entry[lx] = v
            pos = len(code)
            code.append(lx)
            if still_tied:
                if lx > best[pos]:
                    return None
                if lx < best[pos]:
                    still_tied = False
    return code


def _min_code(rot: Rotation) -> tuple[list[int], int]:
    """Lexicographically minimal code over all starting darts, with its multiplicity."""
    best: list[int] | None = None
    count = 0
    for v in range(len(rot)):
        for w in rot[v]:
            code = _code_from(rot, v, w, best)
            if code is None:
                continue
            if best is None or code < best:
                best, count = code, 1
            elif code == best:
                count += 1
    assert best is not None
    return best, count


class _CosetIndex:
    """Bijection between cosets of 2L and vertex ids 0..4(s+1)(b+1)-1."""

    def __init__(self, sig: Signature):
        self.height = 2 * (sig.s + 1)
        self.width = 2 * (sig.b + 1)
        self.shear = -2 * sig.f

    def index(self, a: int, b: int) -> int:
        q, a = divmod(a, self.width)
        b = (b - q * self.shear) % self.height
        return a * self.height + b


def build_rot(sig: Signature) -> Rotation:
    """rot(g) = [-g - 2u - d, -g - u, -g - u - d] (mod 2L), the east vertex of coset g = (a, b) at a*height + b."""
    coset = _CosetIndex(sig)
    return tuple(
        (coset.index(-a - 2, -b - 1), coset.index(-a - 1, -b), coset.index(-a - 1, -b - 1))
        for a in range(coset.width)
        for b in range(coset.height)
    )


def hexagon_count(sig: Signature) -> int:
    """Number of hexagonal faces of the trihex `sig`, by the paper's formula."""
    return 2 * sig.s * sig.b + 2 * sig.s + 2 * sig.b


def exact_div(numerator: int, denominator: int, what: str) -> int:
    if numerator % denominator:
        raise InternalInconsistencyError(f"{what}: {numerator} not divisible by {denominator}")
    return numerator // denominator


def exponent(pairs: Pairs, p: int) -> int:
    """Exponent of the prime p in the number that pairs factor (0 if p does not divide it)."""
    return dict(pairs).get(p, 0)


def sigma(pairs: Pairs) -> int:
    """Number of signatures for V = 4n, n the product of pairs (divisor sum of n)."""
    return math.prod((p ** (k + 1) - 1) // (p - 1) for p, k in pairs)


def delta(pairs: Pairs) -> int:
    """Number of trihexes with 3-fold rotational symmetry for V = 4n, n the product of pairs."""
    result = 1
    for p, k in pairs:
        if p % 3 == 2 and k % 2:
            return 0
        if p % 3 == 1:
            result *= k + 1
    return result


def mu(pairs: Pairs) -> int:
    """Number of trihexes with mirror symmetry for V = 4n, n the product of pairs."""
    w = exponent(pairs, 2)
    odd_part = math.prod(k + 1 for p, k in pairs if p != 2)
    return odd_part if w == 0 else (2 * w - 1) * odd_part


def nu(pairs: Pairs) -> int:
    """1 when some trihex with V = 4n vertices, n the product of pairs, has both symmetries, else 0."""
    return 1 if all(k % 2 == 0 for p, k in pairs if p != 3) else 0


def report_by_parts(n: int, pairs: Pairs) -> CountReport:
    """Every counting function for V = 4n from the factorization pairs of n, one formula at a time."""
    v = 4 * n
    s, d, m, both = sigma(pairs), delta(pairs), mu(pairs), nu(pairs)
    return CountReport(
        V=v,
        sigma=s,
        delta=d,
        mu=m,
        nu=both,
        trihexes=exact_div(s + 2 * d, 3, f"trihex count for V={v}"),
        gamma=exact_div(s + 2 * d + 3 * m, 6, f"gamma for V={v}"),
        rot_classes=exact_div(d + both, 2, f"rot_classes for V={v}"),
    )


def count_sums(n: int) -> tuple[int, ...]:
    """Sums over V = 4, 8, ..., 4n of every `count` column after V, in O(sqrt n) steps.

    sigma = 1 * id, delta = 1 * chi (chi the character mod 3: 1, -1 or 0 at
    n = 1, 2 or 0 mod 3) and mu = 1 * h (h = 1 at odd d, 0 at d = 2 mod 4
    and 2 at d = 0 mod 4) are Dirichlet convolutions with 1, so each sums to
    sum over d <= n of f(d) * (n // d).  The d with one value of n // d form
    a block, and each block takes the prefix sums of f at its ends: there
    are at most 2 sqrt(n) blocks.  nu is 1 exactly at the squares and three
    times the squares.  The other three columns follow from these sums.
    """
    s = d = m = 0
    lo = 1
    while lo <= n:
        q = n // lo
        hi = n // q
        s += q * (hi * (hi + 1) - (lo - 1) * lo) // 2
        d += q * ((hi % 3 == 1) - ((lo - 1) % 3 == 1))
        m += q * ((hi + 1) // 2 + 2 * (hi // 4) - lo // 2 - 2 * ((lo - 1) // 4))
        lo = hi + 1
    both = isqrt(n) + isqrt(n // 3)
    return (
        s,
        d,
        m,
        both,
        exact_div(s + 2 * d, 3, f"trihex sum to V={4 * n}"),
        exact_div(s + 2 * d + 3 * m, 6, f"gamma sum to V={4 * n}"),
        exact_div(d + both, 2, f"rot_classes sum to V={4 * n}"),
    )
