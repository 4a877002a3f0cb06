"""Exact integer factorization, divisors, and roots of x^2 + x + 1 modulo n.

Everything here is exact integer arithmetic, and no routine does work in
proportion to n or its square root.  `is_prime` is deterministic
Miller-Rabin; `factorize` trial-divides by SMALL_PRIMES, the primes below
1000, and `large_factors` splits what is left with Brent's variant of
Pollard rho, for n < 2^64.  `counting.reports` sieves a range of n with
the same table and the same split.  `check_factorable` is the n < 2^64
refusal they share, and it refuses a range from its ends.  The number
of roots of x^2 + x + 1 (mod n) is multiplicative in n and fully determined
by the prime factorization: 0 as soon as a prime congruent to 2 (mod 3)
divides n or 9 divides n, otherwise 2^r where r is the number of distinct
prime factors other than 3.  `solve_fast` finds the roots mod each prime
power directly as primitive cube roots of unity and combines them by the
Chinese remainder theorem, and returns them as a strictly increasing tuple.
The naive residue scan it is checked against lives in the tests.

A factorization is its tuple of (prime, exponent) pairs, primes strictly
increasing.  `divisors`, `omega_count` and `solve_fast` take n and factor
it with the cached `factorize`.  Nothing checks a factorization when it is
built: the invariants that these routines establish by construction are
asserted in the tests, and `trihex congruence`, whose output promises
certified roots, checks every root it prints.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import InternalInconsistencyError

# The 168 primes below 1000, for trial division before Miller-Rabin and rho.
SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1)))
# Miller-Rabin with the twelve primes 2..37 as bases is exact below their
# smallest strong pseudoprime (Sorenson and Webster, 2015).
_MR_BASES = SMALL_PRIMES[:12]
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.18e23.

    Small bases suffice below the first strong pseudoprime to them:
    {2, 3} below 1 373 653 and {2, 3, 5, 7} below 3 215 031 751.  Larger n
    than the twelve bases cover raise ValueError.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot test {n} for primality; need n < {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:
        return True
    if n < 1_373_653:
        bases = _MR_BASES[:2]
    elif n < 3_215_031_751:
        bases = _MR_BASES[:4]
    else:
        bases = _MR_BASES
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_factorable(start: int, stop: int) -> None:
    """Refuse range(start, stop) unless every n in it is in 1 <= n < 2^64, naming the first n outside.

    The bound keeps Pollard rho's work bounded.  It is arithmetic on the
    ends alone, so a caller can refuse a whole range before factoring any
    of it.
    """
    if start < 1:
        raise ValueError(f"cannot factorize {start}; need n >= 1")
    if stop > 2**64:
        raise ValueError(f"cannot factorize {max(start, 2**64)}; need n < 2^64")


# Bounded: `verify` asks for one n in `counting.report` and again in each signature stream,
# and a long range must not keep every n.
@lru_cache(maxsize=1024)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor 1 <= n < 2^64 into (prime, exponent) pairs, primes strictly increasing.

    Trial division by the primes below 1000 stops as soon as p^2 exceeds
    what is left, which is then 1 or prime.  A cofactor that outlasts the
    table has no prime factor below 1000 and is split by Miller-Rabin and
    Brent's variant of Pollard rho.
    """
    check_factorable(n, n + 1)
    remaining = n
    factors: list[tuple[int, int]] = []
    for p in SMALL_PRIMES:
        if p * p > remaining:
            if remaining > 1:
                factors.append((remaining, 1))
            break
        if remaining % p == 0:
            k = 0
            while remaining % p == 0:
                remaining //= p
                k += 1
            factors.append((p, k))
    else:
        factors.extend(large_factors(remaining))
    return tuple(factors)


def large_factors(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n, primes increasing, for n with no prime factor below 1000."""
    primes = _prime_factors(n)
    return [(p, primes.count(p)) for p in sorted(set(primes))]


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n with multiplicity, for n with no prime factor below 1000."""
    if n == 1:
        return []
    if is_prime(n):
        return [n]
    d = _rho(n)
    return _prime_factors(d) + _prime_factors(n // d)


def _rho(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 1000.

    Brent's variant of Pollard rho on x -> x^2 + c: the distances between
    the walk and its saved point are multiplied together in blocks of 128
    so that one gcd serves a whole block; a block that overshoots to n is
    replayed one step at a time.
    """
    block = 128
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(block, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += block
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g
    raise InternalInconsistencyError(f"Pollard rho found no factor of {n}")


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    result = [1]
    for prime, exponent in factorize(n):
        powers = [prime**i for i in range(exponent + 1)]
        result = [d * q for d in result for q in powers]
    return sorted(result)


def omega_count(n: int) -> int:
    """Number of roots of x^2 + x + 1 (mod n), from the factorization alone."""
    r = 0
    for prime, exponent in factorize(n):
        if prime % 3 == 2:
            return 0
        if prime == 3:
            if exponent > 1:
                return 0
        else:
            r += 1
    return 2**r


def _root_mod_prime_power(p: int, k: int) -> int:
    """Smaller root of x^2 + x + 1 mod p^k for a prime p with p % 3 == 1.

    The units mod p^k form a cyclic group of order phi = p^(k-1) (p-1), which
    3 divides, so w = a^(phi/3) is a cube root of unity.  When w != 1 it is a
    primitive one, and w - 1 is a unit (the units = 1 mod p form a subgroup
    of order p^(k-1), prime to 3), so w^3 - 1 = (w - 1)(w^2 + w + 1) = 0
    gives w^2 + w + 1 = 0.  The other root is w^2 = p^k - 1 - w.
    a^(phi/3) = 1 only for the cubic residues, a third of the units, so few
    values of a are tried.
    """
    q = p**k
    e = q // p * (p - 1) // 3
    for a in range(2, q):
        w = pow(a, e, q)
        if w != 1:
            return min(w, q - 1 - w)
    raise InternalInconsistencyError(f"no root mod {p}^{k} with {p} = 1 (mod 3)")


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2."""
    m = m1 * m2
    x = (r1 * m2 * pow(m2, -1, m1) + r2 * m1 * pow(m1, -1, m2)) % m
    return x, m


def solve_fast(n: int) -> tuple[int, ...]:
    """All x in [0, n) with x^2 + x + 1 = 0 (mod n), strictly increasing.

    Per prime power: no roots when p = 2 (mod 3) or when p = 3 with exponent
    above 1; the single root 1 when the factor is exactly 3; otherwise the
    pair {x, p^ell - x - 1} of primitive cube roots of unity mod p^ell.  The
    pieces are combined by the Chinese remainder theorem.
    """
    parts: list[tuple[list[int], int]] = []
    for prime, exponent in factorize(n):
        modulus = prime**exponent
        if prime % 3 == 2:
            return ()
        if prime == 3:
            if exponent > 1:
                return ()
            parts.append(([1], 3))
        else:
            x = _root_mod_prime_power(prime, exponent)
            parts.append(([x, modulus - x - 1], modulus))

    combined: list[tuple[int, int]] = [(0, 1)]
    for roots_part, modulus in parts:
        combined = [
            _crt_pair(r, m, rp, modulus) for r, m in combined for rp in roots_part
        ]
    return tuple(sorted(x for x, _ in combined))
