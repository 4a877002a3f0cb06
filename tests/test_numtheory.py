"""Tests for factorization, divisors, and the x^2 + x + 1 congruence solver."""

import math

import numpy as np
import pytest

import oracles
from oracles import lift_prime_power, solve_naive
from test_counting import LARGE_QUARTERS, rows
from trihex.counting import report
from trihex.numtheory import (
    _root_mod_prime_power,
    check_factorable,
    divisors,
    factorize,
    is_prime,
    omega_count,
    solve_fast,
)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(7) == ((7, 1),)
    assert factorize(90) == ((2, 1), (3, 2), (5, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_refuses_64_bit_overflow():
    assert math.prod(p**k for p, k in factorize(2**64 - 1)) == 2**64 - 1
    with pytest.raises(ValueError, match=r"cannot factorize 18446744073709551616; need n < 2\^64"):
        factorize(2**64)


# The range sieve in `counting.columns` factors n = V/4 for a whole window
# at once; these windows check it against trial division, n in range(start, stop).
@pytest.mark.parametrize(
    "start, stop",
    [
        (1, 20_000),
        (994_000, 996_000),  # the sieve reaches its last prime, 997, at 997^2 = 994 009
        (1_018_000, 1_018_200),  # 1009^2 = 1 018 081 goes to rho
        (1_022_100, 1_022_200),  # and so does 1009 * 1013 = 1 022 117
        (7, 8),
        (5, 5),
    ],
)
def test_factor_range_matches_trial_division(start, stop):
    expected = [oracles.report_by_parts(n, oracles.factorize(n)) for n in range(start, stop)]
    assert list(rows(4 * start, 4 * (stop - 1))) == expected


def test_factor_range_near_64_bits():
    start = 2**64 - 300
    for n, row in zip(range(start, 2**64), rows(4 * start, 4 * (2**64 - 1)), strict=True):
        assert row == report(4 * n), n
        assert_valid_factorization(n, factorize(n))


@pytest.mark.parametrize(
    "start, stop, refused",
    [(0, 5, "0; need n >= 1"), (-3, 5, "-3; need n >= 1"), (2**64 - 2, 2**64 + 3, f"{2**64}; need n < 2\\^64"),
     (2**64 + 5, 2**64 + 9, f"{2**64 + 5}; need n < 2\\^64")],
)
def test_factor_range_refuses_outside_64_bits(start, stop, refused):
    # the first n of the range that cannot be factorized, named before any is
    with pytest.raises(ValueError, match=f"^cannot factorize {refused}$"):
        check_factorable(start, stop)
    # a vertex count below 4 is refused as one, before its quarter is factorized
    if start < 1:
        refused = f"vertex count must be a multiple of 4 and >= 4, got {4 * start}"
    else:
        refused = f"cannot factorize {refused}"
    with pytest.raises(ValueError, match=f"^{refused}$"):
        next(rows(4 * start, 4 * (stop - 1)))
    check_factorable(1, 2**64)


def test_factorize_matches_trial_division():
    # the uncached function, so that the sweep does not fill the cache
    for n in range(1, 200_000):
        assert factorize.__wrapped__(n) == oracles.factorize(n), n


LARGE_FACTORS = [
    ((997, 2),),  # the last table prime, squared
    ((1009, 2),),  # a square of the first prime past the table
    ((7, 1), (997, 1), (1009, 1)),
    ((2**61 - 1, 1),),  # a Mersenne prime
    ((1048609, 1), (1048627, 1), (1048633, 1)),  # three 20-bit primes = 1 (mod 3)
    ((4294967279, 1), (4294967291, 1)),  # the two largest primes below 2^32
]

# the smallest strong pseudoprimes to the first 2, 3, 4, 5, 6, 7 and 9 prime bases
STRONG_PSEUDOPRIMES = [
    1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
]


@pytest.mark.parametrize("factors", LARGE_FACTORS)
def test_factorize_large_examples(factors):
    n = math.prod(p**k for p, k in factors)
    assert factorize(n) == factors
    # 2^61 - 1 is too large for trial division; every other prime is checked by it
    assert all(oracles.is_prime(p) for p, _ in factors if p < 2**32)


def test_is_prime_matches_sieve():
    limit = 10**6
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)
    pairs = factorize(n)
    assert len(pairs) > 1
    assert all(oracles.is_prime(p) for p, _ in pairs)


def test_is_prime_refuses_beyond_exact_bound():
    # the smallest strong pseudoprime to all twelve bases 2..37; below it the test is exact
    assert not is_prime(318665857834031151167461 - 1)
    with pytest.raises(ValueError):
        is_prime(318665857834031151167461)


def test_first_root_is_smallest_scanned_root():
    x = np.arange(200_000, dtype=np.int64)
    poly = x * x + x + 1
    for p in range(7, 200_000, 6):
        if not is_prime(p):
            continue
        # residues in ascending order, in chunks, up to the first root
        for lo in range(0, p, 8192):
            hits = np.flatnonzero(poly[lo : min(lo + 8192, p)] % p == 0)
            if hits.size:
                assert _root_mod_prime_power(p, 1) == lo + int(hits[0]), p
                break
        else:
            raise AssertionError(f"no root mod {p}")


def assert_valid_factorization(n, pairs):
    """What the (prime, exponent) pairs of n promise, which nothing checks
    when they are built: the primes multiply back to n, increase strictly,
    are prime, and have exponents of at least 1."""
    assert math.prod(p**k for p, k in pairs) == n, (n, pairs)
    primes = [p for p, _ in pairs]
    assert all(a < b for a, b in zip(primes, primes[1:])), (n, pairs)
    assert all(is_prime(p) for p in primes), (n, pairs)
    assert all(k >= 1 for _, k in pairs), (n, pairs)


def test_factorize_roundtrip_sweep():
    # below 5 000 and up to 2^64
    large = [math.prod(p**k for p, k in factors) for factors in LARGE_FACTORS]
    for n in [*range(1, 5000), *large, 2**64 - 1, *STRONG_PSEUDOPRIMES, *LARGE_QUARTERS]:
        assert_valid_factorization(n, factorize(n))


def test_factorization_validates():
    # the checker above rejects each way a factorization can be wrong
    for n, pairs in [
        (12, ((2, 1), (3, 1))),  # product is 6
        (12, ((3, 1), (2, 2))),  # out of order
        (8, ((8, 1),)),  # not prime
        (8, ((2, 3), (3, 0))),  # zero exponent
    ]:
        with pytest.raises(AssertionError):
            assert_valid_factorization(n, pairs)


@pytest.mark.parametrize(
    "n,expected",
    [(1, (1,)), (7, (1, 7)), (12, (1, 2, 3, 4, 6, 12))],
)
def test_divisors_examples(n, expected):
    assert divisors(n) == expected


def test_divisors_sweep():
    for n in range(1, 400):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_divisors_cache_is_bounded_and_immutable():
    # a cached value is shared by every caller, so it is a tuple; a long
    # range must not keep the divisors of every n
    assert type(divisors(360)) is tuple
    assert divisors(360) is divisors(360)
    assert divisors.cache_info().maxsize == 1024


@pytest.mark.parametrize(
    "n,expected",
    [
        (3, 1),   # the lone root 1
        (9, 0),   # nine kills it
        (7, 2),   # roots 2 and 4
        (91, 4),  # 7 * 13, two split primes
        (10, 0),  # factor 2 blocks roots
    ],
)
def test_omega_count_examples(n, expected):
    assert omega_count(n) == expected


def test_solve_naive_examples():
    assert solve_naive(1) == (0,)
    assert solve_naive(3) == (1,)
    assert solve_naive(7) == (2, 4)
    assert solve_naive(91) == (9, 16, 74, 81)


def test_lift_prime_power_examples():
    assert lift_prime_power(7, 2, 1) == 2
    # unique roots above 2 mod 7 and 3 mod 13, frozen from a raw scan
    assert lift_prime_power(7, 2, 2) == 30
    assert lift_prime_power(13, 3, 2) == 146


def test_lift_prime_power_sweep():
    for p in (7, 13, 19, 31, 37, 43):
        for root in solve_naive(p):
            for ell in (1, 2, 3):
                x = lift_prime_power(p, root, ell)
                assert 0 <= x < p**ell
                assert x % p == root
                assert (x * x + x + 1) % p**ell == 0


def test_root_mod_prime_power_matches_hensel_lift():
    # the smaller cube root of unity mod p^k is the smaller of the lifted root
    # above the least root mod p and its partner p^k - 1 - x
    for p in range(7, 100_000, 6):
        if not oracles.is_prime(p):
            continue
        root = oracles.first_root_mod_prime(p)
        k = 1
        while p**k < 10**12:
            x = lift_prime_power(p, root, k)
            assert _root_mod_prime_power(p, k) == min(x, p**k - 1 - x), (p, k)
            k += 1


def test_lift_prime_power_rejects_bad_input():
    with pytest.raises(ValueError):
        lift_prime_power(3, 1, 2)
    with pytest.raises(ValueError):
        lift_prime_power(7, 3, 2)  # 3 is not a root mod 7
    with pytest.raises(ValueError):
        lift_prime_power(7, 2, 0)


def test_solve_fast_examples():
    assert solve_fast(21) == (4, 16)
    assert solve_fast(1) == (0,)
    roots49 = solve_fast(49)
    assert len(roots49) == 2
    assert all(r % 7 in (2, 4) for r in roots49)


def assert_certified_roots(n, roots):
    """The four checks `trihex congruence` makes before it prints a root set."""
    assert all(0 <= x < n for x in roots), n
    assert all(a < b for a, b in zip(roots, roots[1:])), n
    assert all((x * x + x + 1) % n == 0 for x in roots), n
    assert len(roots) == omega_count(n), n


@pytest.mark.parametrize(
    "n",
    # the moduli of test_congruence_64_bit_time_and_memory, too large to scan
    [3_000_000_019, 2**61 - 1, 1048609 * 1048627 * 1048633],
)
def test_solve_fast_roots_certified_at_64_bits(n):
    assert_certified_roots(n, solve_fast(n))


def test_fast_equals_naive_sweep():
    for n in range(1, 3000):
        fast = solve_fast(n)
        assert fast == solve_naive(n), n
        assert_certified_roots(n, fast)


def test_root_count_matches_formula_sweep():
    for n in range(1, 3000):
        assert len(solve_naive(n)) == omega_count(n), n


def test_omega_multiplicative():
    limit = 1000
    omegas = [0] + [omega_count(n) for n in range(1, limit + 1)]
    for a in range(1, limit + 1):
        for b in range(a, limit + 1):
            if math.gcd(a, b) == 1:
                assert omega_count(a * b) == omegas[a] * omegas[b], (a, b)


def test_root_pairing():
    # for split primes the two roots mod p^ell sum to p^ell - 1
    for p in range(5, 1000, 2):
        if not is_prime(p) or p % 3 != 1:
            continue
        for ell in (1, 2):
            roots = solve_fast(p**ell)
            assert len(roots) == 2
            assert sum(roots) == p**ell - 1


def test_solve_naive_python_fallback(monkeypatch):
    # moduli past the int64-safe range take the exact-integer path
    monkeypatch.setattr(oracles, "_NP_SCAN_LIMIT", 10)
    assert oracles.solve_naive(3) == (1,)
    assert oracles.solve_naive(91) == (9, 16, 74, 81)
    assert oracles.solve_naive(49) == (18, 30)
    assert oracles.first_root_mod_prime(13) == 3


def test_shared_root_with_odd_double():
    # x^2+x+1 = 0 and 2x+1 = 0 share a root mod n only for n in {1, 3}
    hits = []
    for n in range(1, 10_001):
        x = np.arange(n, dtype=np.int64)
        poly = (x * x + x + 1) % n
        double = (2 * x + 1) % n
        if np.any((poly == 0) & (double == 0)):
            hits.append(n)
    assert hits == [1, 3]


def test_completed_square_identity():
    # for odd n, x solves x^2+x+1 = 0 iff (2x+1)^2 = -3 (mod n)
    for n in range(1, 5001, 2):
        x = np.arange(n, dtype=np.int64)
        poly_roots = np.flatnonzero((x * x + x + 1) % n == 0)
        square = (2 * x + 1) ** 2 % n
        square_roots = np.flatnonzero(square == (-3) % n)
        assert np.array_equal(poly_roots, square_roots), n
