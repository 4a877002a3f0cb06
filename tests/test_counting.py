"""Tests for the closed-form counting functions."""

import math
import random
import tracemalloc

import pytest

import oracles
from golden_counts import TABLE
from oracles import exact_div
from trihex import cli, counting
from trihex.counting import quarter, report
from trihex.errors import InternalInconsistencyError
from trihex.numtheory import factorize


def rows(start: int, end: int):
    """The rows of `counting.columns(start, end)`, one tuple per V, in order."""
    return (row for segment in counting.columns(start, end) for row in zip(*segment))


# The paper's direct case formulas for gamma and rot_classes: a second route,
# independent of the (sigma + 2*delta + 3*mu)/6 and (delta + nu)/2
# combinations that `counting.report` uses.


def gamma_cases(n: int, pairs: oracles.Pairs) -> int:
    """Graph-class count for V = 4n via the direct case formulas on the factorization pairs of n.

    Split n = 2^a * 3^b * (primes = 1 mod 3) * (odd primes = 2 mod 3) and
    combine the three symmetry contributions over the common denominator 12.
    """
    a = oracles.exponent(pairs, 2)
    b = oracles.exponent(pairs, 3)
    ones = [(p, k) for p, k in pairs if p % 3 == 1]
    twos = [(p, k) for p, k in pairs if p % 3 == 2 and p != 2]

    sig_rest = math.prod((p ** (k + 1) - 1) // (p - 1) for p, k in ones + twos)
    prod_ones = math.prod(k + 1 for _, k in ones)
    prod_twos = math.prod(k + 1 for _, k in twos)

    pow2 = 2 ** (a + 1) - 1 if a > 0 else 1
    sigma_term = pow2 * (3 ** (b + 1) - 1) * sig_rest
    mirror_coeff = (2 * a - 1) if a > 0 else 1
    mirror_term = 6 * mirror_coeff * (b + 1) * prod_ones * prod_twos
    rotation_possible = a % 2 == 0 and all(k % 2 == 0 for _, k in twos)
    rotation_term = 4 * prod_ones if rotation_possible else 0

    return exact_div(sigma_term + rotation_term + mirror_term, 12, f"gamma for n={n}")


def rot_classes_direct(v: int) -> int:
    """Rotationally symmetric graph classes via the direct case formula."""
    pairs = factorize(quarter(v))
    ones = [k for p, k in pairs if p % 3 == 1]
    twos = [k for p, k in pairs if p % 3 == 2]
    if any(k % 2 for k in twos):
        direct = 0
    elif any(k % 2 for k in ones):
        direct = exact_div(math.prod(k + 1 for k in ones), 2, f"rot_classes for V={v}")
    else:
        direct = exact_div(math.prod(k + 1 for k in ones) + 1, 2, f"rot_classes for V={v}")
    return direct


@pytest.mark.parametrize("bad", [0, 2, 6, 18, -4])
def test_rejects_invalid_vertex_counts(bad):
    with pytest.raises(ValueError):
        report(bad)


def test_sigma_examples():
    assert report(4).sigma == 1
    assert report(28).sigma == 8
    assert report(112).sigma == 56  # divisor sum of 28


def test_sigma_is_divisor_sum():
    for v in range(4, 2004, 4):
        n = v // 4
        assert report(v).sigma == sum(d for d in range(1, n + 1) if n % d == 0)


def test_delta_examples():
    assert report(28).delta == 2
    assert report(8).delta == 0
    assert report(4).delta == 1


def test_trihex_count_examples():
    assert report(28).trihexes == 4
    assert report(120).trihexes == 24
    assert report(360).trihexes == 78


def test_mu_examples():
    assert report(4).mu == 1
    assert report(28).mu == 2
    assert report(48).mu == 6


def test_nu_examples():
    assert report(4).nu == 1
    assert report(144).nu == 1
    assert report(28).nu == 0


def test_gamma_examples():
    assert report(28).gamma == 3
    assert report(4).gamma == 1
    assert report(240).gamma == 34


def test_rot_classes_examples():
    assert report(4).rot_classes == 1
    assert report(28).rot_classes == 1
    assert report(8).rot_classes == 0


def test_golden_table():
    for v, trihexes, classes in TABLE:
        assert (report(v).trihexes, report(v).gamma) == (trihexes, classes), v


def test_report_examples():
    r4 = report(4)
    assert (r4.sigma, r4.delta, r4.mu, r4.nu) == (1, 1, 1, 1)
    assert (r4.trihexes, r4.gamma, r4.rot_classes) == (1, 1, 1)
    r28 = report(28)
    assert (r28.sigma, r28.delta, r28.mu, r28.nu) == (8, 2, 2, 0)
    assert (r28.trihexes, r28.gamma, r28.rot_classes) == (4, 3, 1)
    r360 = report(360)
    assert (r360.trihexes, r360.gamma) == (78, 42)


def test_report_serialization():
    r = report(28)
    assert cli._COUNT_ROW["csv"] % r == "28,8,2,2,0,4,3,1\n"
    assert r._asdict()["gamma"] == 3


def test_divisibility_identities():
    # the formula combinations must always land on integers
    for v in range(4, 4004, 4):
        r = report(v)
        assert (r.sigma + 2 * r.delta) % 3 == 0
        assert (r.sigma + 2 * r.delta + 3 * r.mu) % 6 == 0
        assert (r.delta + r.nu) % 2 == 0


def test_gamma_and_rot_dual_paths_agree():
    for v in range(4, 4004, 4):
        r = report(v)
        assert r.gamma == gamma_cases(v // 4, factorize(v // 4)), v
        assert r.rot_classes == rot_classes_direct(v), v


def test_symmetry_count_bounds():
    for v in range(4, 2004, 4):
        r = report(v)
        assert r.nu in (0, 1)
        assert r.delta >= r.nu
        assert r.mu >= r.nu
        assert 3 * r.trihexes == r.sigma + 2 * r.delta
        assert 6 * r.gamma == r.sigma + 2 * r.delta + 3 * r.mu
        assert 2 * r.rot_classes == r.delta + r.nu
        assert r.gamma <= r.trihexes <= r.sigma


def test_report_matches_four_formula_route():
    # the one-pass loop against the four per-function formulas, each on the
    # trial-division factorization
    for v in range(4, 40004, 4):
        assert report(v) == oracles.report_by_parts(v // 4, oracles.factorize(v // 4)), v


# V/4 up to 2^64: prime powers, squares (nu = 1), and products of two or three
# large primes, on both sides of 1 and 2 (mod 3)
LARGE_QUARTERS = (
    2**60,
    3**38,
    2**61 - 1,
    (2**31 - 1) ** 2,
    3 * (2**31 - 1) ** 2,
    (2 * 3 * 5 * 7 * 1_000_003) ** 2,
    3**3 * 7**4 * 13**2 * 999_983**2,
    (2**31 - 1) * 4_294_967_291,
    1_000_003 * 999_983 * 1_000_033,
    2**5 * 1_000_003 * 999_979 * 65_537,
)


def test_report_matches_four_formula_route_at_64_bits():
    for n in LARGE_QUARTERS:
        assert report(4 * n) == oracles.report_by_parts(n, factorize(n)), n


def test_report_factorizes_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(counting, "factorize", counted)
    for v in (4, 28, 360, 4 * 2**60):
        calls.clear()
        report(v)
        assert calls == [v // 4], v


def test_report_cache_is_bounded_and_immutable():
    # every layer that `verify` passes through asks for the same row, so it
    # is a tuple shared by them all; a long range must not keep every row
    assert report(360) is report(360)
    assert report.cache_info().maxsize == 1024


def test_report_raises_when_a_division_is_not_exact(monkeypatch):
    # a stand-in "prime" 4: sigma 5, delta 2, mu 2, so 6 * gamma would be 15
    monkeypatch.setattr(counting, "factorize", lambda n: ((4, 1),))
    with pytest.raises(InternalInconsistencyError) as excinfo:
        report(16)
    assert str(excinfo.value) == "gamma for V=16: 15 not divisible by 6"


@pytest.mark.parametrize(
    "start, end",
    [
        (4, 40_000),
        # V/4 = 997 000..1 023 000: past the sieve's last prime, 997^2, and
        # through 1009^2 and 1009 * 1013, which go to rho
        (4 * 997_000, 4 * 1_023_000),
        (4 * (2**64 - 12), 4 * (2**64 - 1)),
        # one-row segments: at V/4 = 2 and 3 no prime is sieved, so the
        # cofactor is 2 or 3, whose local values differ from a prime's above 3
        (4, 4),
        (8, 8),
        (12, 12),
        (16, 16),
        (20, 20),
        (4 * 10**12, 4 * 10**12),
    ],
)
def test_reports_match_report(start, end):
    # each range spans several sieve segments, ends at the 64-bit limit, or is one row
    assert list(rows(start, end)) == [report(v) for v in range(start, end + 4, 4)]


def column_sums(rows):
    """Each column after V summed over the rows."""
    return tuple(map(sum, zip(*rows)))[1:]


def test_count_sums_match_small_tables():
    for n in range(1, 300):
        assert oracles.count_sums(n) == column_sums(map(report, range(4, 4 * n + 4, 4))), n


@pytest.mark.parametrize(
    "first, last",
    [
        (1_000_012_000, 1_000_017_000),  # the square 31623^2 = 1 000 014 129, over a segment boundary
        (1_000_063_000, 1_000_064_000),  # three times a square, 3 * 18258^2 = 1 000 063 692
        (2_000_683_000, 2_000_684_000),  # a prime square, 44729^2 = 2 000 683 441, that rho splits
        (10_000_599_500, 10_000_600_500),  # and 100003^2 = 10 000 600 009
    ],
)
def test_reports_match_hyperbola_sums(first, last):
    # every column summed over V/4 in [first, last], against sums that factor nothing
    below, through = oracles.count_sums(first - 1), oracles.count_sums(last)
    assert column_sums(rows(4 * first, 4 * last)) == tuple(b - a for a, b in zip(below, through))


def test_reports_refuse_like_report():
    with pytest.raises(ValueError, match="^vertex count must be a multiple of 4 and >= 4, got 6$"):
        next(rows(6, 40))
    with pytest.raises(ValueError, match=r"^cannot factorize 18446744073709551616; need n < 2\^64$"):
        next(rows(4 * 2**64, 4 * 2**64))


def test_reports_memory_does_not_grow_with_the_range():
    # one segment of factorizations at a time (about 1 MiB): all 50 000 at once take about 13 MiB
    tracemalloc.start()
    try:
        assert sum(1 for _ in rows(4, 200_000)) == 50_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_prime_power_lookup_stays_bounded(monkeypatch):
    # the sieve looks up only the powers of its table primes; rho's factors,
    # and those of report(v), are not held, or one table could hold a new
    # large prime per row
    monkeypatch.setattr(counting, "_POWERS", counting._Powers())
    assert sum(1 for _ in rows(4 * 10**12, 4 * 10**12 + 4092)) == 1024
    rng = random.Random(62)
    for _ in range(1000):
        report(2**62 + 4 * rng.randrange(2**40))
    powers = counting._POWERS
    assert powers and all(p < 1000 for p, k in powers), sorted(powers)[-1]
    assert all(value == counting._local(p, k) for (p, k), value in powers.items())
