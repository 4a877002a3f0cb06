"""Tests for the closed-form counting functions."""

import math
from types import SimpleNamespace

import pytest

import oracles
from golden_counts import TABLE
from oracles import exact_div
from trihex import counting
from trihex.counting import quarter, report
from trihex.errors import InternalInconsistencyError
from trihex.numtheory import Factorization, factorize


# The paper's direct case formulas for gamma and rot_classes: a second route,
# independent of the (sigma + 2*delta + 3*mu)/6 and (delta + nu)/2
# combinations that `counting.report` uses.


def gamma_cases(f: Factorization) -> int:
    """Graph-class count via the direct case formulas on the factorization.

    Split v/4 = 2^a * 3^b * (primes = 1 mod 3) * (odd primes = 2 mod 3) and
    combine the three symmetry contributions over the common denominator 12.
    """
    a = oracles.exponent(f, 2)
    b = oracles.exponent(f, 3)
    ones = [(p, k) for p, k in f.factors if p % 3 == 1]
    twos = [(p, k) for p, k in f.factors if p % 3 == 2 and p != 2]

    sig_rest = math.prod((p ** (k + 1) - 1) // (p - 1) for p, k in ones + twos)
    prod_ones = math.prod(k + 1 for _, k in ones)
    prod_twos = math.prod(k + 1 for _, k in twos)

    pow2 = 2 ** (a + 1) - 1 if a > 0 else 1
    sigma_term = pow2 * (3 ** (b + 1) - 1) * sig_rest
    mirror_coeff = (2 * a - 1) if a > 0 else 1
    mirror_term = 6 * mirror_coeff * (b + 1) * prod_ones * prod_twos
    rotation_possible = a % 2 == 0 and all(k % 2 == 0 for _, k in twos)
    rotation_term = 4 * prod_ones if rotation_possible else 0

    return exact_div(sigma_term + rotation_term + mirror_term, 12, f"gamma for n={f.n}")


def rot_classes_direct(v: int) -> int:
    """Rotationally symmetric graph classes via the direct case formula."""
    f = factorize(quarter(v))
    ones = [k for p, k in f.factors if p % 3 == 1]
    twos = [k for p, k in f.factors if p % 3 == 2]
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
    assert r.csv_row() == "28,8,2,2,0,4,3,1"
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
        assert r.gamma == gamma_cases(factorize(v // 4)), v
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
        assert report(v) == oracles.report_by_parts(oracles.factorize(v // 4)), v


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
        assert report(4 * n) == oracles.report_by_parts(factorize(n)), n


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


def test_report_raises_when_a_division_is_not_exact(monkeypatch):
    # a stand-in "prime" 4: sigma 5, delta 2, mu 2, so 6 * gamma would be 15
    monkeypatch.setattr(counting, "factorize", lambda n: SimpleNamespace(factors=((4, 1),)))
    with pytest.raises(InternalInconsistencyError) as excinfo:
        report(16)
    assert str(excinfo.value) == "gamma for V=16: 15 not divisible by 6"
