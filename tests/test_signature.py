"""Tests for the signature calculus: orbits, mirrors, symmetry predicates."""

import math

import pytest

from oracles import hexagon_count, tie_partners
from trihex.enumeration import all_signatures, coinciding_signatures, self_mirror_signatures
from trihex.errors import InternalInconsistencyError
from trihex.signature import (
    Signature,
    _tie_orbit,
    canonical_rep,
    has_mirror_symmetry,
    is_coinciding,
    mirror,
    orbit,
    parse_signature,
    vertex_count,
)


# The paper's companion-signature formulas, kept as an oracle independent of
# the lattice (HNF) computation in `orbit`.


class NoSolutionError(ValueError):
    """A modular equation has no solution for the given inputs."""


def ord_mod(a: int, n: int) -> int:
    """Additive order of a in Z_n: smallest j >= 1 with j*a = 0 (mod n)."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return n // math.gcd(a % n, n)


def min_multiplier(a: int, target: int, n: int) -> int:
    """Smallest p >= 1 with p*a = target (mod n); 1 when n = 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return 1
    a %= n
    target %= n
    g = math.gcd(a, n)
    if target % g:
        raise NoSolutionError(f"{a}*p = {target} (mod {n}) has no solution")
    step = n // g
    if step == 1:
        return 1
    p = (target // g) * pow(a // g, -1, step) % step
    return p if p else step


def companion(sig: Signature, generator: int, offset_extra: int) -> Signature:
    """Signature read along the spine direction selected by `generator`.

    The two companion directions use generator = f and generator = f + b + 1
    in Z_{s+1}; their offset formulas differ by one extra belt term, passed
    in as `offset_extra`.  The new belt count comes from an exact division;
    a remainder can only mean a bug.
    """
    n = sig.s + 1
    h = hexagon_count(sig)
    j = ord_mod(generator, n)
    s_new = j * (sig.b + 1) - 1
    numerator = h - 2 * s_new
    denominator = 2 * s_new + 2
    if numerator % denominator:
        raise InternalInconsistencyError(f"inexact belt division for {sig}")
    b_new = numerator // denominator
    try:
        p = min_multiplier(generator, b_new + 1, n)
    except NoSolutionError as exc:
        raise InternalInconsistencyError(f"no multiplier for {sig}: {exc}") from exc
    f_new = (-p * (sig.b + 1) - offset_extra * (b_new + 1)) % (s_new + 1)
    return Signature(s_new, b_new, f_new)


def all_signatures_upto(v_max):
    """Every valid signature with vertex count at most v_max."""
    for s in range(v_max // 4):
        for b in range(v_max // (4 * (s + 1))):
            for f in range(s + 1):
                yield Signature(s, b, f)


def test_signature_validation():
    with pytest.raises(ValueError, match=r"^offset must satisfy 0 <= f <= s: \(1,0,2\)$"):
        parse_signature("1,0,2")
    with pytest.raises(ValueError, match=r"^spine and belt counts must be nonnegative: \(-1,0,0\)$"):
        parse_signature("-1,0,0")
    with pytest.raises(ValueError, match=r"^spine and belt counts must be nonnegative: \(0,-2,0\)$"):
        parse_signature("0,-2,0")


def assert_in_range(sig):
    assert sig.s >= 0 and sig.b >= 0 and 0 <= sig.f <= sig.s, sig


def test_constructed_signatures_are_in_range():
    # Signature itself checks nothing; every signature the package builds
    # must be in range by construction
    for v in range(4, 2004, 4):
        for sig in all_signatures(v):
            assert_in_range(sig)
            for member in orbit(sig):
                assert_in_range(member)
            assert_in_range(mirror(sig))
        for sig in coinciding_signatures(v) + self_mirror_signatures(v):
            assert_in_range(sig)


def test_signature_ordering_and_text():
    assert Signature(1, 3, 0) < Signature(3, 1, 0) < Signature(3, 1, 2)
    assert str(Signature(6, 2, 1)) == "(6,2,1)"
    assert parse_signature("6,2,1") == Signature(6, 2, 1)
    assert parse_signature("(6,2,1)") == Signature(6, 2, 1)


@pytest.mark.parametrize(
    "sig,expected",
    [((0, 0, 0), 4), ((6, 2, 1), 84), ((13, 1, 4), 112)],
)
def test_vertex_count(sig, expected):
    assert vertex_count(Signature(*sig)) == expected


@pytest.mark.parametrize(
    "sig,expected",
    [((0, 0, 0), 0), ((3, 1, 2), 14), ((6, 2, 1), 40)],
)
def test_hexagon_count(sig, expected):
    assert hexagon_count(Signature(*sig)) == expected


def test_ord_mod():
    assert ord_mod(2, 4) == 2
    assert ord_mod(0, 5) == 1
    assert ord_mod(17, 1) == 1
    for n in range(1, 40):
        for a in range(-10, 40):
            j = ord_mod(a, n)
            assert j * a % n == 0
            assert all(i * a % n for i in range(1, j))


def test_min_multiplier():
    assert min_multiplier(2, 2, 4) == 1
    assert min_multiplier(0, 4, 4) == 1
    assert min_multiplier(0, 1, 1) == 1
    for n in range(1, 30):
        for a in range(n):
            for target in range(n):
                try:
                    p = min_multiplier(a, target, n)
                except NoSolutionError:
                    assert all(q * a % n != target for q in range(1, n + 1))
                    continue
                assert p >= 1
                assert p * a % n == target % n
                assert all(q * a % n != target % n for q in range(1, p))


def test_orbit_fig_examples():
    members = orbit(Signature(3, 1, 2))
    assert members == (Signature(3, 1, 2), Signature(3, 1, 0), Signature(1, 3, 0))
    assert orbit(Signature(13, 1, 4)) == (Signature(13, 1, 4),) * 3


def test_orbit_spine_zero():
    for b in range(6):
        members = orbit(Signature(0, b, 0))
        assert {vertex_count(m) for m in members} == {4 * (b + 1)}


def test_orbit_matches_companion_formulas():
    for sig in all_signatures_upto(400):
        expected = (
            sig,
            companion(sig, sig.f, 1),
            companion(sig, sig.f + sig.b + 1, 0),
        )
        assert orbit(sig) == expected, sig


def test_orbit_never_has_exactly_two_members():
    # an orbit of the order-3 rotation is one signature or three distinct ones
    for sig in all_signatures_upto(400):
        assert len(set(orbit(sig))) in (1, 3), sig


def test_orbit_closure():
    for sig in all_signatures_upto(400):
        members = set(orbit(sig))
        for m in members:
            assert set(orbit(m)) == members, sig


def test_orbit_conserves_counts():
    for sig in all_signatures_upto(400):
        o = orbit(sig)
        assert len({vertex_count(m) for m in o}) == 1
        assert len({hexagon_count(m) for m in o}) == 1
        assert hexagon_count(sig) == vertex_count(sig) // 2 - 2, sig


@pytest.mark.parametrize(
    "sig,expected",
    [((4, 2, 1), (4, 2, 1)), ((14, 0, 11), (14, 0, 3)), ((0, 0, 0), (0, 0, 0))],
)
def test_mirror_examples(sig, expected):
    assert mirror(Signature(*sig)) == Signature(*expected)


def test_mirror_is_involution():
    for sig in all_signatures_upto(400):
        assert mirror(mirror(sig)) == sig


def test_mirror_commutes_with_orbit():
    for sig in all_signatures_upto(400):
        mirrored_orbit = {mirror(m) for m in orbit(sig)}
        assert set(orbit(mirror(sig))) == mirrored_orbit, sig


def test_is_coinciding_examples():
    assert is_coinciding(Signature(13, 1, 4))
    assert not is_coinciding(Signature(3, 1, 2))
    for m in range(1, 11):
        assert is_coinciding(Signature(m - 1, m - 1, 0))


def test_is_coinciding_matches_arithmetic():
    # (s, b, f) = (tm-1, m-1, gm) with m = b+1 and g^2 + g + 1 = 0 (mod t)
    for sig in all_signatures_upto(400):
        m = sig.b + 1
        if (sig.s + 1) % m or sig.f % m:
            arithmetic = False
        else:
            t = (sig.s + 1) // m
            g = sig.f // m
            arithmetic = (g * g + g + 1) % t == 0
        assert is_coinciding(sig) == arithmetic, sig


def test_coinciding_divisibility():
    # coinciding forces b+1 to divide both s+1 and f
    for sig in all_signatures_upto(400):
        if is_coinciding(sig):
            assert (sig.s + 1) % (sig.b + 1) == 0
            assert sig.f % (sig.b + 1) == 0


def test_is_self_mirror_examples():
    for sig in (Signature(4, 2, 1), Signature(6, 0, 3)):
        assert mirror(sig) == sig
    assert mirror(Signature(14, 0, 11)) != Signature(14, 0, 11)


def test_is_self_mirror_matches_congruence():
    for sig in all_signatures_upto(400):
        assert (mirror(sig) == sig) == ((2 * sig.f + sig.b + 1) % (sig.s + 1) == 0), sig


def test_has_mirror_symmetry_examples():
    assert has_mirror_symmetry(Signature(14, 0, 11))
    assert has_mirror_symmetry(Signature(0, 0, 0))
    assert not has_mirror_symmetry(Signature(6, 0, 2))


def test_mirror_triples():
    # mirror-symmetric non-coinciding orbits: one self-mirror member,
    # the other two mirrors of each other
    checked = 0
    for sig in all_signatures_upto(400):
        if not has_mirror_symmetry(sig) or is_coinciding(sig):
            continue
        members = orbit(sig)
        fixed = [m for m in members if mirror(m) == m]
        assert len(fixed) == 1, sig
        others = [m for m in members if m != fixed[0]]
        assert mirror(others[0]) == others[1], sig
        checked += 1
    assert checked > 50


@pytest.mark.parametrize(
    "sig,expected",
    [((3, 1, 2), (1, 3, 0)), ((13, 1, 4), (13, 1, 4)), ((0, 0, 0), (0, 0, 0))],
)
def test_canonical_rep_examples(sig, expected):
    assert canonical_rep(Signature(*sig)) == Signature(*expected)


def test_canonical_rep_constant_on_orbits():
    for sig in all_signatures_upto(400):
        rep = canonical_rep(sig)
        assert rep in orbit(sig)
        for m in orbit(sig):
            assert canonical_rep(m) == rep
        assert canonical_rep(rep) == rep


def test_tie_partners_match_two_inverse_formula():
    # one inverse of q(q+1) against one inverse each of q and q+1, for every
    # odd k <= 601 (k = 1 included) and every q with q and q+1 units mod k;
    # phi has order 3 and phi(phi(q)) is the second partner.  The mirror
    # orbit's least member is the mirror k-1-x of the orbit's greatest x,
    # the same for all three members
    checked = 0
    for k in range(1, 602, 2):
        for q in range(k):
            if math.gcd(q, k) == 1 and math.gcd(q + 1, k) == 1:
                p60, p120, least = _tie_orbit(q, k)
                assert (p60, p120) == tie_partners(q, k), (q, k)
                assert _tie_orbit(p60, k)[:2] == (p120, q), (q, k)
                assert _tie_orbit(p120, k)[0] == q, (q, k)
                assert least == min(k - 1 - x for x in (q, p60, p120)) == _tie_orbit(p60, k)[2], (q, k)
                checked += 1
    assert _tie_orbit(0, 1) == (0, 0, 0)
    assert checked > 50_000, checked
