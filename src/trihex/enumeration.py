"""Constructive enumeration of signatures and trihex representatives.

These routines build the objects that the closed-form counts in `counting`
merely count, so each stream's size certifies one formula (`verify`).
All signatures, representatives and graph classes are lazy iterators over
the divisor pairs (s+1, b+1) of V/4, listed (and a V past MAX_SIGNATURES
refused) when the stream is made; representatives and graph classes come
from each pair's `canonical_offsets`: byte masks of the canonical offsets,
of those no greater than their mirror's representative, and of the mirror
representatives, which a mirror keeps in the pair.  The
coinciding and self-mirror streams are short lists, each read off the
divisors d = s+1 of V/4 in closed form.  `verify` checks the
pairs one at a time too, so it holds nothing as long as the signatures.
`verify_graphs` then realizes the representatives as embedded graphs and
checks the symmetry claims and the graph-class count on the graphs
themselves.  Every stream is built in lexicographic order, so output is
reproducible byte for byte and nothing is sorted afterwards.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import compress
from math import gcd

from . import counting, graph
from .errors import InternalInconsistencyError, VerificationFailureError
from .numtheory import divisors, solve_fast
from .signature import (
    Signature,
    _can_tie,
    _tie_orbit,
    canonical_offsets,
    has_mirror_symmetry,
    is_coinciding,
    mirror,
    orbit,
)


# `all_signatures`, `trihex_reps`, `graph_class_reps` and `verify` refuse a V
# with more signatures, sigma(V/4), than this (V = 4p for a prime p has p + 1).
# No stream is held whole, so the cap bounds time and the largest pair's three
# byte masks.  The worst case is V = 4p for the largest prime p it admits,
# p = 19 999 999, whose one pair (p, 1) is all ties, so its orbit walk visits
# p/3 orbits.  On a 2-core Xeon VM with Python 3.11 (CLI wall time, peak RSS as
# VmHWM, six runs each on a shared host), there `verify` takes 12-16 s and
# 72 MiB, and `enumerate --format structured` 14-17 s and 17 MiB for
# `--stream all`, 15-19 s and 72 MiB for `reps` and 15-20 s and 72 MiB for
# `classes`.  Time, not memory, keeps the cap.
MAX_SIGNATURES = 20_000_000


def check_signatures(v: int) -> None:
    """Refuse v when its signatures, sigma(v/4), pass MAX_SIGNATURES."""
    sigma = counting.report(v).sigma
    if sigma > MAX_SIGNATURES:
        raise ValueError(f"V={v} has {sigma} signatures; enumeration holds at most {MAX_SIGNATURES}")


def _divisor_pairs(v: int) -> list[tuple[int, int]]:
    """The pairs (n, m) = (s+1, b+1) with n*m = v/4, n ascending.

    A v past MAX_SIGNATURES is refused from sigma, read off the factorization
    of v/4, before its divisors are listed.
    """
    quarter = counting.quarter(v)
    check_signatures(v)
    return [(n, quarter // n) for n in divisors(quarter)]


def all_signatures(v: int) -> Iterator[Signature]:
    """Every signature (s, b, f) with 4(s+1)(b+1) = v, lexicographically sorted."""
    return (Signature(n - 1, m - 1, f) for n, m in _divisor_pairs(v) for f in range(n))


def trihex_reps(v: int) -> Iterator[Signature]:
    """One canonical signature per trihex with v vertices, sorted."""
    pairs = _divisor_pairs(v)
    return (Signature(n - 1, m - 1, f) for n, m in pairs for f in compress(range(n), canonical_offsets(n, m)[0]))


def coinciding_signatures(v: int) -> list[Signature]:
    """Signatures equal to both their equivalents, sorted: (d-1, n/d-1, g*n/d) over v/4 = n with n | d^2.

    g runs over the roots of x^2 + x + 1 modulo d^2/n; ascending d is ascending s, so the list comes out sorted.
    """
    n = counting.quarter(v)
    return [
        Signature(d - 1, n // d - 1, g * (n // d))
        for d in divisors(n) if d * d % n == 0 for g in solve_fast(d * d // n)
    ]


def self_mirror_signatures(v: int) -> list[Signature]:
    """Signatures fixed by mirroring, sorted: solutions of 2f = -(b+1) (mod s+1) per divisor pair.

    With d = s+1 and r = -(b+1) mod d, the solutions below d are x/2 for the even x among r and r + d.
    """
    n = counting.quarter(v)
    return [
        Signature(d - 1, n // d - 1, x // 2)
        for d in divisors(n) for r in [-(n // d) % d] for x in (r, r + d) if x % 2 == 0
    ]


def graph_class_reps(v: int) -> Iterator[Signature]:
    """One representative per graph isomorphism class, sorted: mirror pairs collapsed.

    A representative is kept when its offset is no greater than that of its
    mirror's representative, read off `canonical_offsets`.
    """
    pairs = _divisor_pairs(v)
    return (Signature(n - 1, m - 1, f) for n, m in pairs for f in compress(range(n), canonical_offsets(n, m)[1]))


def _closure_failure(v: int, n: int, m: int, mask: bytearray) -> VerificationFailureError:
    """The failure naming the first marked offset of the pair (n, m) whose mirror representative is unmarked or taken.

    The slow path of `verify`, offset by offset: a tie's mirror is
    `_tie_orbit`'s, any other offset's the plain mirror (c - f) mod n,
    c = -m mod n, as in `canonical_offsets`.  Raises
    InternalInconsistencyError when no offset fails, since `verify` calls
    it only after the pair's mirror images differed from its mask.
    """
    c = -m % n
    k = n // m if _can_tie(n, m) else 0
    taken = bytearray(n)
    for f in compress(range(n), mask):
        q = f // m
        tie = k and f % m == 0 and gcd(q * (q + 1), k) == 1
        g = m * _tie_orbit(q, k)[2] if tie else (c - f) % n
        if not mask[g] or taken[g]:
            return VerificationFailureError(
                v,
                "mirror closure",
                f"a distinct representative for mirror{Signature(n - 1, m - 1, f)}",
                Signature(n - 1, m - 1, g),
            )
        taken[g] = 1
    raise InternalInconsistencyError(f"V={v}: the mirror images of the pair ({n}, {m}) disagree with its offsets")


def verify(v: int) -> None:
    """Check each stream's size for v against its formula, one divisor pair at a time.

    Each pair (n, m) = (s+1, b+1) gets its `canonical_offsets` and nothing
    longer: the coinciding signatures of the pair must be marked, the
    mirror representatives of the marked offsets must be distinct and
    marked, which is one comparison of two byte masks (so mirroring maps
    the pair's representatives onto themselves), and gamma counts the
    offsets no greater than their mirror's, one count of a third.  A pair
    whose comparison fails goes offset by offset (`_closure_failure`), and
    the failure names the first offender.  Nothing of length sigma or
    trihexes is held, so memory grows with the largest s (3 bytes per
    offset), not with the number of signatures.  Raises
    VerificationFailureError naming the first check that disagrees.
    """
    pairs = _divisor_pairs(v)
    coinciding = coinciding_signatures(v)
    self_mirror = self_mirror_signatures(v)
    trihexes = gamma = 0
    for n, m in pairs:
        mask, keep, images = canonical_offsets(n, m)
        for sig in coinciding:
            if sig.s == n - 1 and not mask[sig.f]:
                raise VerificationFailureError(v, "coinciding not canonical", "a representative", sig)
        if images != mask:
            raise _closure_failure(v, n, m, mask)
        gamma += keep.count(1)
        trihexes += mask.count(1)

    counts = counting.report(v)
    checks = (
        ("sigma", counts.sigma, sum(n for n, _ in pairs)),
        ("trihexes", counts.trihexes, trihexes),
        ("delta", counts.delta, len(coinciding)),
        ("mu", counts.mu, len(self_mirror)),
        ("gamma", counts.gamma, gamma),
        ("nu", counts.nu, len(set(coinciding) & set(self_mirror))),
    )
    for field, expected, actual in checks:
        if expected != actual:
            raise VerificationFailureError(v, field, expected, actual)

    for sig in coinciding:
        if not is_coinciding(sig):
            raise VerificationFailureError(v, "coinciding orbit", (sig,) * 3, orbit(sig))
    for sig in self_mirror:
        if mirror(sig) != sig:
            raise VerificationFailureError(v, "self-mirror fixed", sig, mirror(sig))


def verify_graphs(v: int, reps: Iterable[Signature]) -> list[str]:
    """Check the trihex representatives `reps` of v as graphs; return the problems found.

    Each representative is built and validated once, its half-turns D2 are
    checked (`graph.check_half_turns`, on rot only: the mirror image has the
    same automorphisms), and it gets two oriented canonical codes: forward,
    and backward (the code of its mirror image).  A representative that
    fails either check is reported once and gets no codes, since
    `canonical_code` relies on D2.  Orbit members are only matched with
    `has_code`: a match is a witness in itself, a miss is reported either
    way, and a member with the representative's code is isomorphic to it,
    so it would pass the same validation.  The checks are: exactly 12
    oriented automorphisms (the rotation group T, with its 3-fold axes) for
    coinciding signatures and 4 (D2) otherwise, the rotation groups of the
    trihex point groups (Deza & Dutour Sikiric, *Geometry of Chemical
    Graphs*, 2008); chirality (the two codes differ) exactly without mirror
    symmetry; distinct oriented codes for distinct representatives; the
    same oriented code for every orbit member; gamma classes up to
    reflection (the smaller of the two codes); and the census of those
    classes by full automorphism order (the oriented count, doubled when
    the two codes are equal): nu of order 24 (Td), rot_classes - nu of
    order 12 (T), mu - nu of order 8 (D2d or D2h) and the rest of order 4
    (D2).
    """
    problems: list[str] = []
    oriented: dict[tuple[int, ...], Signature] = {}
    classes: dict[tuple[int, ...], int] = {}
    for rep in reps:
        try:
            rot = graph.build(rep)
            graph.validate(rot)
            graph.check_half_turns(rot, rep)
        except InternalInconsistencyError as exc:
            problems.append(f"build {rep}: {exc}")
            continue
        fwd = graph.canonical_code(rot)
        bwd = graph.canonical_code(graph.mirror_image(rot))
        if fwd.oriented_aut_count != (12 if is_coinciding(rep) else 4):
            problems.append(f"{rep}: 3-fold symmetry vs automorphism count")
        if (fwd.code != bwd.code) == has_mirror_symmetry(rep):
            problems.append(f"{rep}: chirality vs mirror symmetry")
        if fwd.code in oriented:
            problems.append(f"{rep}: oriented code collides with {oriented[fwd.code]}")
        oriented[fwd.code] = rep
        classes[min(fwd.code, bwd.code)] = fwd.oriented_aut_count * (2 if fwd.code == bwd.code else 1)
        for member in orbit(rep):
            if member != rep and not graph.has_code(graph.build(member), fwd.code):
                problems.append(f"{rep}: equivalent signature {member} builds a different graph")
    counts = counting.report(v)
    if len(classes) != counts.gamma:
        problems.append(f"graph classes {len(classes)} != gamma {counts.gamma}")
    else:
        # the four expected counts sum to gamma, so a class of any other order is a mismatch too
        census = Counter(classes.values())
        actual = tuple(census[order] for order in (24, 12, 8, 4))
        expected = (
            counts.nu,
            counts.rot_classes - counts.nu,
            counts.mu - counts.nu,
            counts.gamma - counts.rot_classes - counts.mu + counts.nu,
        )
        if actual != expected:
            problems.append(f"classes by automorphism order 24/12/8/4: {actual} != {expected}")
    return problems
