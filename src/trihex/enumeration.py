"""Constructive enumeration of signatures and trihex representatives.

These routines build the objects that the closed-form counts in `counting`
merely count, so each stream's size certifies one formula (`verify`).
All signatures, representatives and graph classes are lazy iterators over
the divisor pairs (s+1, b+1) of V/4, listed (and a V past MAX_SIGNATURES
refused) when the stream is made; representatives and graph classes come
from each pair's `canonical_offsets`: a mask of the canonical offsets and
each one's mirror representative, which a mirror keeps in the pair.  The
coinciding and self-mirror streams are short lists.  `verify` checks the
pairs one at a time too, so it holds nothing as long as the signatures.
`verify_graphs` then realizes the representatives as embedded graphs and
checks the symmetry claims and the graph-class count on the graphs
themselves.  Every stream is built in lexicographic order, so output is
reproducible byte for byte and nothing is sorted afterwards.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import compress

from . import counting, graph
from .errors import InternalInconsistencyError, VerificationFailureError
from .numtheory import divisors, solve_fast
from .signature import (
    Signature,
    canonical_offsets,
    has_mirror_symmetry,
    is_coinciding,
    mirror,
    orbit,
)


# `all_signatures`, `trihex_reps`, `graph_class_reps` and `verify` refuse a V
# with more signatures, sigma(V/4), than this (V = 4p for a prime p has p + 1).
# No stream is held whole, so the cap bounds time and the largest pair's mask.
# On a 2-core Xeon VM with Python 3.11, at V = 3 164 688 (sigma 1 999 998)
# `verify` takes 0.3 s and 16 MiB and structured `enumerate` 1.6-2.4 s and
# 14 MiB; at V = 7 999 972 (sigma 1 999 994, its pair (1 999 993, 1) all ties)
# 1.6-1.7 s and 24 MiB, and 1.8-2.2 s and 24 MiB for `enumerate --stream classes`.
MAX_SIGNATURES = 2_000_000


def _divisor_pairs(v: int) -> list[tuple[int, int]]:
    """The pairs (n, m) = (s+1, b+1) with n*m = v/4, n ascending; refuses v past MAX_SIGNATURES."""
    quarter = counting.quarter(v)
    ds = divisors(quarter)
    if sum(ds) > MAX_SIGNATURES:
        raise ValueError(f"V={v} has {sum(ds)} signatures; enumeration holds at most {MAX_SIGNATURES}")
    return [(n, quarter // n) for n in ds]


def all_signatures(v: int) -> Iterator[Signature]:
    """Every signature (s, b, f) with 4(s+1)(b+1) = v, lexicographically sorted."""
    return (Signature(n - 1, m - 1, f) for n, m in _divisor_pairs(v) for f in range(n))


def trihex_reps(v: int) -> Iterator[Signature]:
    """One canonical signature per trihex with v vertices, sorted."""
    pairs = _divisor_pairs(v)
    return (Signature(n - 1, m - 1, f) for n, m in pairs for f in compress(range(n), canonical_offsets(n, m)[0]))


def coinciding_signatures(v: int) -> list[Signature]:
    """Signatures equal to both their equivalents, sorted: (tm-1, m-1, gm) over v/4 = t*m^2."""
    n = counting.quarter(v)
    result = []
    # descending m gives ascending s = n/m - 1, so the list comes out sorted
    for m in reversed(divisors(n)):
        if n % (m * m):
            continue
        t = n // (m * m)
        result.extend(Signature(t * m - 1, m - 1, g * m) for g in solve_fast(t))
    return result


def self_mirror_signatures(v: int) -> list[Signature]:
    """Signatures fixed by mirroring, sorted: solutions of 2f = -(b+1) (mod s+1) per divisor pair."""
    n = counting.quarter(v)
    result = []
    for d in divisors(n):
        s, b = d - 1, n // d - 1
        modulus = s + 1
        target = (-(b + 1)) % modulus
        g = math.gcd(2, modulus)
        if target % g:
            continue
        step = modulus // g
        f0 = (target // g) * pow(2 // g, -1, step) % step
        result.extend(Signature(s, b, f) for f in range(f0, modulus, step))
    return result


def graph_class_reps(v: int) -> Iterator[Signature]:
    """One representative per graph isomorphism class, sorted: mirror pairs collapsed.

    A representative is kept when its offset is no greater than that of its
    mirror's representative, read off `canonical_offsets`.
    """
    return (
        Signature(n - 1, m - 1, f)
        for n, m in _divisor_pairs(v)
        for mask, mirrors in [canonical_offsets(n, m)]
        for f, g in zip(compress(range(n), mask), compress(mirrors, mask))
        if f <= g
    )


def verify(v: int) -> None:
    """Check each stream's size for v against its formula, one divisor pair at a time.

    Each pair (n, m) = (s+1, b+1) gets its `canonical_offsets` and nothing
    longer: the coinciding signatures of the pair must be marked, the
    mirror representatives that the orbit walk records for the marked
    offsets must be distinct and marked (so mirroring maps the pair's
    representatives onto themselves), and gamma counts the offsets f no
    greater than their mirror's.  Nothing of length sigma or trihexes is
    held, so memory grows with the largest s (4 bytes per offset of a pair
    with ties), not with the number of signatures.
    Raises VerificationFailureError naming the first check that disagrees.
    """
    pairs = _divisor_pairs(v)
    coinciding = coinciding_signatures(v)
    self_mirror = self_mirror_signatures(v)
    trihexes = gamma = 0
    for n, m in pairs:
        mask, mirrors = canonical_offsets(n, m)
        for sig in coinciding:
            if sig.s == n - 1 and not mask[sig.f]:
                raise VerificationFailureError(v, "coinciding not canonical", "a representative", sig)
        images = bytearray(n)
        for f, g in zip(compress(range(n), mask), compress(mirrors, mask)):
            if not mask[g] or images[g]:
                raise VerificationFailureError(
                    v,
                    "mirror closure",
                    f"a distinct representative for mirror{Signature(n - 1, m - 1, f)}",
                    Signature(n - 1, m - 1, g),
                )
            images[g] = 1
            gamma += f <= g
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
