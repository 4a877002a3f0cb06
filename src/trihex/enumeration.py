"""Constructive enumeration of signatures and trihex representatives.

These routines build the objects that the closed-form counts in `counting`
merely count, so each stream's size certifies one formula (`verify`).
`verify_graphs` then realizes the representatives as embedded graphs and
checks the symmetry claims and the graph-class count on the graphs
themselves.  Every stream is built in lexicographic order, so output is
reproducible byte for byte and nothing is sorted afterwards.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from . import counting, graph
from .errors import InternalInconsistencyError, VerificationFailureError
from .numtheory import divisors, factorize, solve_fast
from .signature import (
    Signature,
    canonical_rep,
    has_mirror_symmetry,
    is_canonical,
    is_coinciding,
    mirror,
    orbit,
)


# `all_signatures` refuses a V with more signatures than this.  There are
# sigma(V/4) of them, which grows with V: V = 4p for a prime p has p + 1.
MAX_SIGNATURES = 2_000_000


def all_signatures(v: int) -> list[Signature]:
    """Every signature (s, b, f) with 4(s+1)(b+1) = v, lexicographically sorted."""
    n = counting.quarter(v)
    ds = divisors(factorize(n))
    if sum(ds) > MAX_SIGNATURES:
        raise ValueError(f"V={v} has {sum(ds)} signatures; enumeration holds at most {MAX_SIGNATURES}")
    result = []
    for d in ds:
        s, b = d - 1, n // d - 1
        result.extend(Signature(s, b, f) for f in range(s + 1))
    return result


def trihex_reps(v: int) -> list[Signature]:
    """One canonical signature per trihex with v vertices, sorted."""
    return [sig for sig in all_signatures(v) if is_canonical(sig)]


def coinciding_signatures(v: int) -> list[Signature]:
    """Signatures equal to both their equivalents, sorted: (tm-1, m-1, gm) over v/4 = t*m^2."""
    n = counting.quarter(v)
    result = []
    # descending m gives ascending s = n/m - 1, so the list comes out sorted
    for m in reversed(divisors(factorize(n))):
        if n % (m * m):
            continue
        t = n // (m * m)
        result.extend(Signature(t * m - 1, m - 1, g * m) for g in solve_fast(factorize(t)))
    return result


def self_mirror_signatures(v: int) -> list[Signature]:
    """Signatures fixed by mirroring, sorted: solutions of 2f = -(b+1) (mod s+1) per divisor pair."""
    n = counting.quarter(v)
    result = []
    for d in divisors(factorize(n)):
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


def graph_class_reps(v: int) -> list[Signature]:
    """One representative per graph isomorphism class, sorted: mirror pairs collapsed."""
    return [rep for rep in trihex_reps(v) if rep <= canonical_rep(mirror(rep))]


def verify(v: int) -> list[Signature]:
    """Check each stream's size for v against its formula; return the trihex representatives.

    Each orbit and mirror fact is computed once: the representatives are the
    signatures that pass `is_canonical`, in one pass over the sorted
    signatures, and each one's mirror representative serves both the
    graph-class count and the mirror-closure check.
    Raises VerificationFailureError naming the first check that disagrees.
    """
    signatures = all_signatures(v)
    reps = [sig for sig in signatures if is_canonical(sig)]
    mirror_reps = [canonical_rep(mirror(rep)) for rep in reps]
    coinciding = coinciding_signatures(v)
    self_mirror = self_mirror_signatures(v)

    counts = counting.report(v)
    checks = (
        ("sigma", counts.sigma, len(signatures)),
        ("trihexes", counts.trihexes, len(reps)),
        ("delta", counts.delta, len(coinciding)),
        ("mu", counts.mu, len(self_mirror)),
        ("gamma", counts.gamma, sum(rep <= m for rep, m in zip(reps, mirror_reps))),
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
    rep_set = set(reps)
    if not set(coinciding) <= rep_set:
        raise VerificationFailureError(v, "coinciding not canonical", "subset", "not subset")
    if set(mirror_reps) != rep_set:
        raise VerificationFailureError(v, "mirror closure", "closed", "not closed")
    return reps


def verify_graphs(v: int, reps: Iterable[Signature]) -> list[str]:
    """Check the trihex representatives `reps` of v as graphs; return the problems found.

    Each representative is built and validated once and gets two oriented
    canonical codes: forward, and backward (the code of its mirror image).
    Orbit members are only coded: a member with the representative's code is
    isomorphic to it, so it would pass the same validation.  The checks are:
    exactly 12 oriented automorphisms (the rotation group T, with its 3-fold
    axes) for coinciding signatures and 4 (D2) otherwise, the rotation groups
    of the trihex point groups (Deza & Dutour Sikiric, *Geometry of Chemical
    Graphs*, 2008); chirality (the two codes differ) exactly without mirror
    symmetry; distinct oriented codes for distinct representatives; the same
    oriented code for every orbit member; gamma classes up to reflection
    (the smaller of the two codes); and the census of those classes by full
    automorphism order (the oriented count, doubled when the two codes are
    equal): nu of order 24 (Td), rot_classes - nu of order 12 (T), mu - nu of
    order 8 (D2d or D2h) and the rest of order 4 (D2).
    """
    problems: list[str] = []
    oriented: dict[tuple[int, ...], Signature] = {}
    classes: dict[tuple[int, ...], int] = {}
    for rep in reps:
        try:
            g = graph.build(rep)
            graph.validate(g)
        except InternalInconsistencyError as exc:
            problems.append(f"build {rep}: {exc}")
            continue
        fwd = graph.canonical_code(g)
        bwd = graph.canonical_code(graph.mirror_image(g))
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
