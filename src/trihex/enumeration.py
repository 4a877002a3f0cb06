"""Constructive enumeration of signatures and trihex representatives.

These routines build the objects that the closed-form counts in `counting`
merely count, so each stream's size certifies one formula (`verify`).
`verify_graphs` then realizes the representatives as embedded graphs and
checks the symmetry claims and the graph-class count on the graphs
themselves.  Enumeration order is deterministic (divisors ascending, offsets
ascending) so output is reproducible byte for byte.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from . import counting, graph
from .errors import InternalInconsistencyError, VerificationFailureError
from .numtheory import divisors, factorize, solve_fast
from .signature import Signature, canonical_rep, has_mirror_symmetry, is_coinciding, mirror, orbit


def all_signatures(v: int) -> list[Signature]:
    """Every signature (s, b, f) with 4(s+1)(b+1) = v, lexicographically sorted."""
    n = counting.quarter(v)
    result = []
    for d in divisors(factorize(n)):
        s, b = d - 1, n // d - 1
        result.extend(Signature(s, b, f) for f in range(s + 1))
    return result


def trihex_reps(v: int) -> list[Signature]:
    """One canonical signature per trihex with v vertices, sorted."""
    return sorted({canonical_rep(sig) for sig in all_signatures(v)})


def coinciding_signatures(v: int) -> list[Signature]:
    """Signatures equal to both their equivalents: (tm-1, m-1, gm) over v/4 = t*m^2."""
    n = counting.quarter(v)
    result = []
    for m in divisors(factorize(n)):
        if n % (m * m):
            continue
        t = n // (m * m)
        result.extend(
            Signature(t * m - 1, m - 1, g * m) for g in solve_fast(factorize(t)).roots
        )
    return sorted(result)


def self_mirror_signatures(v: int) -> list[Signature]:
    """Signatures fixed by mirroring: solutions of 2f = -(b+1) (mod s+1) per divisor pair."""
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
    return sorted(result)


def graph_class_reps(v: int) -> list[Signature]:
    """One representative per graph isomorphism class: mirror pairs collapsed."""
    return sorted(
        rep for rep in trihex_reps(v) if rep <= canonical_rep(mirror(rep))
    )


@dataclass(frozen=True)
class EnumerationResult:
    """All enumeration streams for one vertex count."""

    V: int
    all_signatures: tuple[Signature, ...]
    trihex_reps: tuple[Signature, ...]
    coinciding: tuple[Signature, ...]
    self_mirror: tuple[Signature, ...]
    graph_class_reps: tuple[Signature, ...]


def verify(v: int) -> EnumerationResult:
    """Enumerate every stream for v and check each size against its formula.

    Each orbit and mirror fact is computed once: the representatives come
    from one pass over the signatures, and each one's mirror representative
    serves both the graph-class stream and the mirror-closure check.
    Raises VerificationFailureError naming the first check that disagrees.
    """
    signatures = all_signatures(v)
    reps = sorted({canonical_rep(sig) for sig in signatures})
    mirror_reps = [canonical_rep(mirror(rep)) for rep in reps]
    result = EnumerationResult(
        V=v,
        all_signatures=tuple(signatures),
        trihex_reps=tuple(reps),
        coinciding=tuple(coinciding_signatures(v)),
        self_mirror=tuple(self_mirror_signatures(v)),
        graph_class_reps=tuple(rep for rep, m in zip(reps, mirror_reps) if rep <= m),
    )

    counts = counting.report(v)
    checks = (
        ("sigma", counts.sigma, len(result.all_signatures)),
        ("trihexes", counts.trihexes, len(result.trihex_reps)),
        ("delta", counts.delta, len(result.coinciding)),
        ("mu", counts.mu, len(result.self_mirror)),
        ("gamma", counts.gamma, len(result.graph_class_reps)),
        ("nu", counts.nu, len(set(result.coinciding) & set(result.self_mirror))),
    )
    for field, expected, actual in checks:
        if expected != actual:
            raise VerificationFailureError(v, field, expected, actual)

    for sig in result.coinciding:
        if not is_coinciding(sig):
            raise VerificationFailureError(v, "coinciding orbit", (sig,) * 3, orbit(sig))
    for sig in result.self_mirror:
        if mirror(sig) != sig:
            raise VerificationFailureError(v, "self-mirror fixed", sig, mirror(sig))
    rep_set = set(reps)
    if not set(result.coinciding) <= rep_set:
        raise VerificationFailureError(v, "coinciding not canonical", "subset", "not subset")
    for sig in result.all_signatures:
        if 4 * (sig.s + 1) * (sig.b + 1) != v:
            raise VerificationFailureError(v, "vertex count", v, sig)
    if set(mirror_reps) != rep_set:
        raise VerificationFailureError(v, "mirror closure", "closed", "not closed")
    return result


def verify_graphs(v: int, reps: Iterable[Signature]) -> list[str]:
    """Check the trihex representatives `reps` of v as graphs; return the problems found.

    Each representative is built once and gets two oriented canonical codes:
    forward, and backward (the code of its mirror image).  The checks are:
    3-fold symmetry (an oriented automorphism count divisible by 3) exactly
    for coinciding signatures; chirality (the two codes differ) exactly
    without mirror symmetry; distinct oriented codes for distinct
    representatives; the same oriented code for every orbit member; and
    gamma classes up to reflection (the smaller of the two codes).
    """
    problems: list[str] = []
    oriented: dict[tuple[int, ...], Signature] = {}
    classes: set[tuple[int, ...]] = set()
    for rep in reps:
        try:
            g = graph.build(rep)
        except InternalInconsistencyError as exc:
            problems.append(f"build {rep}: {exc}")
            continue
        fwd = graph.canonical_code(g)
        bwd = graph.canonical_code(graph.mirror_image(g))
        if (fwd.oriented_aut_count % 3 == 0) != is_coinciding(rep):
            problems.append(f"{rep}: 3-fold symmetry vs automorphism count")
        if (fwd.code != bwd.code) == has_mirror_symmetry(rep):
            problems.append(f"{rep}: chirality vs mirror symmetry")
        if fwd.code in oriented:
            problems.append(f"{rep}: oriented code collides with {oriented[fwd.code]}")
        oriented[fwd.code] = rep
        classes.add(min(fwd.code, bwd.code))
        for member in orbit(rep):
            if member != rep and graph.canonical_code(graph.build(member)).code != fwd.code:
                problems.append(f"{rep}: equivalent signature {member} builds a different graph")
    gamma = counting.gamma(v)
    if len(classes) != gamma:
        problems.append(f"graph classes {len(classes)} != gamma {gamma}")
    return problems
