"""Tests for constructive enumeration against the closed-form counts."""

import math
import random
import tracemalloc
from itertools import compress
from types import SimpleNamespace

import pytest

from trihex import cli, counting, enumeration, graph, signature
from trihex.enumeration import (
    all_signatures,
    coinciding_signatures,
    graph_class_reps,
    self_mirror_signatures,
    trihex_reps,
    verify,
    verify_graphs,
)
from trihex.errors import InternalInconsistencyError, VerificationFailureError
from trihex.graph import CanonicalCode
from trihex.numtheory import factorize
from trihex.signature import (
    Signature,
    canonical_offsets,
    canonical_rep,
    has_mirror_symmetry,
    is_coinciding,
    mirror,
    orbit,
    vertex_count,
)


def test_all_signatures_examples():
    assert list(all_signatures(4)) == [Signature(0, 0, 0)]
    assert list(all_signatures(28)) == [Signature(0, 6, 0)] + [
        Signature(6, 0, f) for f in range(7)
    ]
    # frozen from a raw divisor-pair scan
    assert [tuple(s) for s in all_signatures(16)] == [
        (0, 3, 0), (1, 1, 0), (1, 1, 1), (3, 0, 0), (3, 0, 1), (3, 0, 2), (3, 0, 3),
    ]


def test_all_signatures_sorted_and_complete():
    # every stream is built in order and never sorted afterwards
    for stream in cli._STREAMS.values():
        for v in range(4, 404, 4):
            sigs = list(stream(v))
            assert all(a < b for a, b in zip(sigs, sigs[1:])), (stream.__name__, v)
            assert all(vertex_count(s) == v for s in sigs), (stream.__name__, v)


def test_rejects_invalid_vertex_count():
    for fn in (all_signatures, trihex_reps, coinciding_signatures,
               self_mirror_signatures, graph_class_reps, verify):
        with pytest.raises(ValueError):
            fn(6)


def test_all_signatures_refuses_more_than_max_signatures(monkeypatch):
    # the limit is inclusive: sigma(7) = 8 is built, sigma(8) = 15 is refused
    monkeypatch.setattr(enumeration, "MAX_SIGNATURES", 8)
    assert len(list(all_signatures(28))) == 8
    with pytest.raises(ValueError, match="V=32 has 15 signatures; enumeration holds at most 8"):
        all_signatures(32)


def test_trihex_reps_examples():
    assert list(trihex_reps(4)) == [Signature(0, 0, 0)]
    assert len(list(trihex_reps(28))) == 4
    reps32 = list(trihex_reps(32))
    assert len(reps32) == 5
    assert Signature(1, 3, 0) in reps32


def _orbit_minima(v):
    return [sig for sig in all_signatures(v) if sig == min(orbit(sig))]


# 4 * 5040 * k and 48384: V/4 with many square divisors m^2, so many
# divisor pairs with m | n, where ties are settled by the orbit walk in
# `canonical_offsets`
@pytest.mark.parametrize("v", [5040, 48384, 20160, 60480])
def test_trihex_reps_are_orbit_minima(v):
    assert list(trihex_reps(v)) == _orbit_minima(v)


def test_trihex_reps_match_oracles_up_to_1200():
    # the sieved offsets against the orbit minimum
    for v in range(4, 1204, 4):
        assert list(trihex_reps(v)) == _orbit_minima(v), v


def test_tie_walk_matches_hnf_route():
    # the ties of a pair (n, m) are the offsets f with gcd(n, f) = gcd(n, f+m)
    # = m, whose orbits stay in the pair; every other multiple of m has a
    # member with a smaller s.  So the orbit walk of `canonical_offsets` must
    # mark, among the multiples of m, exactly the ties that are the least HNF
    # of their orbit, and record for each the least HNF of its mirror's orbit.
    # The pair (p, 1) of V = 4p is all ties
    pairs = [(k * m, m) for m in (1, 2, 3, 6) for k in range(1, 601)] + [(1009, 1), (2003, 1), (4999, 1)]
    for n, m in pairs:
        mask, mirrors = canonical_offsets(n, m)
        mirrors = list(mirrors)
        ties = [f for f in range(0, n, m) if math.gcd(n, f) == math.gcd(n, f + m) == m]
        least = {f: min(orbit(Signature(n - 1, m - 1, f))) for f in ties}
        marked = list(compress(range(0, n, m), mask[::m]))
        assert marked == [f for f in ties if least[f] == (n - 1, m - 1, f)], (n, m)
        assert [mirrors[f] for f in marked] == [least[(n - m - f) % n].f for f in marked], (n, m)


def test_coinciding_examples():
    assert coinciding_signatures(28) == [Signature(6, 0, 2), Signature(6, 0, 4)]
    assert coinciding_signatures(112) == [Signature(13, 1, 4), Signature(13, 1, 8)]
    assert coinciding_signatures(8) == []


def test_coinciding_are_self_equivalent():
    for v in range(4, 404, 4):
        for sig in coinciding_signatures(v):
            assert len(set(orbit(sig))) == 1


def test_self_mirror_examples():
    assert self_mirror_signatures(28) == [Signature(0, 6, 0), Signature(6, 0, 3)]
    assert Signature(4, 2, 1) in self_mirror_signatures(60)
    assert self_mirror_signatures(4) == [Signature(0, 0, 0)]


def test_graph_class_reps_examples():
    assert list(graph_class_reps(4)) == [Signature(0, 0, 0)]
    assert len(list(graph_class_reps(28))) == 3
    assert len(list(graph_class_reps(112))) == 13
    assert len(list(trihex_reps(112))) == 20


def test_verify_sweep():
    # every size identity, for every vertex count up to 400
    for v in range(4, 404, 4):
        verify(v)


def test_verify_streams_match_public_streams():
    # the representatives that `enumerate --stream reps` prints are the
    # orbit minima, and the class stream keeps the smaller of each mirror pair
    for v in range(4, 404, 4):
        reps = _orbit_minima(v)
        assert list(trihex_reps(v)) == reps, v
        classes = list(graph_class_reps(v))
        assert len(classes) == counting.report(v).gamma, v
        assert set(classes) == {min(r, canonical_rep(mirror(r))) for r in reps}, v


def test_verify_reports_non_coinciding_construction(monkeypatch):
    monkeypatch.setattr(enumeration, "is_coinciding", lambda sig: False)
    with pytest.raises(VerificationFailureError) as excinfo:
        verify(28)
    assert excinfo.value.field == "coinciding orbit"


def test_verify_reports_self_mirror_not_fixed(monkeypatch):
    # same size and same overlap with the coinciding stream, so only the
    # fixed-by-mirror check can catch the wrong member
    wrong = [Signature(0, 6, 0), Signature(6, 0, 1)]
    monkeypatch.setattr(enumeration, "self_mirror_signatures", lambda v: wrong)
    with pytest.raises(VerificationFailureError) as excinfo:
        verify(28)
    assert excinfo.value.field == "self-mirror fixed"
    assert excinfo.value.actual == Signature(6, 0, 5)


def test_verify_reports_wrong_canonical_filter(monkeypatch):
    # a tie map that fixes every q makes each tie its own orbit, so the walk
    # keeps every tied offset: all of (6,0,1..5), not one per orbit
    monkeypatch.setattr(signature, "_tie_partners", lambda q, k: (q, q))
    with pytest.raises(VerificationFailureError) as excinfo:
        verify(28)
    assert excinfo.value.field == "trihexes"


def _swap_offsets(monkeypatch, pair, unmark, mark):
    """Make `enumeration.canonical_offsets` mark offset `mark` of `pair` in place of `unmark`."""

    def swapped(n, m):
        mask, mirrors = canonical_offsets(n, m)
        if (n, m) == pair:
            mask[unmark], mask[mark] = 0, 1
        return mask, mirrors

    monkeypatch.setattr(enumeration, "canonical_offsets", swapped)


def test_verify_reports_mirror_closure(monkeypatch):
    # (6,0,5) in place of its orbit's least member (6,0,1) keeps every count;
    # its mirror's representative (6,0,1) is not marked
    _swap_offsets(monkeypatch, (7, 1), unmark=1, mark=5)
    with pytest.raises(VerificationFailureError) as excinfo:
        verify(28)
    assert excinfo.value.field == "mirror closure"
    assert excinfo.value.actual == Signature(6, 0, 1)


def test_verify_reports_unrecorded_tie_mirror(monkeypatch):
    # the plain mirror in place of the walk's record: the mirror of (6,0,1) is
    # the tie (6,0,5), whose orbit {1, 5, 3} is represented by (6,0,1) itself,
    # so reading the unmarked (6,0,5) must fail the closure check
    def plain(n, m):
        mask, mirrors = canonical_offsets(n, m)
        if (n, m) == (7, 1):
            mirrors = [(-m - f) % n for f in range(n)]
        return mask, mirrors

    monkeypatch.setattr(enumeration, "canonical_offsets", plain)
    with pytest.raises(VerificationFailureError) as excinfo:
        verify(28)
    assert excinfo.value.field == "mirror closure"
    assert excinfo.value.expected == "a distinct representative for mirror(6,0,1)"
    assert excinfo.value.actual == Signature(6, 0, 5)


def test_verify_reports_mirror_that_is_no_tie(monkeypatch):
    # (24,4,20) in place of the tie (24,4,5) keeps every count, but fails the
    # gcd test (gcd(25, 25) > 5): its mirror (24,4,0) is unmarked and no tie
    _swap_offsets(monkeypatch, (25, 5), unmark=5, mark=20)
    with pytest.raises(VerificationFailureError) as excinfo:
        verify(500)
    assert excinfo.value.field == "mirror closure"
    assert excinfo.value.actual == Signature(24, 4, 0)


def test_verify_reports_coinciding_not_canonical(monkeypatch):
    # (6,0,3) in place of the coinciding (6,0,2) keeps every count
    _swap_offsets(monkeypatch, (7, 1), unmark=2, mark=3)
    with pytest.raises(VerificationFailureError) as excinfo:
        verify(28)
    assert excinfo.value.field == "coinciding not canonical"
    assert excinfo.value.actual == Signature(6, 0, 2)


def test_verify_memory_does_not_grow_with_sigma():
    # sigma(249 480) = 1 045 440 signatures, 348 480 trihexes; verify holds
    # one divisor pair's offsets at a time
    factorize.cache_clear()
    tracemalloc.start()
    try:
        verify(997_920)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_verify_memory_where_ties_exist():
    # V/4 = 50 021 is prime, so its pair (50 021, 1) is all ties and verify
    # holds that pair's mirror table: below 8 bytes per offset
    factorize.cache_clear()
    tracemalloc.start()
    try:
        verify(4 * 50_021)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 50_021, peak


@pytest.mark.parametrize(
    "predicate, problem",
    [
        ("is_coinciding", "3-fold symmetry vs automorphism count"),
        ("has_mirror_symmetry", "chirality vs mirror symmetry"),
    ],
)
def test_verify_graphs_reports_flipped_predicate(monkeypatch, predicate, problem):
    reps = list(trihex_reps(28))
    assert verify_graphs(28, reps) == []
    original = getattr(enumeration, predicate)
    monkeypatch.setattr(enumeration, predicate, lambda sig: not original(sig))
    assert verify_graphs(28, reps) == [f"{rep}: {problem}" for rep in reps]


def test_verify_graphs_reports_wrong_automorphism_count(monkeypatch):
    # doubled counts (24 on a coinciding rep, 8 on the others) keep "divisible
    # by 3 exactly when coinciding", so only the exact count catches them
    reps = list(trihex_reps(28))
    real = graph.canonical_code

    def doubled(g):
        cc = real(g)
        return CanonicalCode(cc.code, 2 * cc.oriented_aut_count)

    monkeypatch.setattr(graph, "canonical_code", doubled)
    assert verify_graphs(28, reps) == [
        f"{rep}: 3-fold symmetry vs automorphism count" for rep in reps
    ] + ["classes by automorphism order 24/12/8/4: (1, 0, 0, 0) != (0, 1, 2, 0)"]


@pytest.mark.parametrize(
    "field, expected",
    [("nu", (1, 0, 1, 1)), ("rot_classes", (0, 2, 2, -1)), ("mu", (0, 1, 3, -1))],
)
def test_verify_graphs_reports_census_off_by_one(monkeypatch, field, expected):
    # gamma is kept, so only the census by automorphism order can catch a
    # count that is one off; V = 28 has classes of orders 12, 8 and 8
    reps = list(trihex_reps(28))
    real = counting.report(28)
    fake = SimpleNamespace(**{**real._asdict(), field: getattr(real, field) + 1})
    monkeypatch.setattr(counting, "report", lambda v: fake)
    assert verify_graphs(28, reps) == [
        f"classes by automorphism order 24/12/8/4: (0, 1, 2, 0) != {expected}"
    ]


def test_verify_graphs_reports_graphs_without_half_turns(monkeypatch):
    # the same graphs with their vertices shuffled pass validation, but the
    # translations read off each signature no longer map them onto themselves,
    # so no representative is coded and none counts as a class
    build = graph.build

    def shuffled(sig):
        g = build(sig)
        new = list(range(len(g)))
        random.Random(len(g)).shuffle(new)
        rot = [()] * len(g)
        for v, nbrs in enumerate(g):
            rot[new[v]] = tuple(new[w] for w in nbrs)
        return tuple(rot)

    monkeypatch.setattr(graph, "build", shuffled)
    reps = list(trihex_reps(28))
    assert verify_graphs(28, reps) == [
        f"build {rep}: half-turn translations are not automorphisms" for rep in reps
    ] + ["graph classes 0 != gamma 3"]


def test_verify_graphs_validates_each_representative_once(monkeypatch):
    reps = list(trihex_reps(28))
    validated = []
    monkeypatch.setattr(graph, "validate", validated.append)
    assert verify_graphs(28, reps) == []
    assert validated == [graph.build(rep) for rep in reps]

    def broken(g):
        raise InternalInconsistencyError("face census wrong")

    # a representative that fails validation is reported and gets no codes
    monkeypatch.setattr(graph, "validate", broken)
    assert verify_graphs(28, reps) == [
        f"build {rep}: face census wrong" for rep in reps
    ] + ["graph classes 0 != gamma 3"]


def test_verify_graphs_reports_collision_and_foreign_orbit_member(monkeypatch):
    # (6,0,5) is equivalent to (6,0,1): listed as two representatives, they
    # give one oriented graph twice
    assert verify_graphs(28, [Signature(6, 0, 1), Signature(6, 0, 5)]) == [
        "(6,0,5): oriented code collides with (6,0,1)",
        "graph classes 1 != gamma 3",
    ]
    # an orbit that names (6,0,2), another trihex, as a member of (0,6,0)
    monkeypatch.setattr(enumeration, "orbit", lambda sig: (sig, sig, Signature(6, 0, 2)))
    assert verify_graphs(28, [Signature(0, 6, 0)]) == [
        "(0,6,0): equivalent signature (6,0,2) builds a different graph",
        "graph classes 1 != gamma 3",
    ]


def test_mirror_symmetry_bijections():
    # representatives with mirror symmetry are counted by mu; those with
    # both symmetries by nu
    for v in range(4, 404, 4):
        reps = trihex_reps(v)
        mirror_reps = [r for r in reps if has_mirror_symmetry(r)]
        assert len(mirror_reps) == counting.report(v).mu, v
        both = [r for r in mirror_reps if is_coinciding(r)]
        assert len(both) == counting.report(v).nu, v


def test_verification_failure_reports_field():
    err = VerificationFailureError(28, "sigma", 8, 7)
    assert err.v == 28
    assert err.field == "sigma"
    assert "expected 8" in str(err)
