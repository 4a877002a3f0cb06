"""Tests for constructive enumeration against the closed-form counts."""

import math
from types import SimpleNamespace

import pytest

from trihex import cli, counting, enumeration, graph
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
from trihex.signature import (
    Signature,
    canonical_rep,
    has_mirror_symmetry,
    is_canonical,
    is_coinciding,
    mirror,
    orbit,
    vertex_count,
)


def test_all_signatures_examples():
    assert all_signatures(4) == [Signature(0, 0, 0)]
    assert all_signatures(28) == [Signature(0, 6, 0)] + [
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
            sigs = stream(v)
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
    assert len(all_signatures(28)) == 8
    with pytest.raises(ValueError, match="V=32 has 15 signatures; enumeration holds at most 8"):
        all_signatures(32)


def test_trihex_reps_examples():
    assert trihex_reps(4) == [Signature(0, 0, 0)]
    assert len(trihex_reps(28)) == 4
    reps32 = trihex_reps(32)
    assert len(reps32) == 5
    assert Signature(1, 3, 0) in reps32


@pytest.mark.parametrize("v", [5040, 48384])
def test_trihex_reps_are_orbit_minima(v):
    assert trihex_reps(v) == sorted({min(orbit(sig)) for sig in all_signatures(v)})


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
    assert graph_class_reps(4) == [Signature(0, 0, 0)]
    assert len(graph_class_reps(28)) == 3
    assert len(graph_class_reps(112)) == 13
    assert len(trihex_reps(112)) == 20


def test_verify_sweep():
    # every size identity, for every vertex count up to 400
    for v in range(4, 404, 4):
        verify(v)


def test_verify_streams_match_public_streams():
    # verify returns the representatives that `enumerate --stream reps`
    # prints, and the class stream keeps the smaller of each mirror pair
    for v in range(4, 404, 4):
        reps = verify(v)
        assert reps == trihex_reps(v), v
        classes = graph_class_reps(v)
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
    # a filter that also admits every b = 0 signature tied at 60 degrees
    # keeps extra members of the (6,0,f) orbits
    def admits_ties(sig):
        return is_canonical(sig) or (sig.b == 0 and math.gcd(sig.s + 1, sig.f) == 1)

    monkeypatch.setattr(enumeration, "is_canonical", admits_ties)
    with pytest.raises(VerificationFailureError) as excinfo:
        verify(28)
    assert excinfo.value.field == "trihexes"


@pytest.mark.parametrize(
    "predicate, problem",
    [
        ("is_coinciding", "3-fold symmetry vs automorphism count"),
        ("has_mirror_symmetry", "chirality vs mirror symmetry"),
    ],
)
def test_verify_graphs_reports_flipped_predicate(monkeypatch, predicate, problem):
    reps = trihex_reps(28)
    assert verify_graphs(28, reps) == []
    original = getattr(enumeration, predicate)
    monkeypatch.setattr(enumeration, predicate, lambda sig: not original(sig))
    assert verify_graphs(28, reps) == [f"{rep}: {problem}" for rep in reps]


def test_verify_graphs_reports_wrong_automorphism_count(monkeypatch):
    # doubled counts (24 on a coinciding rep, 8 on the others) keep "divisible
    # by 3 exactly when coinciding", so only the exact count catches them
    reps = trihex_reps(28)
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
    reps = trihex_reps(28)
    real = counting.report(28)
    fake = SimpleNamespace(**{**real._asdict(), field: getattr(real, field) + 1})
    monkeypatch.setattr(counting, "report", lambda v: fake)
    assert verify_graphs(28, reps) == [
        f"classes by automorphism order 24/12/8/4: (0, 1, 2, 0) != {expected}"
    ]


def test_verify_graphs_validates_each_representative_once(monkeypatch):
    reps = trihex_reps(28)
    validated = []
    monkeypatch.setattr(graph, "validate", lambda g: validated.append(g.source))
    assert verify_graphs(28, reps) == []
    assert validated == reps

    def broken(g):
        raise InternalInconsistencyError(f"{g.source}: face census wrong")

    # a representative that fails validation is reported and gets no codes
    monkeypatch.setattr(graph, "validate", broken)
    assert verify_graphs(28, reps) == [
        f"build {rep}: {rep}: face census wrong" for rep in reps
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
