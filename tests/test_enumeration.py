"""Tests for constructive enumeration against the closed-form counts."""

import pytest

from trihex import enumeration
from trihex.counting import mu, nu
from trihex.enumeration import (
    all_signatures,
    coinciding_signatures,
    graph_class_reps,
    self_mirror_signatures,
    trihex_reps,
    verify,
    verify_graphs,
)
from trihex.errors import VerificationFailureError
from trihex.signature import (
    Signature,
    has_mirror_symmetry,
    is_coinciding,
    orbit,
    vertex_count,
)


def test_all_signatures_examples():
    assert all_signatures(4) == [Signature(0, 0, 0)]
    assert all_signatures(28) == [Signature(0, 6, 0)] + [
        Signature(6, 0, f) for f in range(7)
    ]
    # frozen from a raw divisor-pair scan
    assert [s.as_tuple() for s in all_signatures(16)] == [
        (0, 3, 0), (1, 1, 0), (1, 1, 1), (3, 0, 0), (3, 0, 1), (3, 0, 2), (3, 0, 3),
    ]


def test_all_signatures_sorted_and_complete():
    for v in (24, 36, 48, 144):
        sigs = all_signatures(v)
        assert sigs == sorted(sigs)
        assert len(sigs) == len(set(sigs))
        assert all(vertex_count(s) == v for s in sigs)


def test_rejects_invalid_vertex_count():
    for fn in (all_signatures, trihex_reps, coinciding_signatures,
               self_mirror_signatures, graph_class_reps, verify):
        with pytest.raises(ValueError):
            fn(6)


def test_trihex_reps_examples():
    assert trihex_reps(4) == [Signature(0, 0, 0)]
    assert len(trihex_reps(28)) == 4
    reps32 = trihex_reps(32)
    assert len(reps32) == 5
    assert Signature(1, 3, 0) in reps32


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
        result = verify(v)
        assert result.V == v


def test_verify_streams_match_public_streams():
    # verify builds the representative and class streams in one pass; they
    # must equal the streams `enumerate` prints
    for v in range(4, 404, 4):
        result = verify(v)
        assert list(result.trihex_reps) == trihex_reps(v), v
        assert list(result.graph_class_reps) == graph_class_reps(v), v


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
        assert len(mirror_reps) == mu(v), v
        both = [r for r in mirror_reps if is_coinciding(r)]
        assert len(both) == nu(v), v


def test_verification_failure_reports_field():
    err = VerificationFailureError(28, "sigma", 8, 7)
    assert err.v == 28
    assert err.field == "sigma"
    assert "expected 8" in str(err)
