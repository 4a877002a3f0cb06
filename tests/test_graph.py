"""Tests for graph realization, canonical codes, and export formats."""

import json
from collections import Counter

import pytest

from trihex.enumeration import trihex_reps
from trihex.graph import (
    EmbeddedGraph,
    are_isomorphic,
    build,
    canonical_code,
    export,
    face_census,
    faces,
    is_chiral,
    mirror_image,
)
from trihex.signature import (
    Signature,
    has_mirror_symmetry,
    hexagon_count,
    is_coinciding,
    mirror,
    orbit,
)


def test_build_tetrahedron():
    g = build(Signature(0, 0, 0))
    assert g.n == 4
    assert sorted(len(f) for f in faces(g)) == [3, 3, 3, 3]
    # K4: every vertex adjacent to the other three
    for v, nbrs in enumerate(g.rot):
        assert sorted(nbrs) == sorted(set(range(4)) - {v})


def test_build_large_example():
    g = build(Signature(6, 2, 1))
    assert g.n == 84
    census = Counter(len(f) for f in faces(g))
    assert census == {3: 4, 6: 40}
    assert list(face_census(g).items()) == [(3, 4), (6, 40)]
    assert list(face_census(build(Signature(0, 0, 0))).items()) == [(3, 4)]


def test_faces_cover_every_dart():
    for sig in (Signature(0, 0, 0), Signature(3, 1, 2), Signature(6, 2, 1)):
        g = build(sig)
        assert sum(len(f) for f in faces(g)) == 3 * g.n
        assert len(faces(g)) == 4 + hexagon_count(sig)


def test_equivalent_signatures_build_isomorphic_graphs():
    a = build(Signature(3, 1, 2))
    b = build(Signature(3, 1, 0))
    c = build(Signature(1, 3, 0))
    assert are_isomorphic(a, b, allow_reflection=False)
    assert are_isomorphic(a, c, allow_reflection=False)


def test_tetrahedron_automorphisms():
    cc = canonical_code(build(Signature(0, 0, 0)), use_reflection=False)
    assert cc.oriented_aut_count == 12
    assert not cc.reflective


def test_coinciding_signature_has_threefold_symmetry():
    cc = canonical_code(build(Signature(13, 1, 4)), use_reflection=False)
    assert cc.oriented_aut_count % 3 == 0


def test_aut_count_divides_dart_count():
    for sig in (Signature(0, 0, 0), Signature(2, 0, 0), Signature(13, 1, 4)):
        g = build(sig)
        cc = canonical_code(g, use_reflection=False)
        assert (3 * g.n) % cc.oriented_aut_count == 0


def test_mirror_signatures_build_mirror_graphs():
    g1 = build(Signature(14, 0, 11))
    g2 = build(Signature(14, 0, 3))
    assert are_isomorphic(g1, g2, allow_reflection=True)


def test_self_isomorphism():
    g = build(Signature(3, 1, 2))
    assert are_isomorphic(g, g, allow_reflection=False)
    assert are_isomorphic(g, g, allow_reflection=True)


def test_chirality_examples():
    assert not is_chiral(build(Signature(0, 0, 0)))
    assert not is_chiral(build(Signature(4, 2, 1)))
    assert is_chiral(build(Signature(6, 0, 2)))


def test_chirality_matches_mirror_symmetry():
    for v in range(4, 84, 4):
        for rep in trihex_reps(v):
            assert is_chiral(build(rep)) != has_mirror_symmetry(rep), rep


def test_distinct_reps_build_distinct_graphs():
    for v in (28, 32, 48, 60):
        codes = {
            canonical_code(build(rep), use_reflection=False).code
            for rep in trihex_reps(v)
        }
        assert len(codes) == len(trihex_reps(v))


def test_build_rejects_nothing_but_validates():
    # build output always satisfies the embedded-graph invariants; spot-check
    # the stored rotation is a tuple of 3-tuples
    g = build(Signature(5, 1, 2))
    assert isinstance(g, EmbeddedGraph)
    assert all(len(nbrs) == 3 for nbrs in g.rot)


def test_planar_code_tetrahedron_bytes():
    g = build(Signature(0, 0, 0))
    data = export(g, "planar_code")
    header = b">>planar_code<<"
    assert data.startswith(header)
    body = data[len(header):]
    assert len(body) == 1 + 4 * 4
    assert body[0] == 4
    # each vertex: three neighbors (1-based), then a 0 terminator
    for v in range(4):
        entry = body[1 + 4 * v : 5 + 4 * v]
        assert entry[3] == 0
        assert sorted(entry[:3]) == sorted(set(range(1, 5)) - {v + 1})


def test_planar_code_wide_entries():
    g = build(Signature(69, 0, 0))  # 280 vertices forces two-byte entries
    data = export(g, "planar_code")
    body = data[len(b">>planar_code<<"):]
    assert body[0] == 0
    assert int.from_bytes(body[1:3], "little") == g.n
    assert len(body) == 1 + 2 + 2 * 4 * g.n


def test_dot_edge_lines():
    g = build(Signature(6, 2, 1))
    text = export(g, "dot").decode()
    edge_lines = [line for line in text.splitlines() if "--" in line]
    assert len(edge_lines) == 3 * g.n // 2


def test_structured_export():
    g = build(Signature(6, 2, 1))
    doc = json.loads(export(g, "structured"))
    assert doc["n"] == 84
    assert doc["signature"] == [6, 2, 1]
    assert doc["faces"] == {"3": 4, "6": 40}
    assert len(doc["rot"]) == 84


def test_export_rejects_unknown_format():
    g = build(Signature(0, 0, 0))
    with pytest.raises(ValueError):
        export(g, "gml")


def test_full_correspondence_small_sweep():
    # 3-fold symmetry <-> coinciding signature, for every representative
    for v in range(4, 64, 4):
        for rep in trihex_reps(v):
            cc = canonical_code(build(rep), use_reflection=False)
            assert (cc.oriented_aut_count % 3 == 0) == is_coinciding(rep), rep


def test_orbit_and_mirror_conventions_agree():
    # building the mirror signature gives the reflected embedding
    for sig in (Signature(6, 0, 2), Signature(3, 1, 2), Signature(5, 2, 1)):
        g = build(sig)
        gm = build(mirror(sig))
        assert are_isomorphic(g, gm, allow_reflection=True)
        if is_chiral(g):
            assert not are_isomorphic(g, gm, allow_reflection=False)
    # and building any orbit member gives the same oriented embedding
    for sig in (Signature(5, 3, 2), Signature(7, 1, 3)):
        g = build(sig)
        for member in orbit(sig).members():
            assert are_isomorphic(g, build(member), allow_reflection=False)


def _reps_upto(v_max):
    for v in range(4, v_max + 4, 4):
        yield from trihex_reps(v)


def test_mirror_image_is_an_involution():
    for sig in (Signature(0, 0, 0), Signature(6, 0, 2), Signature(5, 2, 1), Signature(13, 1, 4)):
        g = build(sig)
        assert mirror_image(g).source == mirror(sig)
        assert mirror_image(mirror_image(g)) == g


def test_mirror_image_realizes_mirror_signature():
    # reading the reversed rotations forwards is the backward reading of g,
    # and it must give the graph the mirror signature builds
    for rep in _reps_upto(120):
        assert (
            canonical_code(mirror_image(build(rep)), use_reflection=False).code
            == canonical_code(build(mirror(rep)), use_reflection=False).code
        ), rep


def test_public_codes_match_oriented_codes():
    # is_chiral and the reflective canonical code are the two oriented codes
    # of g and of its mirror image, compared and minimized
    for rep in _reps_upto(120):
        g = build(rep)
        fwd = canonical_code(g, use_reflection=False)
        bwd = canonical_code(mirror_image(g), use_reflection=False)
        refl = canonical_code(g, use_reflection=True)
        assert is_chiral(g) == (fwd.code != bwd.code), rep
        assert refl.code == min(fwd.code, bwd.code), rep
        assert refl.reflective == (bwd.code < fwd.code), rep
        assert refl.oriented_aut_count == fwd.oriented_aut_count, rep
