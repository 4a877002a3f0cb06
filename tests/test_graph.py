"""Tests for graph realization, canonical codes, and export formats."""

import json
from collections import Counter

import pytest

from trihex.enumeration import trihex_reps
from trihex.graph import (
    EmbeddedGraph,
    build,
    canonical_code,
    export,
    face_census,
    faces,
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


def _code(g):
    return canonical_code(g).code


def _is_chiral(g):
    return _code(g) != _code(mirror_image(g))


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
    assert _code(a) == _code(b)
    assert _code(a) == _code(c)


def test_tetrahedron_automorphisms():
    cc = canonical_code(build(Signature(0, 0, 0)))
    assert cc.oriented_aut_count == 12


def test_coinciding_signature_has_threefold_symmetry():
    cc = canonical_code(build(Signature(13, 1, 4)))
    assert cc.oriented_aut_count % 3 == 0


def test_aut_count_divides_dart_count():
    for sig in (Signature(0, 0, 0), Signature(2, 0, 0), Signature(13, 1, 4)):
        g = build(sig)
        cc = canonical_code(g)
        assert (3 * g.n) % cc.oriented_aut_count == 0


def test_mirror_signatures_build_mirror_graphs():
    g1 = build(Signature(14, 0, 11))
    g2 = build(Signature(14, 0, 3))
    assert _code(g1) == _code(mirror_image(g2))


def test_self_isomorphism():
    g = build(Signature(3, 1, 2))
    assert canonical_code(g) == canonical_code(g)
    assert canonical_code(mirror_image(g)) == canonical_code(mirror_image(g))


def test_chirality_examples():
    assert not _is_chiral(build(Signature(0, 0, 0)))
    assert not _is_chiral(build(Signature(4, 2, 1)))
    assert _is_chiral(build(Signature(6, 0, 2)))


def test_chirality_matches_mirror_symmetry():
    for v in range(4, 84, 4):
        for rep in trihex_reps(v):
            assert _is_chiral(build(rep)) != has_mirror_symmetry(rep), rep


def test_distinct_reps_build_distinct_graphs():
    for v in (28, 32, 48, 60):
        codes = {_code(build(rep)) for rep in trihex_reps(v)}
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
            cc = canonical_code(build(rep))
            assert (cc.oriented_aut_count % 3 == 0) == is_coinciding(rep), rep


def test_orbit_and_mirror_conventions_agree():
    # building the mirror signature gives the reflected embedding
    for sig in (Signature(6, 0, 2), Signature(3, 1, 2), Signature(5, 2, 1)):
        g = build(sig)
        gm = build(mirror(sig))
        assert _code(mirror_image(g)) == _code(gm)
        if _is_chiral(g):
            assert _code(g) != _code(gm)
    # and building any orbit member gives the same oriented embedding
    for sig in (Signature(5, 3, 2), Signature(7, 1, 3)):
        g = build(sig)
        for member in orbit(sig):
            assert _code(g) == _code(build(member))


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
        assert _code(mirror_image(build(rep))) == _code(build(mirror(rep))), rep


def test_public_codes_match_oriented_codes():
    # the oriented code of the mirror image is the code of the reflected
    # embedding: same automorphism count, and the smaller of the two codes
    # names the class up to reflection, the same for g and its mirror image
    for rep in _reps_upto(120):
        g = build(rep)
        fwd = canonical_code(g)
        bwd = canonical_code(mirror_image(g))
        assert bwd.oriented_aut_count == fwd.oriented_aut_count, rep
        gm = build(mirror(rep))
        assert min(_code(gm), _code(mirror_image(gm))) == min(fwd.code, bwd.code), rep
