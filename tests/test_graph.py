"""Tests for graph realization, canonical codes, and export formats."""

import json
from collections import Counter

import pytest

import oracles
from trihex import graph
from trihex.enumeration import all_signatures, trihex_reps
from trihex.errors import InternalInconsistencyError
from trihex.graph import (
    CanonicalCode,
    _code_from,
    _half_turn_translations,
    _triangle_roots,
    build,
    canonical_code,
    check_half_turns,
    export,
    face_census,
    faces,
    has_code,
    mirror_image,
    validate,
)
from trihex.signature import (
    Signature,
    has_mirror_symmetry,
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
    assert len(g) == 4
    assert sorted(len(f) for f in faces(g)) == [3, 3, 3, 3]
    # K4: every vertex adjacent to the other three
    for v, nbrs in enumerate(g):
        assert sorted(nbrs) == sorted(set(range(4)) - {v})


def test_build_large_example():
    g = build(Signature(6, 2, 1))
    assert len(g) == 84
    census = Counter(len(f) for f in faces(g))
    assert census == {3: 4, 6: 40}
    assert list(face_census(g).items()) == [(3, 4), (6, 40)]
    assert list(face_census(build(Signature(0, 0, 0))).items()) == [(3, 4)]


def test_faces_cover_every_dart():
    for sig in (Signature(0, 0, 0), Signature(3, 1, 2), Signature(6, 2, 1)):
        g = build(sig)
        assert sum(len(f) for f in faces(g)) == 3 * len(g)
        assert len(faces(g)) == 4 + oracles.hexagon_count(sig)


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
        assert (3 * len(g)) % cc.oriented_aut_count == 0


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
        assert len(codes) == len(list(trihex_reps(v)))


def test_build_matches_coset_index_oracle():
    # one coset reduction per neighbor, against each neighbor column computed once
    for v in range(4, 404, 4):
        for sig in all_signatures(v):
            assert build(sig) == oracles.build_rot(sig), sig


def _is_automorphism(rot, perm):
    # perm carries each vertex's rotation onto its image's, neighbor for neighbor
    return [rot[p] for p in perm] == [(perm[x], perm[y], perm[z]) for x, y, z in rot]


def test_half_turn_translations_are_automorphisms():
    # every trihex has D2: the translations by A = (0, s+1) and B = (b+1, -f),
    # read through the coset index, are two distinct nontrivial involutions
    # that carry each rotation onto the rotation of the image vertex
    for v in range(4, 404, 4):
        for sig in all_signatures(v):
            coset = oracles._CosetIndex(sig)
            # coset (a, y) with a < width and y < height is vertex a*height + y
            cosets = [(a, y) for a in range(coset.width) for y in range(coset.height)]
            assert [coset.index(a, y) for a, y in cosets] == list(range(v)), sig
            tau_a = [coset.index(a, y + sig.s + 1) for a, y in cosets]
            tau_b = [coset.index(a + sig.b + 1, y - sig.f) for a, y in cosets]
            rot = build(sig)
            identity = list(range(v))
            assert tau_a != tau_b, sig
            for tau in (tau_a, tau_b):
                assert tau != identity and [tau[t] for t in tau] == identity, sig
                assert _is_automorphism(rot, tau), sig
            assert _half_turn_translations(sig) == (tau_a, tau_b), sig
            check_half_turns(rot, sig)


def test_half_turn_check_depends_on_labels():
    # mirror_image(g) keeps g's vertex labels, so the translations of the
    # mirror signature, read through the labels `build` gives it, are not
    # automorphisms of mirror_image(g), while those of g's own signature are
    checked = 0
    for rep in _reps_upto(120):
        if mirror(rep) == rep:
            continue
        reflected = mirror_image(build(rep))
        check_half_turns(reflected, rep)
        with pytest.raises(InternalInconsistencyError, match="^half-turn translations are not automorphisms$"):
            check_half_turns(reflected, mirror(rep))
        checked += 1
    assert checked == 183
    # a graph with another vertex count is refused, not indexed out of range
    with pytest.raises(InternalInconsistencyError, match="^half-turn"):
        check_half_turns(build(Signature(1, 0, 0)), Signature(0, 0, 0))


def test_build_rejects_nothing_but_validates():
    # build output always satisfies the embedded-graph invariants; spot-check
    # that the graph is a tuple of 3-tuples
    g = build(Signature(5, 1, 2))
    validate(g)
    assert type(g) is tuple and all(type(nbrs) is tuple and len(nbrs) == 3 for nbrs in g)


def _with_rotation(g, v, nbrs):
    return g[:v] + (nbrs,) + g[v + 1 :]


def test_validate_rejects_broken_rotation_systems():
    tetra = build(Signature(0, 0, 0))
    g8 = build(Signature(1, 0, 0))
    assert g8[0] == (3, 4, 7) and 0 not in g8[1]
    two_tetrahedra = tetra + tuple(tuple(w + 4 for w in nbrs) for nbrs in tetra)
    # an 8-vertex hexagonal torus next to tetra: E(c) ~ W(c + o) for o in
    # (2,1), (1,0), (1,1) over Z^2/2Z^2, with E(a, b) at 4 + 2a + b and W(a, b) at 8 + 2a + b
    cosets, offsets = [(0, 0), (0, 1), (1, 0), (1, 1)], [(2, 1), (1, 0), (1, 1)]
    east = [tuple(8 + 2 * ((a + x) % 2) + (b + y) % 2 for x, y in offsets) for a, b in cosets]
    west = [tuple(4 + 2 * ((a - x) % 2) + (b - y) % 2 for x, y in offsets) for a, b in cosets]
    tetra_and_torus = tetra + tuple(east) + tuple(west)
    # simple, cubic and symmetric with 4 triangles and 12/2 - 2 hexagons: only connectivity fails
    assert face_census(tetra_and_torus) == {3: 4, 6: 4}
    g = build(Signature(6, 2, 1))
    cases = [
        ((), "graph has no vertices"),
        (_with_rotation(tetra, 0, (1, 1, 2)), "vertex 0 is not simple cubic"),
        (_with_rotation(tetra, 0, (1, 2, 4)), r"vertex 0 has a neighbor outside 0\.\.3"),
        (_with_rotation(g8, 0, (1, 4, 7)), "adjacency not symmetric"),
        (two_tetrahedra, "graph is not connected"),
        (tetra_and_torus, "graph is not connected"),
        (
            _with_rotation(g, 0, g[0][::-1]),
            r"face census \{3: 3, 6: 38, 15: 1\}, wanted 4 triangles, 40 hexagons",
        ),
    ]
    for broken, message in cases:
        with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
            validate(broken)


def test_planar_code_tetrahedron_bytes():
    sig = Signature(0, 0, 0)
    data = export(build(sig), sig, "planar_code")
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
    sig = Signature(69, 0, 0)  # 280 vertices forces two-byte entries
    g = build(sig)
    data = export(g, sig, "planar_code")
    body = data[len(b">>planar_code<<"):]
    assert body[0] == 0
    assert int.from_bytes(body[1:3], "little") == len(g)
    assert len(body) == 1 + 2 + 2 * 4 * len(g)


def test_planar_code_export_refuses_more_than_65535_vertices():
    # export checks the size itself; the rotations are never read
    g = ((0, 0, 0),) * 65536
    message = "^planar_code holds at most 65535 vertices \\(2-byte entries\\), got 65536$"
    with pytest.raises(ValueError, match=message):
        export(g, Signature(16383, 0, 0), "planar_code")


def test_dot_edge_lines():
    sig = Signature(6, 2, 1)
    g = build(sig)
    text = export(g, sig, "dot").decode()
    edge_lines = [line for line in text.splitlines() if "--" in line]
    assert len(edge_lines) == 3 * len(g) // 2


def test_structured_export():
    sig = Signature(6, 2, 1)
    doc = json.loads(export(build(sig), sig, "structured"))
    assert doc["n"] == 84
    assert doc["signature"] == [6, 2, 1]
    assert doc["faces"] == {"3": 4, "6": 40}
    assert len(doc["rot"]) == 84


def test_export_rejects_unknown_format():
    sig = Signature(0, 0, 0)
    with pytest.raises(ValueError):
        export(build(sig), sig, "gml")


def test_full_correspondence_small_sweep():
    # 3-fold symmetry <-> coinciding signature, for every representative: the
    # rotation group is T (12) exactly for coinciding signatures, else D2 (4)
    for v in range(4, 64, 4):
        for rep in trihex_reps(v):
            cc = canonical_code(build(rep))
            assert cc.oriented_aut_count == (12 if is_coinciding(rep) else 4), rep


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


def test_triangle_rooted_code_matches_all_darts_oracle():
    # rooting the code at the 12 triangle darts gives the same code and the
    # same automorphism count as the minimum over all 3n darts
    for rep in _reps_upto(240):
        g = build(rep)
        for h in (g, mirror_image(g)):
            code, count = oracles._min_code(h)
            assert canonical_code(h) == CanonicalCode(tuple(code), count), rep


# a triangular prism: two triangles and three quadrilaterals, n = 6, so the
# last block of a code (vertices 4 and 5) is never compared with a target
PRISM = ((1, 2, 3), (2, 0, 4), (0, 1, 5), (5, 4, 0), (3, 5, 1), (4, 3, 2))
# the prism with vertex 3's rotation reversed, an embedding on the torus with
# one triangle; neither prism has the half-turns D2 of a trihex, so they test
# the corner scan and `_code_from`, not `canonical_code`
TWISTED_PRISM = PRISM[:3] + ((0, 4, 5),) + PRISM[4:]
CUBE = ((1, 3, 4), (2, 0, 5), (3, 1, 6), (0, 2, 7), (7, 5, 0), (4, 6, 1), (5, 7, 2), (6, 4, 3))


def _step(rot, v, w):
    nbrs = rot[w]
    return w, nbrs[(nbrs.index(v) + 1) % 3]


def _darts_on_a_triangle(rot):
    # a dart is on a triangle when three face steps return to it
    darts = []
    for v in range(len(rot)):
        for w in rot[v]:
            d = (v, w)
            for _ in range(3):
                d = _step(rot, *d)
            if d == (v, w):
                darts.append((v, w))
    return darts


def test_triangle_darts_match_face_walk_oracle():
    # the corner scan returns the three darts of one face that closes after three steps
    graphs = [PRISM, mirror_image(PRISM), TWISTED_PRISM, mirror_image(TWISTED_PRISM)]
    for rep in _reps_upto(240):
        g = build(rep)
        graphs += [g, mirror_image(g)]
    for h in graphs:
        roots = _triangle_roots(h)
        assert len(roots) == 3 and set(roots) <= set(_darts_on_a_triangle(h)), h
        assert [_step(h, *d) for d in roots] == roots[1:] + roots[:1], h
    assert _triangle_roots(CUBE) == []


def test_prism_and_cube_faces():
    assert sorted(len(f) for f in faces(PRISM)) == [3, 3, 4, 4, 4]
    assert sorted(len(f) for f in faces(TWISTED_PRISM)) == [3, 4, 11]
    assert sorted(len(f) for f in faces(CUBE)) == [4] * 6


def test_canonical_code_without_triangle_raises():
    with pytest.raises(ValueError, match="^canonical_code needs a triangular face, and the graph has none$"):
        canonical_code(CUBE)
    assert not has_code(CUBE, tuple(_code_from(CUBE, 0, 1)))


def test_canonical_code_is_least_unbounded_triangle_code():
    # coding one triangle's three darts changes neither the least code over
    # all 12 triangle darts nor the number of those 12 that tie for it
    graphs = []
    for rep in _reps_upto(120):
        g = build(rep)
        graphs += [g, mirror_image(g)]
    for h in graphs:
        codes = [_code_from(h, v, w) for v, w in _darts_on_a_triangle(h)]
        assert len(codes) == 12, h
        best = min(codes)
        assert canonical_code(h) == CanonicalCode(tuple(best), codes.count(best)), h


def test_bounded_code_is_none_or_the_full_code():
    # a code with a target is abandoned exactly when its first entry that
    # differs from the target lies in a complete block of 4 vertices
    graphs = [PRISM, TWISTED_PRISM, CUBE]
    for rep in _reps_upto(24):
        g = build(rep)
        graphs += [g, mirror_image(g)]
    for h in graphs:
        compared = 12 * (len(h) // 4)
        roots = [(v, w) for v in range(len(h)) for w in h[v]]
        codes = [_code_from(h, *root) for root in roots]
        for root, code in zip(roots, codes):
            for target in codes:
                got = _code_from(h, *root, target)
                first = next((k for k in range(len(code)) if code[k] != target[k]), len(code))
                if first < compared:
                    assert got is None, (h, root)
                else:
                    assert got == code, (h, root)


def test_has_code_abandons_roots_below_the_target(monkeypatch):
    # a graph whose canonical code is below the target has every root
    # abandoned at its first block that differs, none coded to the end
    calls = []

    def recorded(*args, **kwargs):
        calls.append(_code_from(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(graph, "_code_from", recorded)
    graphs = sorted((build(rep) for rep in trihex_reps(48)), key=_code)
    assert len(graphs) == 10
    for i, low in enumerate(graphs):
        for high in graphs[i + 1 :]:
            target = _code(high)
            assert _code(low) < target
            calls.clear()
            assert not has_code(low, target)
            assert calls == [None] * 3, low


def test_has_code_finds_orbit_members_and_only_them():
    for v in range(4, 244, 4):
        reps = list(trihex_reps(v))
        graphs = [build(rep) for rep in reps]
        for rep, g in zip(reps, graphs):
            code = canonical_code(g).code
            assert all(has_code(build(member), code) for member in orbit(rep)), rep
            assert not any(has_code(other, code) for other in graphs if other is not g), rep
