"""Realize a signature as an embedded cubic graph, which is its rotation table.

A graph is its rotation table, a `Rotation`: rot[v] lists v's three
neighbors counterclockwise, and nothing else is stored.  `export` takes the
signature as well, for its structured format.

Construction
------------
Hexagon centers of the covering tiling are integer pairs (a, b) over the
basis u = one column step to the NE, d = one hexagon step down.  Tiling
vertices come in two classes per hexagon ("east" and "west"); every east
vertex E(c) has counterclockwise neighbors

    W(c + 2u + d), W(c + u), W(c + u + d),

all of class west.  The centers of the special hexagons form the lattice
L spanned by A = (0, s+1) and B = (b+1, -f) (translating b+1 columns NE
lands f hexagons below the next special hexagon).  The half-turn group
they generate has translation subgroup 2L, and a half-turn sends E(c) to
W(-c), so vertex orbits are indexed by cosets of 2L: the orbit of coset g
is {E(c): c = g} together with {W(c): c = -g}.  Reading every orbit through
its east representative gives the rotation system

    rot(g) = [-g - 2u - d, -g - u, -g - u - d]   (mod 2L),

which is what `build` constructs.  The sign of f in B is the handedness
convention; it is pinned by the mirror-image and equivalent-signature
tests, not by choice.  `build` only constructs, and `validate` checks from
the table alone that it is a trihex.

Every trihex has the half-turns D2 among its automorphisms (the argument
is in `canonical_code`), and `check_half_turns` checks them on a table, so
`canonical_code` and `has_code` root plantri's breadth-first code at the
three darts of one triangle and not at all 3n darts.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .errors import InternalInconsistencyError
from .signature import Signature, vertex_count

Rotation = tuple[tuple[int, int, int], ...]

# Largest graph `build` constructs.  A million vertices, Signature(999, 249, 17),
# take 0.7 s and 180 MiB to build, 3-4 s and 300 MiB with `validate`, 9-10 s
# and 645 MiB through `trihex build --format structured`, and 3.5-4 s and
# 370 MiB through `--format dot` (two runs each, 2-core Xeon VM, Python 3.11).
MAX_VERTICES = 1_000_000


class CanonicalCode(NamedTuple):
    """Relabeling-invariant code of an embedded graph, up to orientation-preserving maps."""

    code: tuple[int, ...]
    oriented_aut_count: int


def build(sig: Signature) -> Rotation:
    """Quotient the hexagonal tiling by the half-turn group of `sig`; `validate` checks the result."""
    n = vertex_count(sig)
    if n > MAX_VERTICES:
        raise ValueError(f"build holds at most {MAX_VERTICES} vertices, got {n}")
    # 2A = (0, h) and 2B = (w, -shear), so (a, b) mod 2L is the coset of
    # (a mod w, (b + q*shear) mod h) with q = a div w, and that is vertex a*h + b
    h, w, shear = 2 * (sig.s + 1), 2 * (sig.b + 1), 2 * sig.f

    def column(a: int, c: int) -> list[int]:
        """Vertex ids of the cosets (a, c - b) for b = 0..h-1."""
        q, a = divmod(a, w)
        c += q * shear
        base = a * h
        return [base + (c - b) % h for b in range(h)]

    rot: list[tuple[int, int, int]] = []
    for a in range(w):
        rot.extend(zip(column(-a - 2, -1), column(-a - 1, 0), column(-a - 1, -1)))
    return tuple(rot)


def _half_turn_translations(sig: Signature) -> tuple[list[int], list[int]]:
    """The vertex permutations of `build(sig)` that translate by A and by B.

    They are computed by `build`'s coset arithmetic, coset (a, y) being
    vertex (a mod w)*h + (y + (a div w)*shear) mod h, and not read off the graph.
    """
    h, w, shear = 2 * (sig.s + 1), 2 * (sig.b + 1), 2 * sig.f

    def translated(da: int, dy: int) -> list[int]:
        perm: list[int] = []
        for a in range(w):
            # column a lands on column a + da, shifted down by dy + q*shear
            q, a = divmod(a + da, w)
            base, k = a * h, (dy + q * shear) % h
            perm.extend(range(base + k, base + h))
            perm.extend(range(base, base + k))
        return perm

    return translated(0, sig.s + 1), translated(sig.b + 1, -sig.f)


def check_half_turns(rot: Rotation, sig: Signature) -> None:
    """Raise unless `build(sig)`'s translations by A and B are distinct, nontrivial automorphisms of rot.

    Each must carry every rotation onto the rotation of the image vertex,
    neighbor for neighbor; with their product they are the half-turns D2
    that `canonical_code` relies on.
    """
    n = len(rot)
    tau_a, tau_b = _half_turn_translations(sig)
    identity = list(range(n))
    if len(tau_a) != n or tau_a == tau_b or not all(
        tau != identity
        # tau of each neighbor, vertex by vertex, against the rotation of tau of each vertex
        and list(map(tau.__getitem__, chain.from_iterable(rot))) == list(chain.from_iterable(map(rot.__getitem__, tau)))
        for tau in (tau_a, tau_b)
    ):
        raise InternalInconsistencyError("half-turn translations are not automorphisms")


def validate(rot: Rotation) -> dict[int, int]:
    """Check from the table alone that rot is a trihex; raise on the first failure.

    It must be simple cubic, symmetric and connected, with 4 triangles and
    n/2 - 2 hexagons, the count Euler's formula leaves for them.  Returns the
    face census it checked, so a caller that also reports it need not trace
    the faces again.
    """
    if not rot:
        raise InternalInconsistencyError("graph has no vertices")
    try:
        for v, nbrs in enumerate(rot):
            if len(set(nbrs)) != 3 or v in nbrs:
                raise InternalInconsistencyError(f"vertex {v} is not simple cubic")
            for w in nbrs:
                if v not in rot[w]:
                    raise InternalInconsistencyError("adjacency not symmetric")
    except IndexError:
        raise InternalInconsistencyError(f"vertex {v} has a neighbor outside 0..{len(rot) - 1}") from None

    seen = {0}
    stack = [0]
    while stack:
        for w in rot[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(rot):
        raise InternalInconsistencyError("graph is not connected")

    census = face_census(rot)
    h = len(rot) // 2 - 2
    expected = {3: 4, 6: h} if h else {3: 4}
    if census != expected:
        raise InternalInconsistencyError(f"face census {census}, wanted 4 triangles, {h} hexagons")
    return census


def faces(rot: Rotation) -> list[list[int]]:
    """Trace the faces of the rotation system; each dart lies on one face.

    The dart (v, rot[v][t]) is marked at index 3v + t, and faces come out in
    the order of their first dart.
    """
    result = []
    seen = bytearray(3 * len(rot))
    for d in range(3 * len(rot)):
        if seen[d]:
            continue
        face = []
        v, t = divmod(d, 3)
        while not seen[d]:
            seen[d] = 1
            face.append(v)
            # leave w by the neighbor after v in w's rotation
            w = rot[v][t]
            t = (rot[w].index(v) + 1) % 3
            v = w
            d = 3 * v + t
        result.append(face)
    return result


def face_census(rot: Rotation) -> dict[int, int]:
    """Number of faces of each length, in ascending order of length."""
    lengths = Counter(len(face) for face in faces(rot))
    return {k: lengths[k] for k in sorted(lengths)}


def mirror_image(rot: Rotation) -> Rotation:
    """The reflected embedding: every rotation reversed, with rot's vertex labels.

    For `build(sig)` it is isomorphic, though not equal, to `build(mirror(sig))`.
    """
    return tuple(nbrs[::-1] for nbrs in rot)


def _code_from(rot: Rotation, start_v: int, start_w: int, target: list[int] | None = None) -> list[int] | None:
    """Breadth-first code of the graph rooted at the dart (start_v, start_w).

    Vertices are numbered in discovery order (start_v is 0 and start_w is
    1); each vertex emits its three neighbors' numbers, reading its rotation
    forwards from the entry edge.  With a `target`, each complete block of 4
    vertices (12 entries) is compared with the same slice of it, and the
    code is abandoned (None) at the first block that differs.  A partial
    last block is never compared, so a returned code can still differ from
    the target when n is not a multiple of 4.
    """
    n = len(rot)
    label = [-1] * n
    label[start_v] = 0
    label[start_w] = 1
    order = [start_v, start_w]
    entry = [start_w, start_v] + [0] * (n - 2)
    code: list[int] = []
    append = code.append
    next_label = 2
    for i in range(n):
        v = order[i]
        a, b, c = rot[v]
        e = entry[i]
        # the entry neighbor e is labeled already; x and y follow it in v's rotation
        if e == a:
            x, y = b, c
        elif e == b:
            x, y = c, a
        else:
            x, y = a, b
        append(label[e])
        lx = label[x]
        if lx < 0:
            lx = label[x] = next_label
            next_label += 1
            order.append(x)
            entry[lx] = v
        append(lx)
        ly = label[y]
        if ly < 0:
            ly = label[y] = next_label
            next_label += 1
            order.append(y)
            entry[ly] = v
        append(ly)
        if target is not None and i % 4 == 3:
            lo = 3 * i - 9
            if code[lo:] != target[lo : lo + 12]:
                return None
    return code


def _triangle_roots(rot: Rotation) -> list[tuple[int, int]]:
    """The three darts of the first triangular face that a corner scan finds, or none.

    The dart (p, w) is on one when its face closes after three steps: q
    follows p in w's rotation, p follows w in q's, and w follows q in p's,
    and then (w, q) and (q, p) are the face's other two darts.  A 3-cycle
    that is not a face fails one of the last two.  Only a vertex with two
    adjacent neighbors has its three corners checked.
    """
    for w, (x, y, z) in enumerate(rot):
        if x in rot[z] or y in rot[x] or z in rot[y]:
            for p, q in ((z, x), (x, y), (y, z)):
                rq, rp = rot[q], rot[p]
                # rot[u][j - 2] is the neighbor after rot[u][j]
                if rq[rq.index(w) - 2] == p and rp[rp.index(q) - 2] == w:
                    return [(p, w), (w, q), (q, p)]
    return []


def canonical_code(rot: Rotation) -> CanonicalCode:
    """Oriented canonical code of a trihex and its number of orientation-preserving automorphisms.

    The code is the least breadth-first code rooted at one of the 12 darts on
    the four triangles.  Isomorphisms map triangles to triangles, so that
    minimum is canonical (plantri's rooted code on an invariant dart set;
    Brinkmann & McKay, *Fast generation of planar graphs*, 2007), and the
    roots that tie for it are one orbit of the automorphisms.  Only the three
    darts of one triangle, the first that a corner scan finds, are coded,
    because rot is a trihex and so has the half-turns D2 among its
    automorphisms:

    - in `build`'s quotient, translating by a vector t of L sends the coset
      c of 2L to c + t and rot(c) to rot(c) - t, which is rot(c) + t mod 2L;
      so the translations by A, B and A + B are orientation-preserving
      automorphisms, and involutions because 2t lies in 2L: with the
      identity they are D2 (`check_half_turns` checks them on a table);
    - a nontrivial orientation-preserving automorphism fixes no dart;
    - so an involution cannot map a triangle to itself, since on the
      triangle's three darts it would be a rotation of order 1 or 3, and so
      fix them all;
    - so D2 acts simply transitively on the four triangles, and each D2
      orbit of the 12 triangle darts meets every triangle exactly once.

    Codes are constant on orbits, so the least code over the three roots is
    the least over all 12, and the darts that tie for it are a union of D2
    orbits: 4 times the roots that tie here.  The domain is trihexes; on a
    graph without D2 the result means nothing.  Two trihexes are isomorphic
    by an orientation-preserving map exactly when their codes are equal.
    The code of the reflected embedding is `canonical_code(mirror_image(rot))`:
    rot is chiral when the two differ, and the smaller one names its class up
    to reflection.  A graph with no triangular face raises ValueError.
    """
    roots = _triangle_roots(rot)
    if not roots:
        raise ValueError("canonical_code needs a triangular face, and the graph has none")
    codes = [_code_from(rot, v, w) for v, w in roots]
    best = min(codes)
    return CanonicalCode(tuple(best), 4 * codes.count(best))


def has_code(rot: Rotation, code: tuple[int, ...]) -> bool:
    """Whether the code rooted at one of the three darts `canonical_code` codes equals `code`.

    Each root is abandoned at its first block of 4 vertices that differs
    from `code`, above or below it, and the search stops at the first match.
    For a trihex rot and a canonical code this is the same test as
    `canonical_code(rot).code == code`, by the D2 argument of `canonical_code`.
    """
    target = list(code)
    return any(_code_from(rot, v, w, target) == target for v, w in _triangle_roots(rot))


def check_export(n: int, format: str) -> None:
    """Raise ValueError when a graph of n vertices does not fit `format`; `export` calls it first."""
    if format == "planar_code" and n > 65535:
        raise ValueError(f"planar_code holds at most 65535 vertices (2-byte entries), got {n}")


def export(rot: Rotation, sig: Signature, format: str, census: dict[int, int] | None = None) -> bytes:
    """Serialize rot, the graph `build(sig)` returns, as planar_code, dot, or structured JSON text.

    The structured format holds the signature and the face census; pass the
    census `validate` returned to skip tracing the faces again.
    """
    n = len(rot)
    check_export(n, format)
    if format == "planar_code":
        out = bytearray(b">>planar_code<<")
        if n <= 255:
            out.append(n)
            for nbrs in rot:
                out.extend(w + 1 for w in nbrs)
                out.append(0)
        else:
            out.append(0)
            out.extend(n.to_bytes(2, "little"))
            for nbrs in rot:
                for w in nbrs:
                    out.extend((w + 1).to_bytes(2, "little"))
                out.extend((0).to_bytes(2, "little"))
        return bytes(out)
    if format == "dot":
        lines = ["graph trihex {"]
        lines.extend(f"  {v} -- {w};" for v in range(n) for w in rot[v] if v < w)
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    if format == "structured":
        census = face_census(rot) if census is None else census
        doc = {
            "n": n,
            "signature": list(sig),
            "rot": [list(nbrs) for nbrs in rot],
            "faces": {str(k): count for k, count in census.items()},
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise ValueError(f"unknown export format: {format!r}")
