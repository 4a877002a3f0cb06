"""Realize a signature as an embedded cubic graph (rotation system).

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
tests, not by choice.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .signature import Signature, hexagon_count, mirror, vertex_count

Rotation = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class EmbeddedGraph:
    """A cubic rotation system together with the signature it realizes."""

    n: int
    rot: Rotation
    source: Signature


@dataclass(frozen=True)
class CanonicalCode:
    """Relabeling-invariant code of an embedded graph, up to orientation-preserving maps."""

    code: tuple[int, ...]
    oriented_aut_count: int


class _CosetIndex:
    """Bijection between cosets of 2L and vertex ids 0..4(s+1)(b+1)-1."""

    def __init__(self, sig: Signature):
        self.height = 2 * (sig.s + 1)
        self.width = 2 * (sig.b + 1)
        self.shear = -2 * sig.f

    def index(self, a: int, b: int) -> int:
        q, a = divmod(a, self.width)
        b = (b - q * self.shear) % self.height
        return a * self.height + b


def build(sig: Signature) -> EmbeddedGraph:
    """Quotient the hexagonal tiling by the half-turn group of `sig`."""
    coset = _CosetIndex(sig)
    n = vertex_count(sig)
    rot = []
    for a in range(coset.width):
        for b in range(coset.height):
            rot.append(
                (
                    coset.index(-a - 2, -b - 1),
                    coset.index(-a - 1, -b),
                    coset.index(-a - 1, -b - 1),
                )
            )
    # vertex id of (a, b) is a*height + b, matching the fill order above
    graph = EmbeddedGraph(n=n, rot=tuple(rot), source=sig)
    _validate(graph)
    return graph


def _validate(g: EmbeddedGraph) -> None:
    """Check degree, adjacency symmetry, connectivity, Euler, and face census."""
    if len(g.rot) != g.n:
        raise InternalInconsistencyError(f"{g.source}: rotation table has wrong size")
    for v, nbrs in enumerate(g.rot):
        if len(set(nbrs)) != 3 or v in nbrs:
            raise InternalInconsistencyError(f"{g.source}: vertex {v} is not simple cubic")
        for w in nbrs:
            if v not in g.rot[w]:
                raise InternalInconsistencyError(f"{g.source}: adjacency not symmetric")

    seen = {0}
    stack = [0]
    while stack:
        for w in g.rot[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != g.n:
        raise InternalInconsistencyError(f"{g.source}: graph is not connected")

    census = face_census(g)
    h = hexagon_count(g.source)
    expected = {3: 4, 6: h} if h else {3: 4}
    if census != expected:
        raise InternalInconsistencyError(f"{g.source}: face census {census}, wanted 4 triangles, {h} hexagons")
    if g.n - (3 * g.n) // 2 + (4 + h) != 2:
        raise InternalInconsistencyError(f"{g.source}: Euler check failed")


def faces(g: EmbeddedGraph) -> list[list[int]]:
    """Trace the faces of the rotation system; each dart lies on one face."""
    result = []
    seen: set[tuple[int, int]] = set()
    for v0 in range(g.n):
        for w0 in g.rot[v0]:
            if (v0, w0) in seen:
                continue
            face = []
            v, w = v0, w0
            while (v, w) not in seen:
                seen.add((v, w))
                face.append(v)
                nbrs = g.rot[w]
                v, w = w, nbrs[(nbrs.index(v) + 1) % 3]
            result.append(face)
    return result


def face_census(g: EmbeddedGraph) -> dict[int, int]:
    """Number of faces of each length, in ascending order of length."""
    lengths = Counter(len(face) for face in faces(g))
    return {k: lengths[k] for k in sorted(lengths)}


def mirror_image(g: EmbeddedGraph) -> EmbeddedGraph:
    """The reflected embedding: every rotation reversed, realizing the mirror signature."""
    return EmbeddedGraph(n=g.n, rot=tuple(nbrs[::-1] for nbrs in g.rot), source=mirror(g.source))


def _code_from(rot: Rotation, start_v: int, start_w: int, best: list[int] | None) -> list[int] | None:
    """Breadth-first code of the graph rooted at the dart (start_v, start_w).

    Vertices are numbered in discovery order; each vertex emits its three
    neighbors' numbers, reading its rotation forwards from the entry edge.
    When `best` is given, construction aborts with None as soon as the code
    is lexicographically above it.
    """
    n = len(rot)
    label = [-1] * n
    label[start_v] = 0
    order = [start_v]
    entry = [start_w] + [0] * (n - 1)
    code: list[int] = []
    next_label = 1
    still_tied = best is not None
    for i in range(n):
        v = order[i]
        nbrs = rot[v]
        j = nbrs.index(entry[i])
        for t in range(3):
            x = nbrs[(j + t) % 3]
            lx = label[x]
            if lx < 0:
                lx = label[x] = next_label
                next_label += 1
                order.append(x)
                entry[lx] = v
            pos = len(code)
            code.append(lx)
            if still_tied:
                if lx > best[pos]:
                    return None
                if lx < best[pos]:
                    still_tied = False
    return code


def _min_code(rot: Rotation) -> tuple[list[int], int]:
    """Lexicographically minimal code over all starting darts, with its multiplicity."""
    best: list[int] | None = None
    count = 0
    for v in range(len(rot)):
        for w in rot[v]:
            code = _code_from(rot, v, w, best)
            if code is None:
                continue
            if best is None or code < best:
                best, count = code, 1
            elif code == best:
                count += 1
    assert best is not None
    return best, count


def canonical_code(g: EmbeddedGraph) -> CanonicalCode:
    """Oriented canonical code of g and its number of orientation-preserving automorphisms.

    Two embedded graphs are isomorphic by an orientation-preserving map
    exactly when their codes are equal.  The code of the reflected
    embedding is `canonical_code(mirror_image(g))`: g is chiral when the
    two differ, and the smaller one names g's class up to reflection.
    """
    code, count = _min_code(g.rot)
    return CanonicalCode(tuple(code), count)


def _planar_code_bytes(g: EmbeddedGraph) -> bytes:
    out = bytearray(b">>planar_code<<")
    if g.n <= 255:
        out.append(g.n)
        for nbrs in g.rot:
            out.extend(w + 1 for w in nbrs)
            out.append(0)
    else:
        out.append(0)
        out.extend(g.n.to_bytes(2, "little"))
        for nbrs in g.rot:
            for w in nbrs:
                out.extend((w + 1).to_bytes(2, "little"))
            out.extend((0).to_bytes(2, "little"))
    return bytes(out)


def _dot_bytes(g: EmbeddedGraph) -> bytes:
    lines = ["graph trihex {"]
    lines.extend(
        f"  {v} -- {w};" for v in range(g.n) for w in g.rot[v] if v < w
    )
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def _structured_bytes(g: EmbeddedGraph) -> bytes:
    doc = {
        "n": g.n,
        "signature": list(g.source.as_tuple()),
        "rot": [list(nbrs) for nbrs in g.rot],
        "faces": {str(k): count for k, count in face_census(g).items()},
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def export(g: EmbeddedGraph, format: str) -> bytes:
    """Serialize g as planar_code, dot, or structured JSON text."""
    if format == "planar_code":
        return _planar_code_bytes(g)
    if format == "dot":
        return _dot_bytes(g)
    if format == "structured":
        return _structured_bytes(g)
    raise ValueError(f"unknown export format: {format!r}")
