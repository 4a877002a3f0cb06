"""The signature calculus for trihexes.

A trihex is identified by a triple (s, b, f): spine length, belt count, and
offset, with the offset stored canonically in [0, s] (it is a residue class
mod s+1).  The triple names the sublattice L = <(0, s+1), (b+1, -f)> of the
hexagonal lattice that `graph` quotients by, in the (a, y) coordinates of
its (u, d) basis, and (s, b, f) is read off the Hermite normal form (HNF)
of L: the unique basis (b+1, -f), (0, s+1) with b+1 >= 1 and 0 <= f <= s.
A trihex has one such triple per spine direction; `orbit` returns the
three as a tuple, the triple itself first: the HNFs of L rotated by 0, 60
and 120 degrees (Thurston, "Shapes of polyhedra", 1998).
The mirror image is the HNF of L reflected by (a, y) -> (a, a - y), which
swaps the offset f for (s - b - f) mod (s+1); a signature is self-mirror
when `mirror(sig) == sig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Signature:
    """Triple (s, b, f) with 0 <= f <= s; ordering is lexicographic."""

    s: int
    b: int
    f: int

    def __post_init__(self):
        if self.s < 0 or self.b < 0:
            raise ValueError(f"spine and belt counts must be nonnegative: {self}")
        if not 0 <= self.f <= self.s:
            raise ValueError(f"offset must satisfy 0 <= f <= s: {self}")

    def __str__(self) -> str:
        return f"({self.s},{self.b},{self.f})"

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.s, self.b, self.f)


def vertex_count(sig: Signature) -> int:
    """Number of vertices of the trihex: 4(s+1)(b+1)."""
    return 4 * (sig.s + 1) * (sig.b + 1)


def hexagon_count(sig: Signature) -> int:
    """Number of hexagonal faces: 2sb + 2s + 2b (always V/2 - 2)."""
    return 2 * sig.s * sig.b + 2 * sig.s + 2 * sig.b


def _hnf(a1: int, y1: int, a2: int, y2: int) -> Signature:
    """Signature of the lattice spanned by (a1, y1) and (a2, y2), read off its HNF.

    Extended Euclid on the first coordinates gives g = gcd(a1, a2) = x*a1 + z*a2,
    so the lattice has the triangular basis (g, x*y1 + z*y2), (0, h) with
    h = |det| / g; that is the basis of L for (h-1, g-1, f).
    """
    g, x, z, a, x1, z1 = a1, 1, 0, a2, 0, 1
    while a:
        q = g // a
        g, x, z, a, x1, z1 = a, x1, z1, g - q * a, x - q * x1, z - q * z1
    if g < 0:
        g, x, z = -g, -x, -z
    h = abs((a2 // g) * y1 - (a1 // g) * y2)
    return Signature(h - 1, g - 1, -(x * y1 + z * y2) % h)


def orbit(sig: Signature) -> tuple[Signature, Signature, Signature]:
    """All three equivalent signatures: the HNFs of L rotated by 0, 60 and 120 degrees.

    R60(a, y) = (y, y - a) maps the basis (0, s+1), (b+1, -f) of L to
    (s+1, s+1), (-f, -f-b-1); R120 maps it to (s+1, 0), (-f-b-1, -b-1).
    """
    n, m, f = sig.s + 1, sig.b + 1, sig.f
    return sig, _hnf(n, n, -f, -f - m), _hnf(n, 0, -f - m, -m)


def mirror(sig: Signature) -> Signature:
    """Signature of the mirror-image trihex."""
    return Signature(sig.s, sig.b, (sig.s - sig.b - sig.f) % (sig.s + 1))


def is_coinciding(sig: Signature) -> bool:
    """True when all three equivalent signatures are the same triple."""
    return len(set(orbit(sig))) == 1


def has_mirror_symmetry(sig: Signature) -> bool:
    """True when the mirror signature is equivalent to sig."""
    return mirror(sig) in orbit(sig)


def canonical_rep(sig: Signature) -> Signature:
    """Lexicographically smallest member of the orbit; constant on orbits."""
    return min(orbit(sig))


def parse_signature(text: str) -> Signature:
    """Parse 's,b,f' (or '(s,b,f)') into a Signature."""
    parts = text.strip().strip("()").split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated integers, got {text!r}")
    s, b, f = (int(p) for p in parts)
    return Signature(s, b, f)
