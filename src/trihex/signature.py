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
`canonical_offsets` tells, for every offset of one (s, b) at once, whether
the triple is the least of its three, from two gcds and without building
the other two.  It settles a tie, where all three triples share s and b,
with the order-3 map q -> -1/q - 1 (mod (s+1)/(b+1)) on f/(b+1)
(`_tie_partners`): it walks each tied orbit once, in ascending order, keeps
its first member, and records the least member of the mirror orbit.
The mirror image is the HNF of L reflected by (a, y) -> (a, a - y), which
swaps the offset f for (s - b - f) mod (s+1); a signature is self-mirror
when `mirror(sig) == sig`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from itertools import chain, compress
from typing import NamedTuple

from .numtheory import divisors


class Signature(NamedTuple):
    """Triple (s, b, f), ordered as a tuple (lexicographically).

    Every signature this package builds has s, b >= 0 and 0 <= f <= s;
    `parse_signature` checks that range on outside input.
    """

    s: int
    b: int
    f: int

    def __str__(self) -> str:
        return f"({self.s},{self.b},{self.f})"


def vertex_count(sig: Signature) -> int:
    """Number of vertices of the trihex: 4(s+1)(b+1)."""
    return 4 * (sig.s + 1) * (sig.b + 1)


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


def _tie_partners(q: int, k: int) -> tuple[int, int]:
    """phi(q) and phi^2(q) for the order-3 map phi(q) = (-q^-1 - 1) mod k; q and q+1 must be units mod k.

    For a tie, (s, b, f) with m = b+1 dividing both n = s+1 and f, k = n/m
    and q = f/m, the extended-Euclid step of `_hnf` gives the 60 and 120
    degree members the same s and b and the offsets m*phi(q) and
    m*phi^2(q), where phi^2(q) = -(q+1)^-1 mod k.  Their q and q+1 are units
    again, and phi^3(q) = q, so the tie's orbit is {q, phi(q), phi^2(q)}.
    One inverse serves both: with i = (q(q+1))^-1, q^-1 = (q+1)i and
    (q+1)^-1 = qi.
    """
    inv = pow(q * (q + 1), -1, k)
    return (-(q + 1) * inv - 1) % k, -q * inv % k


def _can_tie(n: int, m: int) -> bool:
    """True when the pair (n, m) = (s+1, b+1) may hold a tie: m | n and k = n/m odd.

    A tie needs q and q+1 to be units mod k (`_tie_partners`), and one of
    them is even, so an even k has none.
    """
    return n % m == 0 and n // m % 2 == 1


def canonical_offsets(n: int, m: int) -> tuple[bytearray, Iterable[int]]:
    """Mark the canonical offsets of (n-1, m-1, f), f in 0..n-1, and give each its mirror's offset.

    Returns (mask, mirrors).  mask[f] is 1 when (n-1, m-1, f) is the least
    member of its orbit, and 0 otherwise.  mirrors lists, for f = 0..n-1 in
    order, the offset of canonical_rep(mirror((n-1, m-1, f))) where mask[f]
    is 1, and the plain mirror (-m - f) mod n elsewhere: a mirror keeps s
    and b, so a representative's mirror representative lies in the pair.

    The 60 and 120 degree members of (n-1, m-1, f) have b'+1 = gcd(n, f) and
    gcd(n, f+m), and s'+1 = nm/(b'+1), by the determinant in `_hnf`.  A gcd
    above m gives a member with a smaller s, one below m a larger s.  That
    happens exactly when a divisor e > m of n divides f or f+m, so each such
    e unmarks f = 0 and f = -m (mod e) with two slice assignments.  One gcd
    equals m exactly when the other does (m | n and m | f either way): a
    tie, where the three members share s and b.  Its orbit is
    {q, phi(q), phi^2(q)} times m, q = f/m (`_tie_partners`), all of them
    offsets left marked.  The walk takes those offsets in ascending order,
    so the first it meets of an orbit is the least: that one stays marked
    and unmarks the other two, which the walk then skips.

    Mirroring swaps the two gcds, so it maps an untied marked offset to a
    marked one, its own representative.  It maps q to k-1-q, k = n/m, and
    an orbit onto an orbit, so the walk records m*(k-1-max(q, phi(q),
    phi^2(q))) as the mirror of each orbit's least member.  A tie needs q
    and q+1 to be units mod k, so there is none unless m | n and k is odd
    (`_can_tie`).  Any other pair's mirrors is a one-pass iterator over two
    ranges, the fixed permutation f -> (c - f) mod n, c = -m mod n, which
    `enumeration.verify` checks with one slice comparison of the mask; a
    pair that can tie gets an array of 4 bytes per offset, which holds
    every n that `enumeration.MAX_SIGNATURES` admits.
    """
    mask = bytearray(b"\x01") * n
    for e in divisors(n):
        if e > m:
            for start in (0, -m % e):
                mask[start::e] = bytes(len(range(start, n, e)))
    c = -m % n
    mirrors: Iterable[int] = chain(range(c, -1, -1), range(n - 1, c, -1))
    if _can_tie(n, m):
        k = n // m
        mirrors = array("I", mirrors)
        for f in compress(range(0, n, m), mask[::m]):
            if mask[f]:
                p60, p120 = _tie_partners(f // m, k)
                mask[m * p60] = mask[m * p120] = 0
                mask[f] = 1  # a coinciding tie is its own partner
                # f/m is its orbit's least member, so the greatest is a partner; c = m*(k-1)
                mirrors[f] = c - m * (p60 if p60 > p120 else p120)
    return mask, mirrors


def canonical_rep(sig: Signature) -> Signature:
    """Lexicographically smallest member of the orbit; constant on orbits.

    The HNF route: `canonical_offsets` tells the same for a whole (s, b)
    without building an orbit.
    """
    return min(orbit(sig))


def parse_signature(text: str) -> Signature:
    """Parse 's,b,f' (or '(s,b,f)') into a Signature, checking that it is in range."""
    parts = text.strip().strip("()").split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated integers, got {text!r}")
    sig = Signature(*(int(p) for p in parts))
    if sig.s < 0 or sig.b < 0:
        raise ValueError(f"spine and belt counts must be nonnegative: {sig}")
    if not 0 <= sig.f <= sig.s:
        raise ValueError(f"offset must satisfy 0 <= f <= s: {sig}")
    return sig
