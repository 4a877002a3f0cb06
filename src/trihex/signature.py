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
(`_tie_orbit`): it walks each tied orbit once, in ascending order, keeps
its first member, and marks the least member of the mirror orbit in a
second byte mask, the mirror images.
The mirror image is the HNF of L reflected by (a, y) -> (a, a - y), which
swaps the offset f for (s - b - f) mod (s+1); a signature is self-mirror
when `mirror(sig) == sig`.
"""

from __future__ import annotations

from itertools import compress
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


def _tie_orbit(q: int, k: int) -> tuple[int, int, int]:
    """phi(q), phi^2(q) for the order-3 map phi(q) = (-q^-1 - 1) mod k, and the mirror orbit's least member.

    q and q+1 must be units mod k.  For a tie, (s, b, f) with m = b+1
    dividing both n = s+1 and f, k = n/m and q = f/m, the extended-Euclid
    step of `_hnf` gives the 60 and 120 degree members the same s and b and
    the offsets m*phi(q) and m*phi^2(q), where phi^2(q) = -(q+1)^-1 mod k.
    Their q and q+1 are units again, and phi^3(q) = q, so the tie's orbit is
    {q, phi(q), phi^2(q)}.  One inverse serves both: with i = (q(q+1))^-1,
    q^-1 = (q+1)i and (q+1)^-1 = qi.  Mirroring maps q to k-1-q, and the
    orbit onto a tie's orbit, so its greatest member goes to the least of
    the mirror orbit, k-1-max(q, phi(q), phi^2(q)), the third value.  The
    orbit walk in `canonical_offsets` and the slow path of
    `enumeration.verify` both take a tie's partners and mirror from here.
    """
    inv = pow(q * (q + 1), -1, k)
    p60, p120 = (-(q + 1) * inv - 1) % k, -q * inv % k
    top = p60 if p60 > p120 else p120
    return p60, p120, k - 1 - (q if q > top else top)


def _can_tie(n: int, m: int) -> bool:
    """True when the pair (n, m) = (s+1, b+1) may hold a tie: m | n and k = n/m odd.

    A tie needs q and q+1 to be units mod k (`_tie_orbit`), and one of
    them is even, so an even k has none.
    """
    return n % m == 0 and n // m % 2 == 1


def canonical_offsets(n: int, m: int) -> tuple[bytearray, bytearray, bytearray]:
    """Mark the canonical offsets of (n-1, m-1, f), f in 0..n-1, and their mirror representatives.

    Returns three byte masks over f = 0..n-1, (mask, keep, images).
    mask[f] is 1 when (n-1, m-1, f) is the least member of its orbit.  A
    mirror keeps s and b, so the offset g of canonical_rep(mirror((n-1,
    m-1, f))) lies in the pair: keep[f] is 1 when mask[f] is and f <= g,
    and images[g] is 1 when g is that offset for some marked f.  So keep
    marks the graph classes, and mirroring maps the marked offsets one to
    one onto marked ones exactly when images == mask.

    The 60 and 120 degree members of (n-1, m-1, f) have b'+1 = gcd(n, f) and
    gcd(n, f+m), and s'+1 = nm/(b'+1), by the determinant in `_hnf`.  A gcd
    above m gives a member with a smaller s, one below m a larger s.  That
    happens exactly when a divisor e > m of n divides f or f+m, so each such
    e unmarks f = 0 and f = -m (mod e) with two slice assignments.  One gcd
    equals m exactly when the other does (m | n and m | f either way): a
    tie, where the three members share s and b.  A tie needs q = f/m and
    q+1 to be units mod k = n/m, so there is none unless m | n and k is odd
    (`_can_tie`).

    Mirroring swaps the two gcds, so it maps an untied marked offset to a
    marked one, its own representative: the fixed permutation f -> (c - f)
    mod n, c = -m mod n, which takes 0..c to c..0 and c+1..n-1 to n-1..c+1.
    So images is the mask reversed in those two slices, and keep is the
    mask with f > c/2 cleared in the first and f > (n+c)/2 in the second.
    In a pair that can tie, the walk sets keep and images at the multiples
    of m, which mirroring maps to multiples of m.  Its orbits are
    {q, phi(q), phi^2(q)} times m (`_tie_orbit`), all of them offsets
    left marked.  It takes those offsets in ascending order from a live
    view of the mask, so the first it meets of an orbit is the least: that
    one stays marked and unmarks the other two, which the walk then skips.
    Each orbit it keeps writes one byte of keep and one of images, at m
    times its mirror orbit's least member.  The pair holds the three masks,
    3 bytes per offset, and no more when m = 1: every offset is then the
    walk's, so keep and images start blank, and the all-tie pair (p, 1) of
    V = 4p, the largest pair a cap on sigma admits, copies no slice.
    """
    mask = bytearray(b"\x01") * n
    for e in divisors(n):
        if e > m:
            for start in (0, -m % e):
                mask[start::e] = bytearray(len(range(start, n, e)))
    # the walk's offsets, the k multiples of m; when m = 1 that is every offset
    k = n // m if _can_tie(n, m) else 0
    if k == n:
        keep, images = bytearray(n), bytearray(n)
    else:
        c = -m % n
        keep = mask[:]
        keep[c // 2 + 1 : c + 1] = bytearray(c - c // 2)
        keep[(n + c) // 2 + 1 :] = bytearray(n - 1 - (n + c) // 2)
        images = mask[c::-1]
        images += mask[:c:-1]
        if k:
            keep[::m] = images[::m] = bytearray(k)
    if k:
        for f in compress(range(0, n, m), memoryview(mask)[::m]):
            q = f // m
            p60, p120, r = _tie_orbit(q, k)
            mask[m * p60] = mask[m * p120] = 0
            mask[f] = 1  # a coinciding tie is its own partner
            images[m * r] = 1
            keep[f] = q <= r
    return mask, keep, images


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
