"""Seeded inputs for the benchmark workloads, and the arithmetic their checks use.

A plan is everything one workload run needs: the CLI argv of each command,
what its output must satisfy, and how many items the run completes.  The
same (workload, seed) always gives the same plan.  The seed moves the inputs
(window starts, moduli, primes) inside bands chosen so that the amount of
work stays about the same; the number of inputs never changes.

Expected values are computed here with plain integer arithmetic (trial
division and a divisor-sum sieve), never by the package under test.
"""

from __future__ import annotations

import random
from array import array
from math import isqrt

COUNT_HEADER = "V,sigma,delta,mu,nu,trihexes,gamma,rot_classes"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0 or n % 3 == 0:
        return n in (2, 3)
    for d in range(5, isqrt(n) + 1, 6):
        if n % d == 0 or n % (d + 2) == 0:
            return False
    return True


def factor(n: int) -> list[tuple[int, int]]:
    result = []
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            result.append((d, k))
        d += 1
    if n > 1:
        result.append((n, 1))
    return result


def divisor_sum(n: int) -> int:
    total = 1
    for p, k in factor(n):
        total *= (p ** (k + 1) - 1) // (p - 1)
    return total


def trihex_count(n: int) -> int:
    """Trihexes with 4n vertices: (sigma + 2*delta)/3, the paper's closed form."""
    delta = 1
    for p, k in factor(n):
        if p % 3 == 2 and k % 2:
            delta = 0
            break
        if p % 3 == 1:
            delta *= k + 1
    return (divisor_sum(n) + 2 * delta) // 3


def divisor_sums(lo: int, count: int) -> array:
    """sigma(n) for n in [lo, lo + count), by a segmented divisor sieve."""
    hi = lo + count - 1
    sums = array("q", bytes(8 * count))
    for d in range(1, isqrt(hi) + 1):
        first = max(d * d, -(-lo // d) * d)
        for m in range(first, hi + 1, d):
            q = m // d
            sums[m - lo] += d + q if q != d else d
    return sums


def prime_from(n: int, residue_mod_3: int | None = None) -> int:
    """Smallest prime >= n, optionally restricted to p = residue (mod 3)."""
    while not (is_prime(n) and (residue_mod_3 is None or n % 3 == residue_mod_3)):
        n += 1
    return n


def _count_check(first_v: int, sigmas: array) -> dict:
    return {"kind": "count", "first_v": first_v, "rows": len(sigmas), "sigma": sigmas.tobytes().hex()}


def _command(argv: list[str], check: dict, yardstick: str = "python") -> dict:
    """One CLI call; `yardstick` names the reference part its time is scaled by (see yardstick.py)."""
    return {"argv": argv + ["--jobs", "1"], "check": check, "yardstick": yardstick}


def count_table(rng: random.Random) -> dict:
    # 40 000 rows of the closed-form table, as 16 commands of 2 500
    # consecutive rows.  V/4 stays below ~62 000 so factorize is cheap and
    # its cache answers 12 of every 13 calls.  A factorize miss costs about
    # sqrt(V/4), so the window start moves only within a band where that
    # changes by under 2%.
    rows, pieces = 2_500, 16
    k0 = rng.randint(20_000, 22_000)
    sigmas = divisor_sums(k0, rows * pieces)
    commands = []
    for i in range(pieces):
        v0 = 4 * (k0 + i * rows)
        argv = ["count", "--from", str(v0), "--to", str(v0 + 4 * (rows - 1))]
        commands.append(_command(argv, _count_check(v0, sigmas[i * rows : (i + 1) * rows])))
    return {
        "inputs": {"window_start": 4 * k0, "rows": rows * pieces},
        "commands": commands,
        "item": "rows",
        "items": rows * pieces,
    }


def _verify(pieces: list[range], graphs: bool) -> dict:
    """One `verify` command per piece, each over V = 4k for k in the piece."""
    commands = []
    for ks in pieces:
        argv = ["verify", "--quiet", "--from", str(4 * ks[0]), "--to", str(4 * ks[-1])]
        if graphs:
            argv.insert(1, "--with-graphs")
        commands.append(_command(argv, {"kind": "verify", "checked": len(ks)}))
    ks = [k for piece in pieces for k in piece]
    signatures = sum(divisor_sum(k) for k in ks)
    reps = sum(trihex_count(k) for k in ks)
    return {
        "inputs": {"vertex_counts": [[4 * piece[0], 4 * piece[-1]] for piece in pieces]},
        "commands": commands,
        "item": "trihex reps" if graphs else "signatures",
        "items": reps if graphs else signatures,
        "signatures": signatures,
        "reps": reps,
    }


def verify_enum(rng: random.Random) -> dict:
    # 100 consecutive vertex counts starting at V = 800..864, as 20 commands
    # of 5: enumeration and the signature calculus, no graphs.  At this size
    # a vertex count has hundreds of signatures, so the rate barely depends
    # on the window.
    k0 = rng.randint(200, 216)
    return _verify([range(k, k + 5) for k in range(k0, k0 + 100, 5)], graphs=False)


def verify_graphs(rng: random.Random) -> dict:
    # V = 4..88, one command per V in a seeded order.  The cost of a rep
    # grows about as V^1.5, so moving the window would change the rate; the
    # order changes the argv and the output but not the work.
    ks = list(range(1, 23))
    rng.shuffle(ks)
    return _verify([range(k, k + 1) for k in ks], graphs=True)


# Moduli for `congruence --n`, one per narrow band so that the scan length,
# and the peak memory set by the last one, hardly depend on the seed.
CONGRUENCE_BANDS = [(4_000_000, 4_500_000), (10_000_000, 10_500_000), (19_800_000, 20_000_000)]
# Smaller prime of each `count --v 4pq`: trial division runs up to it.
COUNT_PRIME_BANDS = [(2_000_000, 2_250_000), (4_000_000, 4_250_000)]


def numtheory_large(rng: random.Random) -> dict:
    commands = []
    moduli = []
    for i, (lo, hi) in enumerate(CONGRUENCE_BANDS):
        # Even slots: a prime = 1 (mod 3), two roots.  Odd slots: 7p, four
        # roots, whose lift-and-CRT route scans only up to p.
        if i % 2 == 0:
            n, roots = prime_from(rng.randrange(lo, hi), 1), 2
        else:
            n, roots = 7 * prime_from(rng.randrange(lo, hi) // 7 + 1, 1), 4
        moduli.append(n)
        check = {"kind": "congruence", "n": n, "roots": roots}
        # the O(n) numpy residue scans are nearly all of a congruence command's time
        commands.append(_command(["congruence", "--n", str(n)], check, yardstick="numpy"))
    pairs = []
    for lo, hi in COUNT_PRIME_BANDS:
        p = prime_from(rng.randrange(lo, hi))
        q = prime_from(rng.randrange(p + 1, 12_000_000))
        pairs.append([p, q])
        v = 4 * p * q
        commands.append(_command(["count", "--v", str(v)], _count_check(v, array("q", [(p + 1) * (q + 1)]))))
    return {
        "inputs": {"congruence_moduli": moduli, "count_primes": pairs},
        "commands": commands,
        "item": "commands",
        "items": len(commands),
    }


WORKLOADS = {
    "count-table": count_table,
    "verify-enum": verify_enum,
    "verify-graphs": verify_graphs,
    "numtheory-large": numtheory_large,
}


def make_plan(workload: str, seed: int) -> dict:
    plan = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    plan.setdefault("signatures", 0)
    plan.setdefault("reps", 0)
    return {"workload": workload, "seed": seed, **plan}
