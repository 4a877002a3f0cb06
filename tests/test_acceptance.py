"""Acceptance suite: one test per criterion, zero tolerance on every value.

Each test prints a single `[acceptance] criterion N ...: PASS/FAIL` line
(visible with `pytest -s` or on failure) and then asserts that no
violations were collected.
"""

import math
import time

import numpy as np

from golden_counts import TABLE
from oracles import solve_naive
from test_counting import gamma_cases, rot_classes_direct
from trihex import cli, counting, enumeration, graph
from trihex.numtheory import factorize, omega_count, solve_fast
from trihex.signature import Signature, is_coinciding, mirror, orbit


def _finish(number: int, name: str, started: float, violations: list):
    status = "PASS" if not violations else "FAIL"
    elapsed = time.time() - started
    print(f"[acceptance] criterion {number} ({name}): {status} [{elapsed:.1f}s]")
    assert not violations, violations[:20]


def test_criterion_1_table_reproduction(capsys):
    started = time.time()
    violations = []
    code = cli.main(["count", "--from", "4", "--to", "360"])
    out = capsys.readouterr().out
    if code != 0:
        violations.append(f"exit code {code}")
    rows = out.splitlines()
    if len(rows) != 91:
        violations.append(f"expected 91 csv lines, got {len(rows)}")
    golden = {v: (t, g) for v, t, g in TABLE}
    for line in rows[1:]:
        fields = [int(x) for x in line.split(",")]
        v, trihexes, classes = fields[0], fields[5], fields[6]
        if (trihexes, classes) != golden[v]:
            violations.append(f"V={v}: got {(trihexes, classes)}, table says {golden[v]}")
    with capsys.disabled():
        _finish(1, "Table-1 reproduction", started, violations)


def test_criterion_2_formula_vs_enumeration():
    started = time.time()
    violations = []
    for v in range(4, 404, 4):
        try:
            enumeration.verify(v)
        except Exception as exc:
            violations.append(f"V={v}: {exc}")
    _finish(2, "formula vs enumeration, V <= 400", started, violations)


def test_criterion_3_congruence_solver():
    started = time.time()
    violations = []
    for n in range(1, 50_001):
        naive = solve_naive(n)
        fast = solve_fast(n)
        if naive != fast:
            violations.append(f"n={n}: fast {fast} != naive {naive}")
        if len(naive) != omega_count(n):
            violations.append(f"n={n}: {len(naive)} roots vs formula {omega_count(n)}")
    _finish(3, "congruence solver, n <= 50000", started, violations)


def test_criterion_4_graph_realization():
    started = time.time()
    violations = []
    for v in range(4, 124, 4):
        h = v // 2 - 2
        for rep in enumeration.trihex_reps(v):
            try:
                g = graph.build(rep)
                graph.validate(g)  # degree, symmetry, connectivity, face census
            except Exception as exc:
                violations.append(f"{rep}: {exc}")
                continue
            census = {}
            for face in graph.faces(g):
                census[len(face)] = census.get(len(face), 0) + 1
            expected = {3: 4, 6: h} if h else {3: 4}
            if census != expected:
                violations.append(f"{rep}: face census {census}")
            if len(g) != v:
                violations.append(f"{rep}: n={len(g)} != {v}")
    _finish(4, "graph realization, V <= 120", started, violations)


def test_criterion_5_symmetry_correspondence():
    # 3-fold symmetry, chirality, oriented collisions, orbit members and
    # classes up to reflection = gamma, by the same checks as `verify --with-graphs`
    started = time.time()
    violations = []
    for v in range(4, 564, 4):
        violations.extend(
            f"V={v}: {problem}"
            for problem in enumeration.verify_graphs(v, enumeration.trihex_reps(v))
        )
    _finish(5, "graph-level symmetry correspondence, V <= 560", started, violations)


def _signatures_upto(v_max):
    for s in range(v_max // 4):
        for b in range(v_max // (4 * (s + 1))):
            for f in range(s + 1):
                yield Signature(s, b, f)


def test_criterion_6_property_suites():
    started = time.time()
    violations = []

    for sig in _signatures_upto(400):
        if mirror(mirror(sig)) != sig:
            violations.append(f"mirror involution fails at {sig}")
        members = set(orbit(sig))
        if any(set(orbit(m)) != members for m in members):
            violations.append(f"orbit closure fails at {sig}")
        if is_coinciding(sig):
            if (sig.s + 1) % (sig.b + 1) or sig.f % (sig.b + 1):
                violations.append(f"coinciding divisibility fails at {sig}")

    # shared root of x^2+x+1 and 2x+1 happens only mod 1 and mod 3
    hits = []
    for n in range(1, 10_001):
        x = np.arange(n, dtype=np.int64)
        if np.any(((x * x + x + 1) % n == 0) & ((2 * x + 1) % n == 0)):
            hits.append(n)
    if hits != [1, 3]:
        violations.append(f"shared-root characterization: {hits[:10]}")

    omegas = [0] + [omega_count(n) for n in range(1, 1001)]
    for a in range(1, 1001):
        for b in range(a, 1001):
            if math.gcd(a, b) == 1 and omega_count(a * b) != omegas[a] * omegas[b]:
                violations.append(f"multiplicativity fails at ({a}, {b})")

    for v in range(4, 4004, 4):
        try:
            r = counting.report(v)
            if r.gamma != gamma_cases(v // 4, factorize(v // 4)):
                violations.append(f"gamma dual path V={v}: {r.gamma} vs cases")
            if r.rot_classes != rot_classes_direct(v):
                violations.append(f"rot_classes dual path V={v}: {r.rot_classes} vs direct")
        except Exception as exc:
            violations.append(f"dual paths V={v}: {exc}")

    _finish(6, "property suites", started, violations)
