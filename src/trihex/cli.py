"""Command-line front end.

Subcommands:
  count       counting table over a range of vertex counts
  enumerate   signature streams for one vertex count
  build       realize a signature and export the embedded graph
  verify      check construction against the closed-form counts, and with
              --with-graphs the built graphs too (enumeration.verify_graphs)
  congruence  roots of x^2 + x + 1 modulo n, checked against their
              closed-form count

Exit codes: 0 success, 1 verification failure, 2 usage or input error
(including a number to factorize that is not below 2^64), 3 internal error
(two computations that must agree did not).
Range work fans out to a process pool (--jobs, or TRIHEX_JOBS; 0 = all
cores); results are re-ordered before emission so output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import counting, enumeration, graph
from .errors import InternalInconsistencyError, VerificationFailureError
from .numtheory import factorize, omega_count, solve_fast
from .signature import parse_signature

SCHEMA_VERSION = 1

_STREAMS = {
    "all": enumeration.all_signatures,
    "reps": enumeration.trihex_reps,
    "coinciding": enumeration.coinciding_signatures,
    "self-mirror": enumeration.self_mirror_signatures,
    "classes": enumeration.graph_class_reps,
}


class UsageError(Exception):
    pass


def _parse_range(args) -> list[int]:
    if args.v is not None and args.start is None and args.end is None:
        start = end = args.v
    elif args.v is None and args.start is not None and args.end is not None:
        start, end = args.start, args.end
    else:
        raise UsageError("give either --v or both --from and --to")
    if start % 4 or end % 4 or start < 4:
        raise UsageError(f"vertex counts must be multiples of 4 and >= 4: {start}..{end}")
    if start > end:
        raise UsageError(f"empty range: {start} > {end}")
    return list(range(start, end + 1, 4))


def _jobs(args) -> int:
    jobs = args.jobs
    if jobs is None:
        jobs = int(os.environ.get("TRIHEX_JOBS", "1"))
    if jobs < 0:
        raise UsageError(f"--jobs must be nonnegative, got {jobs}")
    return jobs if jobs else os.cpu_count() or 1


def _map_ordered(fn, items, jobs: int):
    """Apply fn over items, preserving order; fan out when jobs > 1."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_bytes(data: bytes, args) -> None:
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def cmd_count(args) -> int:
    vs = _parse_range(args)
    reports = _map_ordered(counting.report, vs, _jobs(args))
    if args.format == "csv":
        lines = [",".join(counting.CSV_COLUMNS)]
        lines.extend(r.csv_row() for r in reports)
        _emit("\n".join(lines) + "\n", args)
    else:
        doc = {"schema_version": SCHEMA_VERSION, "reports": [r.as_dict() for r in reports]}
        _emit(json.dumps(doc, indent=2) + "\n", args)
    return 0


def cmd_enumerate(args) -> int:
    if args.v is None:
        raise UsageError("enumerate requires --v")
    vs = _parse_range(args)
    signatures = _STREAMS[args.stream](vs[0])
    if args.format == "text":
        _emit("".join(f"{sig}\n" for sig in signatures), args)
    elif args.format == "csv":
        lines = ["s,b,f"]
        lines.extend(f"{sig.s},{sig.b},{sig.f}" for sig in signatures)
        _emit("\n".join(lines) + "\n", args)
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "V": vs[0],
            "stream": args.stream,
            "signatures": [list(sig.as_tuple()) for sig in signatures],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args)
    return 0


def cmd_build(args) -> int:
    try:
        sig = parse_signature(args.sig)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    g = graph.build(sig)
    if not args.quiet:
        print(
            f"signature {sig}: {g.n} vertices, faces "
            + ", ".join(f"{count} of length {k}" for k, count in graph.face_census(g).items()),
            file=sys.stderr,
        )
    _emit_bytes(graph.export(g, args.format), args)
    return 0


def _verify_one(task: tuple[int, bool]) -> tuple[int, list[str]]:
    v, with_graphs = task
    try:
        result = enumeration.verify(v)
    except VerificationFailureError as exc:
        return v, [f"{exc.field}: expected {exc.expected}, got {exc.actual}"]
    return v, enumeration.verify_graphs(v, result.trihex_reps) if with_graphs else []


def cmd_verify(args) -> int:
    vs = _parse_range(args)
    tasks = [(v, args.with_graphs) for v in vs]
    results = _map_ordered(_verify_one, tasks, _jobs(args))
    lines = []
    failures = 0
    for v, problems in results:
        if problems:
            failures += 1
            lines.append(f"V={v}: FAIL")
            lines.extend(f"  {p}" for p in problems)
        elif not args.quiet:
            lines.append(f"V={v}: ok")
    lines.append(f"checked {len(vs)} vertex counts, {failures} failures")
    _emit("\n".join(lines) + "\n", args)
    return 1 if failures else 0


def cmd_congruence(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be positive, got {args.n}")
    f = factorize(args.n)
    fast = solve_fast(f)
    # CongruenceSolutions checks that every root is a distinct root, so the
    # closed-form count certifies the whole root set.
    if len(fast.roots) != omega_count(f):
        raise InternalInconsistencyError(
            f"{len(fast.roots)} roots for n={args.n}, the closed form says {omega_count(f)}"
        )
    if args.format == "structured":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "n": args.n,
            "roots": list(fast.roots),
            "count": len(fast.roots),
        }
        _emit(json.dumps(doc, indent=2) + "\n", args)
    else:
        _emit(" ".join(str(x) for x in fast.roots) + f"\ncount {len(fast.roots)}\n", args)
    return 0


def _add_range_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v", type=int, default=None, help="single vertex count")
    p.add_argument("--from", dest="start", type=int, default=None, help="range start (inclusive)")
    p.add_argument("--to", dest="end", type=int, default=None, help="range end (inclusive)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="write to this file instead of stdout")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (0 = all cores)")
    p.add_argument("--quiet", action="store_true", help="suppress diagnostics and per-item progress")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trihex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="counting table for a range of vertex counts")
    _add_range_flags(p)
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="signature streams for one vertex count")
    _add_range_flags(p)
    p.add_argument("--stream", choices=sorted(_STREAMS), default="all")
    p.add_argument("--format", choices=("text", "csv", "structured"), default="text")
    _add_common_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("build", help="realize a signature as an embedded graph")
    p.add_argument("--sig", required=True, help="signature as s,b,f")
    p.add_argument("--format", choices=("planar_code", "dot", "structured"), default="planar_code")
    _add_common_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check enumeration against the counting formulas")
    _add_range_flags(p)
    p.add_argument("--with-graphs", action="store_true", help="also run graph-level checks")
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("congruence", help="roots of x^2 + x + 1 modulo n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    _add_common_flags(p)
    p.set_defaults(func=cmd_congruence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"trihex: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"trihex: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
