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
(including a number to factorize that is not below 2^64 and an --output
file that cannot be written), 3 internal error (two computations that must
agree did not).
Range work fans out to a process pool (--jobs, default 1; 0 = all cores;
never more workers than cores or vertex counts); results are re-ordered
before emission so output is deterministic.
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
from .signature import parse_signature, vertex_count

SCHEMA_VERSION = 1

_STREAMS = {
    "all": enumeration.all_signatures,
    "reps": enumeration.trihex_reps,
    "coinciding": enumeration.coinciding_signatures,
    "self-mirror": enumeration.self_mirror_signatures,
    "classes": enumeration.graph_class_reps,
}


def _parse_range(args) -> list[int]:
    if args.v is not None and args.start is None and args.end is None:
        start = end = args.v
    elif args.v is None and args.start is not None and args.end is not None:
        start, end = args.start, args.end
    else:
        raise ValueError("give either --v or both --from and --to")
    if start % 4 or end % 4 or start < 4:
        raise ValueError(f"vertex counts must be multiples of 4 and >= 4: {start}..{end}")
    if start > end:
        raise ValueError(f"empty range: {start} > {end}")
    return list(range(start, end + 1, 4))


def _jobs(args) -> int:
    if args.jobs < 0:
        raise ValueError(f"--jobs must be nonnegative, got {args.jobs}")
    return args.jobs or os.cpu_count() or 1


def _map_ordered(fn, items, jobs: int):
    """Apply fn over items, preserving order, in min(jobs, cores, items) worker processes when that exceeds 1."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


def _emit(data: str | bytes, args) -> None:
    """Write text or bytes to the --output file, or else to stdout.

    A file that cannot be written is a usage error (exit 2); a reader that
    closes stdout early (`| head -1`) ends the output quietly.
    """
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(data.encode() if isinstance(data, str) else data)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from exc
        return
    try:
        if isinstance(data, str):
            sys.stdout.write(data)
        else:
            sys.stdout.buffer.write(data)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(doc: dict, args) -> None:
    _emit(json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2) + "\n", args)


def cmd_count(args) -> int:
    vs = _parse_range(args)
    reports = _map_ordered(counting.report, vs, _jobs(args))
    if args.format == "csv":
        lines = [",".join(counting.CountReport._fields)]
        lines.extend(r.csv_row() for r in reports)
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit_json({"reports": [r._asdict() for r in reports]}, args)
    return 0


def cmd_enumerate(args) -> int:
    if args.v is None:
        raise ValueError("enumerate requires --v")
    vs = _parse_range(args)
    signatures = _STREAMS[args.stream](vs[0])
    if args.format == "text":
        _emit("".join(f"{sig}\n" for sig in signatures), args)
    elif args.format == "csv":
        lines = ["s,b,f"]
        lines.extend(f"{sig.s},{sig.b},{sig.f}" for sig in signatures)
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit_json({"V": vs[0], "stream": args.stream, "signatures": [list(sig) for sig in signatures]}, args)
    return 0


def cmd_build(args) -> int:
    sig = parse_signature(args.sig)
    graph.check_export(vertex_count(sig), args.format)
    g = graph.build(sig)
    census = graph.validate(g)
    _emit(graph.export(g, args.format, census), args)
    # after the output, so that an --output file that cannot be written leaves one stderr line
    if not args.quiet:
        print(
            f"signature {sig}: {g.n} vertices, faces "
            + ", ".join(f"{count} of length {k}" for k, count in census.items()),
            file=sys.stderr,
        )
    return 0


def _verify_one(task: tuple[int, bool]) -> tuple[int, list[str]]:
    v, with_graphs = task
    try:
        reps = enumeration.verify(v)
    except VerificationFailureError as exc:
        return v, [f"{exc.field}: expected {exc.expected}, got {exc.actual}"]
    return v, enumeration.verify_graphs(v, reps) if with_graphs else []


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
        raise ValueError(f"--n must be positive, got {args.n}")
    f = factorize(args.n)
    roots = solve_fast(f)
    # distinct residues that each solve the congruence, as many as the
    # closed form counts: the printed set is then all of the roots
    previous = -1
    for x in roots:
        if not previous < x < args.n:
            raise InternalInconsistencyError(
                f"roots mod {args.n} are not increasing residues: {x} after {previous}"
            )
        if (x * x + x + 1) % args.n:
            raise InternalInconsistencyError(f"{x} does not solve x^2 + x + 1 = 0 (mod {args.n})")
        previous = x
    if len(roots) != omega_count(f):
        raise InternalInconsistencyError(
            f"{len(roots)} roots for n={args.n}, the closed form says {omega_count(f)}"
        )
    if args.format == "structured":
        _emit_json({"n": args.n, "roots": list(roots), "count": len(roots)}, args)
    else:
        _emit(" ".join(map(str, roots)) + f"\ncount {len(roots)}\n", args)
    return 0


def _add_range_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v", type=int, default=None, help="single vertex count")
    p.add_argument("--from", dest="start", type=int, default=None, help="range start (inclusive)")
    p.add_argument("--to", dest="end", type=int, default=None, help="range end (inclusive)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="write to this file instead of stdout")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (0 = all cores; at most one per core and per work item)",
    )
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
    except ValueError as exc:
        print(f"trihex: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"trihex: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
