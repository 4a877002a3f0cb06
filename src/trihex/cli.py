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
Every command writes through `_emit`, a chunk at a time as it comes:
`enumerate` SEGMENT signatures of its lazy stream, `count` a piece of its range.
Range work fans out to a process pool (--jobs, default 1; 0 = all cores;
never more workers than cores or vertex counts): `count` maps contiguous
pieces of its range, each sieved by `counting.reports` and formatted in its
worker; `verify` maps one vertex count per task.  Results come back in
order, so output is deterministic.
The pool and its modules (`concurrent.futures`, `multiprocessing`) are
imported only when more than one worker runs, so a --jobs 1 command does not
load them.  The parser is built once, at import.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys
from typing import Iterable, Iterator

from . import counting, enumeration, graph
from .errors import InternalInconsistencyError, VerificationFailureError
from .numtheory import check_factorable, omega_count, solve_fast
from .signature import parse_signature, vertex_count

SCHEMA_VERSION = 1
# One `count` row as an item of the structured document's "reports" list, laid
# out as json.dumps(..., indent=2) lays it out
_JSON_ROW = "    {\n" + ",\n".join(f'      "{name}": %d' for name in counting.CountReport._fields) + "\n    }"
# One signature as a line of text or CSV, or as an item of the structured "signatures" list
_SIGNATURE = {"text": "(%d,%d,%d)\n", "csv": "%d,%d,%d\n", "structured": "    [\n      %d,\n      %d,\n      %d\n    ]"}

# A range holds at most this many vertex counts, refused before it is listed.
# On a 2-core Xeon VM with Python 3.11, the largest it admits, V = 4..2 000 000,
# takes 2.1-2.9 s and 18 MiB through `count --output` as CSV at --jobs 1
# (1.2-1.5 s at --jobs 2), and 1.6-3.1 s and 21 MiB as structured (1.2-1.7 s
# and 24 MiB at --jobs 2): `count` writes each piece as it comes, so the cap
# bounds time, not memory.
MAX_VERTEX_COUNTS = 500_000

# `verify --with-graphs` refuses a range whose graph work, the sum of
# trihexes(V) * V, passes this, before building a graph.  A unit takes 9-11 us
# at --jobs 1 on the same machine: V = 4..756 (4 989 188 units) takes 43 s and
# 23 MiB, and V = 7060 alone (4 998 480) 55 s and 352 MiB, for its codes.
MAX_GRAPH_WORK = 5_000_000

_STREAMS = {
    "all": enumeration.all_signatures,
    "reps": enumeration.trihex_reps,
    "coinciding": enumeration.coinciding_signatures,
    "self-mirror": enumeration.self_mirror_signatures,
    "classes": enumeration.graph_class_reps,
}


def _parse_range(args) -> range:
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
    count = (end - start) // 4 + 1
    if count > MAX_VERTEX_COUNTS:
        raise ValueError(f"{start}..{end} has {count} vertex counts; a range holds at most {MAX_VERTEX_COUNTS}")
    return range(start, end + 1, 4)


def _workers(jobs: int, items: int) -> int:
    cores = os.cpu_count() or 1
    return min(jobs or cores, items, cores)


def _map_ordered(fn, items, jobs: int, chunksize: int = 0):
    """Yield fn(item) for each item in order, from _workers(jobs, len(items)) processes when that exceeds 1.

    Items go to the workers `chunksize` at a time, by default in about four
    chunks per worker.  The pool, and with it `multiprocessing`, is imported
    only here, once more than one worker runs.
    """
    workers = _workers(jobs, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunksize or max(1, len(items) // (4 * workers)))


@contextlib.contextmanager
def _output_file(path: str | None):
    """Open the --output file before any work, so that one that cannot be opened is refused first.

    A file that cannot be opened is a usage error (exit 2).  It is opened
    for appending and truncated only when `_emit` writes the first chunk,
    which every command makes before it calls `_emit`; a file that the
    command created is removed again when the command raises: a refused
    command leaves no new file and an existing one as it was.
    """
    if path is None:
        yield None
        return
    created = not os.path.lexists(path)
    try:
        fh = open(path, "ab")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        try:
            yield fh
        except BaseException:
            if created:
                os.unlink(path)
            raise


def _emit(chunks: Iterable[str | bytes], args) -> None:
    """Write each chunk of text or bytes, in order and as it comes, to the --output file, or else to stdout.

    The file is truncated when the first chunk has come.  A file that
    cannot be written is a usage error (exit 2); a reader that closes
    stdout early (`| head -1`) ends the output quietly.
    """
    if args.output:
        fh = args.output_file
        for i, data in enumerate(chunks):
            try:
                # a pipe or a device cannot be truncated, and needs no truncating
                if not i and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                fh.write(data.encode() if isinstance(data, str) else data)
                fh.flush()
            except OSError as exc:
                raise ValueError(f"cannot write {args.output}: {exc.strerror}") from exc
        return
    try:
        for data in chunks:
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


def _json_list(doc: dict, key: str, items: Iterator[str]) -> Iterable[str]:
    """Chunks of {"schema_version": 1, **doc, key: [...]} as json.dumps(..., indent=2) lays it out.

    Each item is the text of one or more entries of the list, indented to their depth.  The first
    item is made before this returns, so a command that fails on it writes nothing; none gives "[]".
    """
    head, tail = json.dumps({"schema_version": SCHEMA_VERSION, **doc, key: []}, indent=2).split("[]")
    first = next(items, None)
    if first is None:
        return [f"{head}[]{tail}\n"]
    return itertools.chain([f"{head}[\n{first}"], (",\n" + item for item in items), [f"\n  ]{tail}\n"])


def _count_rows(piece: tuple[range, str]) -> str:
    """The text of one piece of `count` output: CSV lines, or items of the structured "reports" list."""
    vs, fmt = piece
    rows = counting.reports(vs[0], vs[-1])
    if fmt == "csv":
        return "\n".join(map(counting.CountReport.csv_row, rows)) + "\n"
    return ",\n".join(map(_JSON_ROW.__mod__, rows))


def cmd_count(args) -> int:
    vs = _parse_range(args)
    # from the range's ends, before any row is factored
    check_factorable(vs[0] // 4, vs[-1] // 4 + 1)
    # contiguous pieces of at most one sieve segment each, and at least one per worker
    pieces = max(-(-len(vs) // counting.SEGMENT), _workers(args.jobs, len(vs)))
    size = -(-len(vs) // pieces)
    # one piece per task: a chunk of pieces would hold that many pieces' text in a worker and in the queue
    texts = _map_ordered(
        _count_rows, [(vs[i : i + size], args.format) for i in range(0, len(vs), size)], args.jobs, chunksize=1
    )
    # the first piece comes before anything is written: a command that fails on it writes nothing
    if args.format == "csv":
        _emit(itertools.chain([",".join(counting.CountReport._fields) + "\n" + next(texts)], texts), args)
    else:
        _emit(_json_list({}, "reports", texts), args)
    return 0


def cmd_enumerate(args) -> int:
    signatures = iter(_STREAMS[args.stream](args.v))
    template, sep = _SIGNATURE[args.format], ",\n" if args.format == "structured" else ""
    # pieces of at most SEGMENT signatures each, until the stream runs out; the first is made before any is written
    pieces = iter(lambda: sep.join(map(template.__mod__, itertools.islice(signatures, counting.SEGMENT))), "")
    if args.format == "structured":
        _emit(_json_list({"V": args.v, "stream": args.stream}, "signatures", pieces), args)
    else:
        _emit(itertools.chain([("s,b,f\n" if args.format == "csv" else "") + next(pieces, "")], pieces), args)
    return 0


def cmd_build(args) -> int:
    sig = parse_signature(args.sig)
    graph.check_export(vertex_count(sig), args.format)
    rot = graph.build(sig)
    census = graph.validate(rot)
    _emit([graph.export(rot, sig, args.format, census)], args)
    # after the output, so that an --output file that cannot be written leaves one stderr line
    if not args.quiet:
        print(
            f"signature {sig}: {len(rot)} vertices, faces "
            + ", ".join(f"{count} of length {k}" for k, count in census.items()),
            file=sys.stderr,
        )
    return 0


def _verify_one(task: tuple[int, bool]) -> tuple[int, list[str]]:
    v, with_graphs = task
    try:
        enumeration.verify(v)
    except VerificationFailureError as exc:
        return v, [f"{exc.field}: expected {exc.expected}, got {exc.actual}"]
    return v, enumeration.verify_graphs(v, enumeration.trihex_reps(v)) if with_graphs else []


def cmd_verify(args) -> int:
    vs = _parse_range(args)
    if args.with_graphs:
        work = 0
        for v in vs:
            work += counting.report(v).trihexes * v
            if work > MAX_GRAPH_WORK:
                raise ValueError(
                    f"graph work, trihexes(V) * V summed, reaches {work} by V={v}; "
                    f"verify --with-graphs holds at most {MAX_GRAPH_WORK}"
                )
    tasks = [(v, args.with_graphs) for v in vs]
    results = _map_ordered(_verify_one, tasks, args.jobs)
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
    _emit(["\n".join(lines) + "\n"], args)
    return 1 if failures else 0


def cmd_congruence(args) -> int:
    roots = solve_fast(args.n)
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
    if len(roots) != omega_count(args.n):
        raise InternalInconsistencyError(
            f"{len(roots)} roots for n={args.n}, the closed form says {omega_count(args.n)}"
        )
    if args.format == "structured":
        doc = {"schema_version": SCHEMA_VERSION, "n": args.n, "roots": list(roots), "count": len(roots)}
        _emit([json.dumps(doc, indent=2) + "\n"], args)
    else:
        _emit([" ".join(map(str, roots)) + f"\ncount {len(roots)}\n"], args)
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


def build_parser() -> argparse.ArgumentParser:
    # the first line of the module docstring, which -OO strips
    parser = argparse.ArgumentParser(prog="trihex", description="Command-line front end.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="counting table for a range of vertex counts")
    _add_range_flags(p)
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="signature streams for one vertex count")
    p.add_argument("--v", type=int, required=True, help="the vertex count")
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


# built at import, with argparse's gettext lookups (and `locale`) in start-up;
# parse_args writes only to the Namespace it returns
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        if args.jobs < 0:
            raise ValueError(f"--jobs must be nonnegative, got {args.jobs}")
        with _output_file(args.output) as args.output_file:
            return args.func(args)
    except ValueError as exc:
        print(f"trihex: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"trihex: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
