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
(including a number to factorize that is not below 2^64, and an --output
file or stdout that cannot be written), 3 internal error (two computations
that must agree did not).
Every command writes through `_emit`, a chunk at a time as it comes:
`enumerate` SEGMENT signatures of its lazy stream, `build --format
structured` SEGMENT vertices of its rotation table, `count` a piece of its
range, `verify` the lines of one vertex count.  This module lays out every
CSV row and JSON document, each chunk of rows with one `%` (`_join`);
`_document` frames those of `count`, `enumerate` and `build`, streaming the
one list of each.  An --output regular file is replaced only when its
command returns.  `verify` admits its whole range, V by V, before it writes
a line.
Range work fans out to a process pool (--jobs, default 1; 0 = all cores;
never more workers than cores or vertex counts): `count` maps contiguous
pieces of its range, each sieved by `counting.columns` and formatted in its
worker; `verify` maps one vertex count per task.  Results come back in
order, so output is deterministic.
The pool and its modules (`concurrent.futures`, `multiprocessing`) are
imported only when more than one worker runs, so a --jobs 1 command does not
load them.  The parser is built once, at import.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
# One `count` row as a CSV line, or as an item of the structured document's
# "reports" list, laid out as json.dumps(..., indent=2) lays it out
_COUNT_ROW = {
    "csv": ",".join(["%d"] * len(counting.CountReport._fields)) + "\n",
    "structured": "    {\n" + ",\n".join(f'      "{name}": %d' for name in counting.CountReport._fields) + "\n    }",
}
# One signature as a line of text or CSV, or as an item of the structured "signatures"
# list; as structured, also one vertex's neighbors as an item of `build`'s "rot" list
_SIGNATURE = {"text": "(%d,%d,%d)\n", "csv": "%d,%d,%d\n", "structured": "    [\n      %d,\n      %d,\n      %d\n    ]"}

# A range holds at most this many vertex counts, refused before it is listed.
# On a 2-core Xeon VM with Python 3.11, the largest it admits, V = 4..2 000 000,
# takes 0.9-1.4 s and 15 MiB through `count --output` as CSV at --jobs 1
# (0.6-1.4 s and 17 MiB at --jobs 2), and 1.1-1.5 s and 18 MiB as structured
# (0.9-1.1 s and 23 MiB at --jobs 2), five runs each on a shared host, with the
# peak RSS of the largest process (VmHWM, and the workers' ru_maxrss): `count`
# writes each piece as it comes, so the cap bounds time, not memory.
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
    counting.quarter(start)
    counting.quarter(end)
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

    A file that cannot be opened is a usage error (exit 2).  A regular file,
    or a new one, is written as a temporary file in its directory, which
    replaces it, with its permission bits, only when the command returns: a
    command that is refused or raises, or whose write fails, leaves an
    existing file as it was and creates none.  A device or a FIFO is
    written directly.
    """
    if path is None:
        yield None
        return
    temp = None
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            fh = open(path, "wb")
        else:
            if mode is not None:
                # a file that cannot itself be written is refused, as when it was written in place
                open(path, "ab").close()
            # beside the file that a symlink names, so that replacing it keeps the link
            target = os.path.realpath(path)
            for attempt in itertools.count():
                name = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.{attempt}")
                try:
                    # 0o666 less the umask, the bits a new file gets
                    fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                except FileExistsError:
                    continue
                break
            temp = name
            fh = open(fd, "wb")
            if mode is not None:
                os.chmod(fd, stat.S_IMODE(mode))
    except OSError as exc:
        if temp is not None:
            os.unlink(temp)
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        yield fh
    except BaseException:
        # close() would fail again on the bytes a failed write left in the buffer, and hide its error
        with contextlib.suppress(OSError):
            fh.close()
        if temp is not None:
            os.unlink(temp)
        raise
    fh.close()
    if temp is not None:
        os.replace(temp, target)


def _emit(chunks: Iterable[str | bytes], args) -> None:
    """Write each chunk of text or bytes, in order and as it comes, to the --output file, or else to stdout.

    A write that fails, to the file or to stdout, is a usage error (exit 2);
    a reader that closes stdout early (`| head -1`) ends the output quietly.
    """
    fh = args.output_file
    for data in chunks:
        try:
            if fh is None:
                # text goes to sys.stdout itself, which may be a stand-in that takes text alone
                (sys.stdout if isinstance(data, str) else sys.stdout.buffer).write(data)
                sys.stdout.flush()
            else:
                fh.write(data.encode() if isinstance(data, str) else data)
                fh.flush()
        except OSError as exc:
            if fh is None:
                # stdout now points at devnull, so the flush at interpreter exit cannot fail again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                if isinstance(exc, BrokenPipeError):
                    return
            raise ValueError(f"cannot write {args.output or 'stdout'}: {exc.strerror}") from exc


def _document(args, header: str, doc: dict, items: Iterator[str]) -> Iterable[str]:
    """Chunks of one command's output: as CSV or text, `header` and then the items.

    As structured output, `doc` as json.dumps(..., indent=2) lays it out, with the items in its one
    empty list, a top-level value: each item the text of one or more entries of the list, indented to
    their depth; none leaves "[]".  The first item is made before this returns, so a command that
    fails on it writes nothing.
    """
    first = next(items, None)
    if args.format != "structured":
        return itertools.chain([header + (first or "")], items)
    head, tail = json.dumps(doc, indent=2).split("[]")
    if first is None:
        return [f"{head}[]{tail}\n"]
    return itertools.chain([f"{head}[\n{first}"], (",\n" + item for item in items), [f"\n  ]{tail}\n"])


def _join(fmt: str, template: str, values: tuple[int, ...]) -> str:
    """`template` filled row after row from `values`: as entries of a structured list, or as lines.

    One `%` lays out the whole chunk: the template, repeated once per row and
    joined, takes all the values at once.
    """
    rows = len(values) // template.count("%")
    return (",\n" if fmt == "structured" else "").join([template] * rows) % values


def _segments(fmt: str, triples: Iterable[tuple[int, int, int]]) -> Iterator[str]:
    """The triples laid out by `_SIGNATURE[fmt]`, SEGMENT at a time, until they run out."""
    values = itertools.chain.from_iterable(triples)
    return iter(lambda: _join(fmt, _SIGNATURE[fmt], tuple(itertools.islice(values, 3 * counting.SEGMENT))), "")


def _count_rows(piece: tuple[range, str]) -> str:
    """The text of one piece of `count` output, one sieve segment: CSV lines, or items of the structured "reports" list."""
    vs, fmt = piece
    # `cmd_count` cuts pieces of at most SEGMENT rows, so each is one segment
    (columns,) = counting.columns(vs[0], vs[-1])
    # row after row, column j at j, j + 8, j + 16, ...: slices interleave faster than zip builds rows
    values = [0] * (len(columns) * len(vs))
    for j, column in enumerate(columns):
        values[j :: len(columns)] = column
    # the columns and the list are dropped before the text is made
    del columns
    values = tuple(values)
    return _join(fmt, _COUNT_ROW[fmt], values)


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
    header = ",".join(counting.CountReport._fields) + "\n"
    _emit(_document(args, header, {"schema_version": SCHEMA_VERSION, "reports": []}, texts), args)
    return 0


def cmd_enumerate(args) -> int:
    pieces = _segments(args.format, _STREAMS[args.stream](args.v))
    header = "s,b,f\n" if args.format == "csv" else ""
    doc = {"schema_version": SCHEMA_VERSION, "V": args.v, "stream": args.stream, "signatures": []}
    _emit(_document(args, header, doc, pieces), args)
    return 0


def cmd_build(args) -> int:
    sig = parse_signature(args.sig)
    graph.check_export(vertex_count(sig), args.format)
    rot = graph.build(sig)
    census = graph.validate(rot)
    if args.format == "structured":
        doc = {"n": len(rot), "signature": list(sig), "rot": [], "faces": census}
        _emit(_document(args, "", doc, _segments("structured", rot)), args)
    else:
        _emit([graph.export(rot, args.format)], args)
    # after the output, so that a failed write leaves one stderr line
    if not args.quiet:
        print(
            f"signature {sig}: {len(rot)} vertices, faces "
            + ", ".join(f"{count} of length {k}" for k, count in census.items()),
            file=sys.stderr,
        )
    return 0


def _verify_one(v: int, with_graphs: bool) -> tuple[int, list[str]]:
    try:
        enumeration.verify(v)
    except VerificationFailureError as exc:
        return v, [f"{exc.field}: expected {exc.expected}, got {exc.actual}"]
    return v, enumeration.verify_graphs(v, enumeration.trihex_reps(v)) if with_graphs else []


def cmd_verify(args) -> int:
    vs = _parse_range(args)
    # the whole range is admitted, V by V, before any line is written
    work = 0
    for v in vs:
        enumeration.check_signatures(v)
        work += counting.report(v).trihexes * v
        if args.with_graphs and work > MAX_GRAPH_WORK:
            raise ValueError(
                f"graph work, trihexes(V) * V summed, reaches {work} by V={v}; "
                f"verify --with-graphs holds at most {MAX_GRAPH_WORK}"
            )
    results = _map_ordered(functools.partial(_verify_one, with_graphs=args.with_graphs), vs, args.jobs)
    failed: list[int] = []

    def report() -> Iterator[str]:
        for v, problems in results:
            if problems:
                failed.append(v)
                yield f"V={v}: FAIL\n" + "".join(f"  {p}\n" for p in problems)
            elif not args.quiet:
                yield f"V={v}: ok\n"
        yield f"checked {len(vs)} vertex counts, {len(failed)} failures\n"

    _emit(report(), args)
    return 1 if failed else 0


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
