"""Tests for the command-line interface: formats, determinism, exit codes."""

import hashlib
import json
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

import trihex
from golden_counts import TABLE
from trihex import cli, counting, enumeration, graph
from trihex.numtheory import factorize
from trihex.cli import main
from trihex.errors import InternalInconsistencyError
from trihex.signature import has_mirror_symmetry, parse_signature


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_single_row(capsys):
    code, out, _ = run_cli(capsys, "count", "--v", "28")
    assert code == 0
    assert out.splitlines() == [
        "V,sigma,delta,mu,nu,trihexes,gamma,rot_classes",
        "28,8,2,2,0,4,3,1",
    ]


def test_count_full_table_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "count", "--from", "4", "--to", "360")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 91
    golden = {v: (t, g) for v, t, g in TABLE}
    for line in lines[1:]:
        v, *_rest = (int(x) for x in line.split(","))
        fields = line.split(",")
        assert (int(fields[5]), int(fields[6])) == golden[v]


def test_count_rejects_bad_vertex_count(capsys):
    code, _, err = run_cli(capsys, "count", "--v", "6")
    assert code == 2
    assert "multiple" in err


def test_count_rejects_reversed_range(capsys):
    code, _, err = run_cli(capsys, "count", "--from", "40", "--to", "4")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    ["count --v 28 --from 4 --to 400", "count --v 28 --from 4", "verify --v 28 --to 40",
     "enumerate --v 28 --from 4 --to 40"],
)
def test_v_with_range_exits_2(capsys, argv):
    if argv.startswith("enumerate"):
        # enumerate has no --from or --to, so argparse refuses them
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --from 4 --to 40" in capsys.readouterr().err
    else:
        assert run_cli(capsys, *argv.split()) == (2, "", "trihex: give either --v or both --from and --to\n")


def test_parses_share_no_state(tmp_path, capsys):
    # the parser is built once, at import; one command's options must not leak into the next
    code, out, _ = run_cli(capsys, "count", "--v", "28", "--format", "structured")
    assert (code, json.loads(out)["reports"][0]["V"]) == (0, 28)
    csv = "V,sigma,delta,mu,nu,trihexes,gamma,rot_classes\n28,8,2,2,0,4,3,1\n"
    assert run_cli(capsys, "count", "--v", "28") == (0, csv, "")
    assert run_cli(capsys, "verify", "--v", "28", "--quiet") == (0, "checked 1 vertex counts, 0 failures\n", "")
    assert run_cli(capsys, "verify", "--v", "28") == (0, "V=28: ok\nchecked 1 vertex counts, 0 failures\n", "")
    path = tmp_path / "count.csv"
    assert run_cli(capsys, "count", "--v", "28", "--output", str(path)) == (0, "", "")
    assert path.read_text() == csv
    assert run_cli(capsys, "count", "--v", "28") == (0, csv, "")


def test_count_range_keeps_factorize_cache_bounded(tmp_path):
    # rows come from the range sieve, not factorize, and nothing retains
    # every row's factorization
    factorize.cache_clear()
    tracemalloc.start()
    try:
        assert main(["count", "--from", "4", "--to", "80000", "--output", str(tmp_path / "t.csv")]) == 0
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2 * 2**20, retained
    info = factorize.cache_info()
    assert info.hits + info.misses == 0, info


def test_count_structured(capsys):
    code, out, _ = run_cli(capsys, "count", "--v", "4", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["reports"][0] == {
        "V": 4, "sigma": 1, "delta": 1, "mu": 1, "nu": 1,
        "trihexes": 1, "gamma": 1, "rot_classes": 1,
    }


def test_count_deterministic_across_jobs(capsys):
    # 15 000 rows: four sieve segments, cut into pieces for the pool
    for fmt in ("csv", "structured"):
        argv = ["count", "--from", "4", "--to", "60000", "--format", fmt]
        serial = run_cli(capsys, *argv, "--jobs", "1")
        assert serial[0] == 0 and serial[2] == "", fmt
        for jobs in ("2", "0"):
            assert run_cli(capsys, *argv, "--jobs", jobs) == serial, (fmt, jobs)


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the pool size and maps serially."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "argv, workers",
    [
        ("count --from 4 --to 8 --jobs 5000", [2]),
        ("count --from 4 --to 400 --jobs 5000", [3]),
        ("count --from 4 --to 400 --jobs 2", [2]),
        ("count --from 4 --to 400 --jobs 0", [3]),
        ("count --v 28 --jobs 5000", []),
        ("verify --from 4 --to 40 --jobs 5000", [3]),
    ],
)
def test_jobs_capped_at_cores_and_items(monkeypatch, capsys, argv, workers):
    # with the fork start method every worker starts on the first submit, so
    # the pool size is what --jobs can cost; output is the serial output
    serial = run_cli(capsys, *argv.split()[:-2])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert run_cli(capsys, *argv.split()) == serial
    assert RecordingExecutor.sizes == workers


def test_jobs_environment_variable_is_ignored(monkeypatch, capsys):
    # --jobs is the only worker-count setting
    monkeypatch.setenv("TRIHEX_JOBS", "-1")
    code, out, err = run_cli(capsys, "count", "--v", "4")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("4,")


def test_count_output_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "count", "--v", "8", "--output", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == "V,sigma,delta,mu,nu,trihexes,gamma,rot_classes\n8,3,0,1,0,1,1,0\n"


def test_enumerate_streams(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--v", "28", "--stream", "coinciding")
    assert code == 0
    assert out == "(6,0,2)\n(6,0,4)\n"

    code, out, _ = run_cli(capsys, "enumerate", "--v", "4", "--stream", "all")
    assert code == 0
    assert out == "(0,0,0)\n"

    code, out, _ = run_cli(capsys, "enumerate", "--v", "60", "--stream", "self-mirror")
    assert code == 0
    assert "(4,2,1)" in out


def test_enumerate_formats(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--v", "28", "--stream", "reps", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "s,b,f"
    assert len(out.splitlines()) == 5

    code, out, _ = run_cli(capsys, "enumerate", "--v", "28", "--stream", "reps", "--format", "structured")
    doc = json.loads(out)
    assert doc["V"] == 28
    assert doc["signatures"] == [[0, 6, 0], [6, 0, 1], [6, 0, 2], [6, 0, 4]]


def test_enumerate_requires_v(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--stream", "reps"])
    assert excinfo.value.code == 2
    assert "the following arguments are required: --v" in capsys.readouterr().err


def test_build_dot(capsys):
    code, out, err = run_cli(capsys, "build", "--sig", "0,0,0", "--format", "dot")
    assert code == 0
    assert out.count("--") == 6
    assert "4 vertices" in err


def test_build_planar_code_to_file(tmp_path, capsys):
    path = tmp_path / "graph.plc"
    code, _, err = run_cli(capsys, "build", "--sig", "6,2,1", "--format", "planar_code",
                           "--output", str(path))
    assert code == 0
    data = path.read_bytes()
    assert data.startswith(b">>planar_code<<")
    assert data[len(b">>planar_code<<")] == 84
    assert "84 vertices" in err


def test_build_planar_code_refuses_more_than_65535_vertices(tmp_path, capsys):
    # plantri's 2-byte entries cannot name vertex 65 536 or beyond
    path = tmp_path / "graph.plc"
    for output in ([], ["--output", str(path)]):
        code, out, err = run_cli(capsys, "build", "--sig", "16384,0,0",
                                 "--format", "planar_code", *output)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "65535" in err
    assert not path.exists()


def test_build_refuses_planar_code_before_building(monkeypatch, capsys):
    # the vertex count comes from the signature, so no graph is built or validated
    def refused(_):
        raise AssertionError("built a graph that planar_code cannot hold")

    monkeypatch.setattr(graph, "build", refused)
    monkeypatch.setattr(graph, "validate", refused)
    expected = "trihex: planar_code holds at most 65535 vertices (2-byte entries), got 65540\n"
    assert run_cli(capsys, "build", "--sig", "16384,0,0", "--format", "planar_code") == (2, "", expected)
    with pytest.raises(AssertionError, match="^built a graph that planar_code cannot hold$"):
        main(["build", "--sig", "16384,0,0", "--format", "dot"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (f"enumerate --v {4 * (2**61 - 1)}",
         f"V={4 * (2**61 - 1)} has {2**61} signatures; enumeration holds at most 2000000"),
        (f"verify --v {4 * (2**61 - 1)}",
         f"V={4 * (2**61 - 1)} has {2**61} signatures; enumeration holds at most 2000000"),
        ("build --sig 250000,0,0 --format dot", "build holds at most 1000000 vertices, got 1000004"),
        ("count --from 4 --to 2000004", "4..2000004 has 500001 vertex counts; a range holds at most 500000"),
    ],
)
def test_work_growing_with_v_is_refused(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"trihex: {message}\n")


def test_range_is_refused_before_it_is_listed(monkeypatch, capsys):
    # 10^12 vertex counts: listing them first would exhaust memory, so the
    # refusal may not even call range
    def no_range(*args):
        raise AssertionError("listed the range before refusing it")

    monkeypatch.setattr(cli, "range", no_range, raising=False)
    assert run_cli(capsys, "count", "--from", "4", "--to", "4000000000000") == (
        2, "", "trihex: 4..4000000000000 has 1000000000000 vertex counts; a range holds at most 500000\n"
    )


@pytest.mark.parametrize(
    "argv, work, v",
    [
        # one V that passes MAX_SIGNATURES and MAX_VERTICES but would build 348 480 graphs of 997 920 vertices
        ("--v 997920", 347755161600, 997920),
        # the first V at which the sum passes the cap; the range's end is never reached
        ("--from 4 --to 2000000", 5080388, 760),
    ],
)
def test_verify_with_graphs_refuses_too_much_graph_work(monkeypatch, capsys, argv, work, v):
    def no_work(*args):
        raise AssertionError("worked before refusing")

    for module, name in ((enumeration, "verify"), (graph, "build")):
        monkeypatch.setattr(module, name, no_work)
    assert run_cli(capsys, "verify", "--with-graphs", *argv.split()) == (
        2, "", f"trihex: graph work, trihexes(V) * V summed, reaches {work} by V={v}; "
        "verify --with-graphs holds at most 5000000\n"
    )


@pytest.mark.parametrize(
    "command",
    ["count --v 28", "verify --v 28", "enumerate --v 8", "build --sig 0,0,0 --format dot", "congruence --n 7"],
)
def test_negative_jobs_is_refused(capsys, command):
    assert run_cli(capsys, *command.split(), "--jobs", "-1") == (
        2, "", "trihex: --jobs must be nonnegative, got -1\n"
    )


@pytest.mark.parametrize("command", ["count --v 28", "verify --v 28", "build --sig 6,2,1 --format planar_code"])
def test_unwritable_output_is_refused(tmp_path, monkeypatch, capsys, command):
    # a missing directory and a directory: one stderr line and exit 2, not a
    # traceback and exit 1, and before any work, so the work may not even run
    def no_work(*args):
        raise AssertionError("worked before opening --output")

    for module, name in ((counting, "reports"), (enumeration, "verify"), (graph, "build")):
        monkeypatch.setattr(module, name, no_work)
    for path, reason in ((tmp_path / "missing" / "out", "No such file or directory"), (tmp_path, "Is a directory")):
        assert run_cli(capsys, *command.split(), "--output", str(path)) == (
            2, "", f"trihex: cannot write {path}: {reason}\n"
        ), path


@pytest.mark.parametrize(
    "command",
    [
        "count --v 6",
        f"verify --v {4 * (2**61 - 1)}",
        f"enumerate --v {4 * (2**61 - 1)}",
        "build --sig 250000,0,0 --format dot",
        f"congruence --n {2**64}",
        "count --from 4 --to 2000004",
        "verify --v 997920 --with-graphs",
    ],
)
def test_refused_command_leaves_output_alone(tmp_path, capsys, command):
    # the file is opened before the work, but a refusal creates no file and
    # leaves an existing one as it was
    path = tmp_path / "new.csv"
    code, out, err = run_cli(capsys, *command.split(), "--output", str(path))
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert not path.exists()
    path.write_bytes(b"kept\n")
    assert run_cli(capsys, *command.split(), "--output", str(path)) == (code, out, err)
    assert path.read_bytes() == b"kept\n"


def test_output_replaces_a_longer_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 10_000)
    assert run_cli(capsys, "count", "--v", "28", "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == b"V,sigma,delta,mu,nu,trihexes,gamma,rot_classes\n28,8,2,2,0,4,3,1\n"


def test_build_validates_before_export(monkeypatch, capsys):
    validated = []
    monkeypatch.setattr(graph, "validate", lambda g: validated.append(g) or graph.face_census(g))
    assert run_cli(capsys, "build", "--sig", "6,2,1", "--format", "dot")[0] == 0
    assert validated == [graph.build(parse_signature("6,2,1"))]

    def broken(g):
        raise InternalInconsistencyError("graph is not connected")

    monkeypatch.setattr(graph, "validate", broken)
    assert run_cli(capsys, "build", "--sig", "6,2,1", "--format", "dot") == (
        3, "", "trihex: internal error: graph is not connected\n"
    )


def test_build_structured_traces_faces_once(monkeypatch, capsys):
    # validate's census serves the stderr summary and the structured export
    expected = run_cli(capsys, "build", "--sig", "13,1,4", "--format", "structured")
    traces = []
    faces = graph.faces

    def counted(g):
        traces.append(g)
        return faces(g)

    monkeypatch.setattr(graph, "faces", counted)
    assert run_cli(capsys, "build", "--sig", "13,1,4", "--format", "structured") == expected
    assert expected[2] == "signature (13,1,4): 112 vertices, faces 4 of length 3, 54 of length 6\n"
    assert len(traces) == 1
    sig = parse_signature("13,1,4")
    assert graph.export(graph.build(sig), sig, "structured") == expected[1].encode()
    assert len(traces) == 2


def test_build_rejects_malformed_signature(capsys):
    for sig, message in (
        ("1,0,2", "offset must satisfy 0 <= f <= s: (1,0,2)"),
        ("-1,0,0", "spine and belt counts must be nonnegative: (-1,0,0)"),
        ("0,-2,0", "spine and belt counts must be nonnegative: (0,-2,0)"),
    ):
        code, out, err = run_cli(capsys, "build", f"--sig={sig}")
        assert (code, out, err) == (2, "", f"trihex: {message}\n")
    code, _, _ = run_cli(capsys, "build", "--sig", "1;0;2")
    assert code == 2


def test_verify_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "4", "--to", "60")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "V=4: ok"
    assert lines[-1] == "checked 15 vertex counts, 0 failures"


def test_verify_with_graphs(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "4", "--to", "32", "--with-graphs")
    assert code == 0
    assert "0 failures" in out


def test_verify_with_graphs_reports_graph_failure(monkeypatch, capsys):
    monkeypatch.setattr(enumeration, "has_mirror_symmetry", lambda sig: not has_mirror_symmetry(sig))
    code, out, _ = run_cli(capsys, "verify", "--v", "28", "--with-graphs", "--jobs", "1")
    assert code == 1
    assert out.splitlines() == [
        "V=28: FAIL",
        "  (0,6,0): chirality vs mirror symmetry",
        "  (6,0,1): chirality vs mirror symmetry",
        "  (6,0,2): chirality vs mirror symmetry",
        "  (6,0,4): chirality vs mirror symmetry",
        "checked 1 vertex counts, 1 failures",
    ]
    # the enumeration checks alone still pass
    code, out, _ = run_cli(capsys, "verify", "--v", "28", "--jobs", "1")
    assert code == 0


def test_verify_rejects_bad_v(capsys):
    code, _, _ = run_cli(capsys, "verify", "--v", "6")
    assert code == 2


def test_quiet_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "4", "--to", "20", "--quiet")
    assert code == 0
    assert out == "checked 5 vertex counts, 0 failures\n"
    code, _, err = run_cli(capsys, "build", "--sig", "0,0,0", "--format", "dot", "--quiet")
    assert code == 0
    assert err == ""


def test_congruence(capsys):
    code, out, _ = run_cli(capsys, "congruence", "--n", "7")
    assert code == 0
    assert out == "2 4\ncount 2\n"

    code, out, _ = run_cli(capsys, "congruence", "--n", "3")
    assert out == "1\ncount 1\n"

    code, out, _ = run_cli(capsys, "congruence", "--n", "9")
    assert out == "\ncount 0\n"


def test_congruence_structured(capsys):
    code, out, _ = run_cli(capsys, "congruence", "--n", "91", "--format", "structured")
    doc = json.loads(out)
    assert doc == {"schema_version": 1, "n": 91, "roots": [9, 16, 74, 81], "count": 4}


def test_congruence_root_count_mismatch_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "omega_count", lambda n: 3)
    code, out, err = run_cli(capsys, "congruence", "--n", "91")
    assert code == 3
    assert out == ""
    assert err == "trihex: internal error: 4 roots for n=91, the closed form says 3\n"


def test_congruence_bad_root_set_exits_3(monkeypatch, capsys):
    # the roots mod 91 are 9, 16, 74 and 81; each stand-in keeps the count at 4
    cases = {
        (9, 16, 74, 80): "80 does not solve x^2 + x + 1 = 0 (mod 91)",
        (9, 9, 74, 81): "roots mod 91 are not increasing residues: 9 after 9",
        (9, 16, 74, 172): "roots mod 91 are not increasing residues: 172 after 74",
    }
    for roots, message in cases.items():
        monkeypatch.setattr(cli, "solve_fast", lambda n, roots=roots: roots)
        assert run_cli(capsys, "congruence", "--n", "91") == (
            3, "", f"trihex: internal error: {message}\n"
        ), roots


def test_congruence_rejects_zero(capsys):
    assert run_cli(capsys, "congruence", "--n", "0") == (2, "", "trihex: cannot factorize 0; need n >= 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("congruence", "--n", str(2**64)),
        ("count", "--v", str(4 * 2**64)),
    ],
)
def test_beyond_64_bits_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"trihex: cannot factorize {2**64}; need n < 2^64\n"


def test_count_range_past_64_bits_is_refused_before_factoring(capsys):
    # V/4 = 2^64 - 40 .. 2^64: the 40 rows below the limit would take rho
    # about 0.4 s; the refusal is arithmetic on the range's ends
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--from", "73786976294838206304", "--to", "73786976294838206464")
    seconds = time.perf_counter() - started
    assert (code, out, err) == (2, "", f"trihex: cannot factorize {2**64}; need n < 2^64\n")
    assert seconds < 0.2, seconds


@pytest.mark.parametrize(
    "n,roots",
    [
        (3_000_000_019, 2),  # a prime = 1 (mod 3) above 2^31
        (2**61 - 1, 2),  # a Mersenne prime = 1 (mod 3)
        (1048609 * 1048627 * 1048633, 8),  # three 20-bit primes = 1 (mod 3)
    ],
)
def test_congruence_64_bit_time_and_memory(capsys, n, roots):
    def run():
        factorize.cache_clear()
        code, out, _ = run_cli(capsys, "congruence", "--n", str(n))
        assert code == 0
        assert out.endswith(f"\ncount {roots}\n")

    # best of three, so that one descheduling does not fail the test
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        run()
        seconds.append(time.perf_counter() - started)
    assert min(seconds) < 0.050, seconds

    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_import_leaves_numpy_out():
    # nor dataclasses, which would load inspect, ast and dis on every start
    src = pathlib.Path(trihex.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", "import sys, trihex.cli; print({'numpy', 'dataclasses'} & set(sys.modules))"],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout == "set()\n"


def fresh_stdout(*args: str) -> str:
    """Stdout of a fresh interpreter that sees the standard library and trihex alone (-S: no site-packages)."""
    src = pathlib.Path(trihex.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-S", *args],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return result.stdout


# run(argv) calls cli.main and returns its exit code and stdout bytes; pool() lists the pool's modules that are loaded
POOL_PROBE = """
import io, sys
import trihex.cli
def pool():
    return sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules))
def run(argv):
    out, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
    try:
        code = trihex.cli.main(argv)
        sys.stdout.flush()
        return code, sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = out
"""


@pytest.mark.parametrize(
    "command",
    ["count --from 4 --to 400", "enumerate --v 5040 --stream classes", "build --sig 6,2,1 --format dot --quiet",
     "verify --from 4 --to 60 --with-graphs", "congruence --n 91"],
)
def test_one_job_loads_no_pool(command):
    # the pool is imported only when more than one worker runs
    probe = POOL_PROBE + f"print(pool())\nprint(run({command.split() + ['--jobs', '1']!r})[0], pool())\n"
    assert fresh_stdout("-c", probe) == "[]\n0 []\n"


def test_two_jobs_load_the_pool_for_the_same_bytes():
    # two cores, so that --jobs 2 runs two workers on any machine
    probe = POOL_PROBE + """
trihex.cli.os.cpu_count = lambda: 2
serial = run(["count", "--from", "4", "--to", "400", "--jobs", "1"])
print(serial[0], pool())
print(run(["count", "--from", "4", "--to", "400", "--jobs", "2"]) == serial, pool())
"""
    assert fresh_stdout("-c", probe) == "0 []\nTrue ['concurrent.futures', 'multiprocessing']\n"


def test_runs_without_docstrings():
    # -OO strips docstrings, and the parser is built at import
    assert fresh_stdout("-OO", "-m", "trihex.cli", "count", "--v", "28").splitlines()[-1] == "28,8,2,2,0,4,3,1"


def test_count_survives_early_pipe_close():
    # a reader that stops after one line, as `trihex count ... | head -1` does;
    # the bare environment keeps stdout buffered (PYTHONUNBUFFERED=1 hides a fault)
    src = pathlib.Path(trihex.__file__).parent.parent
    with subprocess.Popen(
        [sys.executable, "-m", "trihex.cli", "count", "--from", "4", "--to", "40000"],
        env={"PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"V,sigma,delta,mu,nu,trihexes,gamma,rot_classes\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_enumerate_survives_early_pipe_close():
    # 1 999 994 signatures: the reader stops after the first piece is written
    src = pathlib.Path(trihex.__file__).parent.parent
    with subprocess.Popen(
        [sys.executable, "-m", "trihex.cli", "enumerate", "--v", "7999972", "--stream", "all"],
        env={"PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"(0,1999992,0)\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_enumerate_writes_its_stream_as_it_makes_it(tmp_path):
    # sigma(V/4) = 1 999 998, just under MAX_SIGNATURES: the document is 97 MB,
    # and building it whole took 1 179 MiB; the digest was recorded then.  The
    # child reads its own peak from Linux's VmHWM: its ru_maxrss would carry
    # the test runner's peak over exec
    path = tmp_path / "all.json"
    argv = ["enumerate", "--v", "3164688", "--stream", "all", "--format", "structured", "--output", str(path)]
    probe = f"""import trihex.cli
code = trihex.cli.main({argv!r})
print(code, *[line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")])
"""
    code, peak_kib = map(int, fresh_stdout("-c", probe).split())
    assert code == 0
    assert peak_kib < 60 * 1024, peak_kib
    digest = "a968f0227f31087af8ee5b0bcb7abebd75a9261b06b6cf51d4ab81d4c10df30a"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(start, end):
        raise InternalInconsistencyError(f"routes disagree at V={start}")

    monkeypatch.setattr(counting, "reports", broken)
    code, out, err = run_cli(capsys, "count", "--v", "28")
    assert code == 3
    assert out == ""
    assert err == "trihex: internal error: routes disagree at V=28\n"


def test_count_inexact_division_exits_3(monkeypatch, capsys):
    # a stand-in local value at 2^2: sigma 5, delta 2, mu 2, so 6 * gamma would be 15
    monkeypatch.setattr(counting, "_local", lambda p, k: (5, 2, 2, 0))
    assert run_cli(capsys, "count", "--v", "16") == (
        3, "", "trihex: internal error: gamma for V=16: 15 not divisible by 6\n"
    )


# sha256 of the exact output bytes: the build and verify entries recorded
# before canonical codes and the graph checks were restructured, the count,
# enumerate and congruence entries before the CLI emitters were merged, and
# the `--stream reps` entries before representatives were sieved one divisor
# pair at a time; any change to an output format shows up here.
PINNED_SHA256 = {
    "build --sig 0,0,0 --format planar_code": "460f4ac94d3a84d4e9fe0a00a5be44eac05b93a7ef869573f055767c0c8f7264",
    "build --sig 0,0,0 --format dot": "c10490376eece2cbaaaa13c6c59a38d6819f7e33871bc5d9501d764a84f2771d",
    "build --sig 0,0,0 --format structured": "02ba7cb541d1f2a2367447207c1baf35bed376c97ee369d5e3ccb0f01544cb94",
    "build --sig 6,2,1 --format planar_code": "f4bf6e51006e3244164f9e6363909995aa468166b51b594b2d2a135ea7fd04e9",
    "build --sig 6,2,1 --format dot": "c157596f0bc21158fd9cc9b4f673d50c2842ce55e258a68ddebc3a6d08c3159d",
    "build --sig 6,2,1 --format structured": "d643fc1ed80b22359c36c3203459e491f0ebd3eca192ebc41d14bb5272425e3a",
    "build --sig 69,0,0 --format planar_code": "76c0ea2c8edf3a263737664476458def8e19ba51673a449bfff1c1d49282ef9e",
    "build --sig 69,0,0 --format dot": "1d816f6a29991394bfb483c0696ddd4f9f98848b78971b5e9b446e5ada826968",
    "build --sig 69,0,0 --format structured": "1d2e523e8546a6836e500604e05c08150e691c61a079c2bbe9444b4d951c01b3",
    "build --sig 13,1,4 --format planar_code": "029598c6799e623594c95f233e87bf3e33ccacd92e9006c5294144690a483cdb",
    "build --sig 13,1,4 --format dot": "fc95a5f2584f68f441fb6394cdb75aa75c15c1d2e3aa7a77d7a81278c1d70a09",
    "build --sig 13,1,4 --format structured": "661c4cc8e645e3ddcd3f80879f35dee9edcc943ce35638a72e928a3230f8be1e",
    "verify --with-graphs --from 4 --to 60": "994b0e5eb56ca9fabf5a9b72f623cbdf5df9cbccfb85be083864c173da6465c7",
    "count --from 4 --to 400": "cbf4c1249144ea631e88d3a17154e9d3a7b4abb63d963d6267141f0f0423fc43",
    "count --from 4 --to 400 --format structured": "e10760343873cb81f53d95c26f08b6642f0b088321741eea9fad10515d5a7cdd",
    # V/4 = 997 000..1 023 000: past 997^2, over segment and pool-piece boundaries
    "count --from 3988000 --to 4092000": "37518ce9829157812b6f435c9931dbefa105deb87fe2dc641c84c5764e0f667c",
    "count --from 3988000 --to 4092000 --format structured": "6be7964deca24997da8e4478330077161b610536f81956e5774c5749777a760f",
    # 1 024 rows at V/4 = 10^12, and the last 64 below 2^64: cofactors that rho splits
    "count --from 4000000000000 --to 4000000004092": "3db074cbfc9b7e9b099ee09ac38017d373cd183884dfadaafbb35542a83d930a",
    "count --from 4000000000000 --to 4000000004092 --format structured": "80f89da742d80c464e1e005f6ece12c800c9f6de5bb2a9290147fb2c0dd282f9",
    "count --from 73786976294838206208 --to 73786976294838206460": "456c7a655ab5ba172666daa14666f6248047cffc8b6f9da7d276400c76709e5a",
    "count --from 73786976294838206208 --to 73786976294838206460 --format structured": "dae8d9f29e48878452fbea6ec341554b593db7077784c411b78b38519ce7cf16",
    "enumerate --v 5040 --stream all": "c6d2893c0e40e7afc9721cc2cefc48fbc5076dc1a1c2b557f501fa90f7e0ac09",
    "enumerate --v 5040 --stream all --format csv": "9bc225066e4699160f3d4857220ca16bc2fdda1d8d0afeb70103411b46f79bcd",
    "enumerate --v 5040 --stream all --format structured": "f4417aab83f971f67a41cd717cb711222ccab1e1233939d20e39c30a68890b73",
    "enumerate --v 5040 --stream classes": "dda48faeddce04557e0dfa9003b0029bcee1224d841abde0aedb30821fb197d5",
    "enumerate --v 5040 --stream classes --format csv": "49cdf8fb6aab23771a43b80f6990bc1f2eb0da18b874777c8958d766fd634f0e",
    "enumerate --v 5040 --stream classes --format structured": "0fb249a26a96ac4c2be68718b61be0d19897f36e75e6b674ceec62d5734e09bc",
    "enumerate --v 5040 --stream reps": "2027916b41920da371a1a4ce002ad50b37c127ba22abd464c87a468d82c32078",
    "enumerate --v 5040 --stream reps --format csv": "02853560ad4a1889d4b9460832f4bbc71fd35fccc0eb84127041559c314513d8",
    "enumerate --v 5040 --stream reps --format structured": "be6fb114e9d2bb99fb1cf441610c813f8dd4bbc4fd15e8aa002273e98b565c7d",
    "enumerate --v 20160 --stream reps": "37fc163fb3735de5547e4f1cfdfbcc30e7a0c7a4bfaf0afc1a243873392755df",
    # tie-rich V/4 = 5 040 * k: the class stream reads the mirror representatives of tied offsets
    "enumerate --v 20160 --stream classes": "87d0a0f0a7bf9602511f9ce1c4b26917aacedc8c5c87703de5b272770249227b",
    "enumerate --v 60480 --stream reps": "b9be21484ad04f9bfaefd5590c14a336d7b5ecd65577bd2df649bda84a0f3ef6",
    "enumerate --v 60480 --stream classes": "0fcfbcb295368cd0b11630621a2a95f254ee4dd678ee95350c5521f26c863d20",
    # sigma(V/4) = 1 999 994, just under MAX_SIGNATURES; its largest pair (1 999 993, 1) is all ties
    "enumerate --v 7999972 --stream classes": "e46b263cfbb7baa927a8c8743e72cea73a38f7837811823f4c883d2345693a7b",
    # recorded before the streams were made lazy: the self-mirror and
    # coinciding streams, empty ones (V = 5040 and V = 8 have no coinciding
    # signature), and a single signature
    "enumerate --v 5040 --stream coinciding": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "enumerate --v 5040 --stream coinciding --format csv": "c4e666e9bde5bafc20fc93e10c52d93dc1227b623d773e03d5a217e10d2bd900",
    "enumerate --v 5040 --stream coinciding --format structured": "df06bbb5c4e7c576be02105f040a85bb190fd519ad64745e10b8defed2b93c98",
    "enumerate --v 5040 --stream self-mirror": "e6982deed602c8d421793eae646bf7da3324862041b1d952f42019d100941a4d",
    "enumerate --v 5040 --stream self-mirror --format csv": "4dc98515bee781e044f0d23f93ead52daaf4bdd9a6ecc8c7dad6268d30a78160",
    "enumerate --v 5040 --stream self-mirror --format structured": "ca56ce7b22bdb3b23c46ece4475019e307bf3058f0759dc6c1b1a1cae4a427ed",
    "enumerate --v 8 --stream coinciding": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "enumerate --v 8 --stream coinciding --format csv": "c4e666e9bde5bafc20fc93e10c52d93dc1227b623d773e03d5a217e10d2bd900",
    "enumerate --v 8 --stream coinciding --format structured": "9401c87a315c7123b89dfd3dfb7f3a16fc79197ad2f0bbdc5d292f44b282854f",
    "enumerate --v 4 --stream all --format structured": "68ba01cd30a154e5c2ca7ab6a96f207891e7af1c0ba3d87c50ebb466e2aa44a8",
    # V/4 = 3 * 7^2 * 13 * 19: twelve coinciding signatures over two divisor pairs
    "enumerate --v 145236 --stream coinciding": "49e30540cf238248357a73a48995000936fabc15206b7b7bf712a0c8c21752f2",
    "enumerate --v 145236 --stream coinciding --format csv": "a09b4f6bb0e88c138feccc49f5db8af45e8968bd48599bad8fedc2b7161e915d",
    "enumerate --v 145236 --stream coinciding --format structured": "4ad4ce240d83990b42ac6f061b2970810377245c6917d3aaf70e8fd41a6f3d20",
    "congruence --n 91": "253c41ae3211b61a03361166bffecedcc07f5d1510f6734825441ae19f165895",
    "congruence --n 91 --format structured": "4d27fae2b3ab03659d0e162f57916a22c40afda025a2748215226e1f55d10cfa",
}


def test_output_bytes_pinned(tmp_path, capsysbinary):
    # every command through both branches of the emitter: the --output file and stdout
    path = tmp_path / "out"
    for command, digest in PINNED_SHA256.items():
        assert main(command.split() + ["--output", str(path)]) == 0, command
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, command
        capsysbinary.readouterr()
        assert main(command.split()) == 0, command
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest, command
