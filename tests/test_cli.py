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
from trihex import cli, counting, enumeration
from trihex.numtheory import factorize
from trihex.cli import main
from trihex.errors import InternalInconsistencyError
from trihex.signature import has_mirror_symmetry


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
    assert run_cli(capsys, *argv.split()) == (2, "", "trihex: give either --v or both --from and --to\n")


def test_parses_share_no_state(capsys):
    # the parser is built once per process; one command's options must not leak into the next
    code, out, _ = run_cli(capsys, "count", "--v", "28", "--format", "structured")
    assert (code, json.loads(out)["reports"][0]["V"]) == (0, 28)
    csv = "V,sigma,delta,mu,nu,trihexes,gamma,rot_classes\n28,8,2,2,0,4,3,1\n"
    assert run_cli(capsys, "count", "--v", "28") == (0, csv, "")


def test_count_range_keeps_factorize_cache_bounded(tmp_path):
    # a row asks for factorize(V/4) four times: the cache keeps those hits
    # without retaining every row's factorization
    factorize.cache_clear()
    tracemalloc.start()
    try:
        assert main(["count", "--from", "4", "--to", "80000", "--output", str(tmp_path / "t.csv")]) == 0
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2 * 2**20, retained
    assert factorize.cache_info().hits >= 3 * (80000 // 4), factorize.cache_info()


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
    _, serial, _ = run_cli(capsys, "count", "--from", "4", "--to", "120")
    _, parallel, _ = run_cli(capsys, "count", "--from", "4", "--to", "120", "--jobs", "2")
    assert serial == parallel


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
    code, _, err = run_cli(capsys, "enumerate", "--from", "4", "--to", "8")
    assert code == 2


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


def test_build_rejects_malformed_signature(capsys):
    code, _, err = run_cli(capsys, "build", "--sig", "1,0,2")
    assert code == 2
    assert "offset" in err
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
    monkeypatch.setattr(cli, "omega_count", lambda f: 3)
    code, out, err = run_cli(capsys, "congruence", "--n", "91")
    assert code == 3
    assert out == ""
    assert err == "trihex: internal error: 4 roots for n=91, the closed form says 3\n"


def test_congruence_rejects_zero(capsys):
    code, _, _ = run_cli(capsys, "congruence", "--n", "0")
    assert code == 2


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
    src = pathlib.Path(trihex.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", "import sys, trihex.cli; print('numpy' in sys.modules)"],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout == "False\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(v):
        raise InternalInconsistencyError(f"routes disagree at V={v}")

    monkeypatch.setattr(counting, "report", broken)
    code, out, err = run_cli(capsys, "count", "--v", "28")
    assert code == 3
    assert out == ""
    assert err == "trihex: internal error: routes disagree at V=28\n"


# sha256 of the exact output bytes, recorded before canonical codes and the
# graph checks were restructured; any change to an export format or to the
# verify report shows up here.
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
}


def test_output_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "out"
    for command, digest in PINNED_SHA256.items():
        assert main(command.split() + ["--output", str(path)]) == 0, command
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, command
