"""Tests for the command-line interface: formats, determinism, exit codes."""

import json

import pytest

from golden_counts import TABLE
from trihex import counting
from trihex.cli import main
from trihex.errors import InternalInconsistencyError


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


def test_congruence_rejects_zero(capsys):
    code, _, _ = run_cli(capsys, "congruence", "--n", "0")
    assert code == 2


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
