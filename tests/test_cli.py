import json
import os
import resource
import subprocess
import sys

import pytest

import berge
from berge import (
    BergeCycle,
    BergePath,
    is_valid_berge_cycle,
    is_valid_berge_path,
    parse_hg,
)
from berge.cli import main, read_report
from berge.errors import FormatError


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _report(capsys, argv):
    code, out = _run(capsys, argv)
    return code, read_report(out)


def test_construct_round_trip(capsys):
    code, out = _run(capsys, ["construct", "fano"])
    assert code == 0
    h = parse_hg(out)
    assert h.n == 7 and h.m == 7
    code, out = _run(capsys, ["construct", "matching_k2", "--n", "6"])
    assert parse_hg(out).m == 2


def test_construct_to_file(tmp_path, capsys):
    path = tmp_path / "star.hg"
    code, _ = _run(capsys, ["construct", "star_k3", "--n", "7", "-o", str(path)])
    assert code == 0
    assert parse_hg(path.read_text()).m == 3


def test_construct_bad_params(capsys):
    assert main(["construct", "sts_bose", "--n", "8"]) == 2
    assert main(["construct", "star_k3"]) == 2
    # a parameter the family ignores is refused, not dropped
    assert main(["construct", "fano", "--n", "5"]) == 2
    assert main(["construct", "star_k3", "--n", "7", "--copies", "2"]) == 2
    assert capsys.readouterr().err.count("error [usage]: family") == 2


def test_shadow_verb(tmp_path, capsys):
    f = tmp_path / "t.hg"
    f.write_text("3 1\n0 1 2\n")
    code, rep = _report(capsys, ["shadow", str(f)])
    assert code == 0
    assert rep["result"]["n"] == 3
    assert rep["result"]["shadow_edges"] == 3


def test_stats_verb(tmp_path, capsys):
    f = tmp_path / "fano.hg"
    main(["construct", "fano", "-o", str(f)])
    capsys.readouterr()
    code, rep = _report(capsys, ["stats", str(f)])
    assert code == 0
    r = rep["result"]
    assert (r["n"], r["m"], r["shadow_edges"], r["min_shadow_degree"]) == (7, 7, 21, 6)


def test_solve_verbs(tmp_path, capsys):
    f = tmp_path / "fano.hg"
    main(["construct", "fano", "-o", str(f)])
    capsys.readouterr()
    code, rep = _report(capsys, ["solve", "longest-path", str(f)])
    assert code == 0 and rep["result"]["length"] == 6
    # witness re-validates
    h = parse_hg(f.read_text())
    w = BergePath(
        vertices=tuple(rep["result"]["witness_vertices"]),
        hyperedges=tuple(tuple(e) for e in rep["result"]["witness_edges"]),
    )
    assert is_valid_berge_path(h, w)
    code, rep = _report(capsys, ["solve", "circumference", str(f)])
    assert code == 0 and rep["result"]["length"] == 7
    code, rep = _report(capsys, ["solve", "has-path", str(f), "--k", "7"])
    assert code == 0 and rep["result"]["found"] is False
    code, rep = _report(capsys, ["solve", "has-path", str(f), "--k", "6"])
    assert rep["result"]["found"] is True


def test_solve_acyclic_circumference(tmp_path, capsys):
    f = tmp_path / "t.hg"
    f.write_text("3 1\n0 1 2\n")
    code, rep = _report(capsys, ["solve", "circumference", str(f)])
    assert code == 0 and rep["result"]["length"] is None


def test_missing_file_exits_2(capsys):
    assert main(["solve", "longest-path", "missing.hg"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_hg_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.hg"
    f.write_text("4 2\n0 1 2\n0 1 3\n")
    assert main(["stats", str(f)]) == 2
    assert "linearity" in capsys.readouterr().err


def test_check_claims_clean(tmp_path, capsys):
    f = tmp_path / "c.hg"
    f.write_text("4 4\n0 1\n0 2\n1 2\n2 3\n")
    code, rep = _report(capsys, ["check", "claims", str(f)])
    assert code == 0
    r = rep["result"]
    assert r["cycle_length"] == 3
    assert r["checked_vertices"] == 1
    assert r["violations"] == []


def test_check_claims_acyclic(tmp_path, capsys):
    f = tmp_path / "a.hg"
    f.write_text("3 1\n0 1 2\n")
    code, rep = _report(capsys, ["check", "claims", str(f)])
    assert code == 0 and rep["result"]["cycle_length"] is None


def test_verify_remark_cli(tmp_path, capsys):
    code, rep = _report(capsys, ["verify", "remark", "--n", "6", "--k", "2",
                                 "--jobs", "1"])
    assert code == 0
    r = rep["result"]
    assert r["holds"] is True and r["max_shadow_edges"] == 6
    assert rep["command"]["campaign"] == "remark"


def test_verify_rejects_bad_k(capsys):
    assert main(["verify", "theorem-uniform", "--n", "5", "--k", "3"]) == 2
    assert main(["verify", "remark", "--n", "5", "--k", "4"]) == 2


def test_verify_cap_exit(capsys):
    assert main(["verify", "theorem-shadow", "--n", "9", "--k", "4"]) == 2


def test_malformed_cap_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HX_CAP_N", "abc")
    assert main(["verify", "claims", "--n", "3"]) == 2
    assert "error [usage]: HX_CAP_N must be an integer" in capsys.readouterr().err


def test_class_count_at_n9(monkeypatch, capsys):
    # HX_CAP_N lifts the walk's cap; the extremal classes are then counted
    monkeypatch.setenv("HX_CAP_N", "9")
    code, rep = _report(capsys, ["verify", "remark", "--n", "9", "--k", "2",
                                 "--jobs", "2"])
    assert code == 0
    r = rep["result"]
    assert r["extremal_class_count"] == 1
    assert r["extremal_matches_family"] is True


def test_output_determinism(tmp_path, capsys):
    args = ["verify", "claims", "--n", "5", "--samples", "40", "--seed", "9"]
    _, out1 = _run(capsys, args + ["--jobs", "1"])
    _, out2 = _run(capsys, args + ["--jobs", "2"])
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing")
    b.pop("timing")
    assert a == b


REPORT_VERBS = [
    ["shadow", "{f}"],
    ["stats", "{f}"],
    ["solve", "longest-path", "{f}"],
    ["solve", "circumference", "{f}"],
    ["solve", "has-path", "{f}", "--k", "3"],
    ["check", "claims", "{f}"],
    ["verify", "theorem-uniform", "--n", "5", "--k", "4"],
    ["verify", "theorem-shadow", "--n", "4", "--k", "4"],
    ["verify", "remark", "--n", "4", "--k", "2"],
    ["verify", "claims", "--n", "4"],
    ["verify", "claims", "--n", "5", "--samples", "5", "--seed", "3"],
]


@pytest.mark.parametrize("argv", REPORT_VERBS, ids=lambda a: "-".join(a[:2]))
def test_report_is_one_line(tmp_path, capsys, argv):
    # every report is one line of JSON, and -o writes the same object
    f = tmp_path / "t.hg"
    f.write_text("6 4\n0 1 2\n2 3 4\n4 5\n0 5\n")
    argv = [w.format(f=f) for w in argv]
    code, out = _run(capsys, argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    rep = read_report(out)
    dest = tmp_path / "report.json"
    assert main(argv + ["-o", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    text = dest.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    again = read_report(text)
    rep.pop("timing")
    again.pop("timing")
    assert again == rep


def test_shadow_pairs_ascending(tmp_path, capsys):
    f = tmp_path / "fano.hg"
    main(["construct", "fano", "-o", str(f)])
    code, rep = _report(capsys, ["shadow", str(f)])
    assert code == 0
    pairs = rep["result"]["pairs"]
    assert len(pairs) == rep["result"]["shadow_edges"] == 21
    assert all(type(p) is list and len(p) == 2 and all(type(v) is int for v in p)
               and p[0] < p[1] for p in pairs)
    assert all(a < b for a, b in zip(pairs, pairs[1:]))


def test_report_reader_rejects_unknown_fields():
    good = json.dumps({"schema_version": "1", "command": {}, "result": {},
                       "timing": {"seconds": 0}})
    read_report(good)
    with pytest.raises(FormatError):
        read_report(json.dumps({"schema_version": "2", "command": {},
                                "result": {}, "timing": {}}))
    with pytest.raises(FormatError):
        read_report(json.dumps({"schema_version": "1", "command": {},
                                "result": {}, "timing": {}, "extra": 1}))
    with pytest.raises(FormatError):
        read_report("[]")


def test_usage_error_exit_2():
    for argv in (["frobnicate"], ["verify", "claims", "--n", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "claims", "--n", "5", "--samples", "0"],
    ["verify", "claims", "--n", "5", "--jobs", "0"],
    ["verify", "claims", "--n", "5", "--jobs", "-3"],
    ["verify", "theorem-shadow", "--n", "4", "--k", "4", "--jobs", "0"],
    ["verify", "claims", "--n", "0"],
    ["verify", "theorem-shadow", "--n", "0", "--k", "4"],
    ["verify", "theorem-uniform", "--n", "0", "--k", "4"],
    ["verify", "remark", "--n", "0", "--k", "2"],
], ids=["samples-0", "jobs-0", "jobs-neg", "shadow-jobs-0", "claims-n-0",
        "shadow-n-0", "uniform-n-0", "remark-n-0"])
def test_vacuous_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be >=" in err


def test_claims_seed_without_samples_exits_2(capsys):
    # the exhaustive walk has no seed: one given is refused, not dropped
    assert main(["verify", "claims", "--n", "3", "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [usage]: --seed needs --samples")


def test_non_file_input_exits_2(tmp_path, capsys):
    assert main(["stats", str(tmp_path)]) == 2
    assert "error [io]" in capsys.readouterr().err


def test_non_utf8_input_is_format_error(tmp_path, capsys):
    f = tmp_path / "bom16.hg"
    f.write_bytes(b"\xff\xfe")
    assert main(["stats", str(f)]) == 2
    assert "error [format]: " in capsys.readouterr().err


def test_stats_degrees(tmp_path, capsys):
    f = tmp_path / "mixed.hg"
    f.write_text("6 3\n0 1 2\n2 3\n3 4\n")
    code, rep = _report(capsys, ["stats", str(f)])
    assert code == 0
    assert rep["result"] == {
        "n": 6, "m": 3, "m2": 2, "m3": 1, "shadow_edges": 5, "components": 2,
        "min_degree": 0, "max_degree": 2,
        "min_shadow_degree": 0, "max_shadow_degree": 3,
    }


@pytest.mark.parametrize("argv,edges", [
    (["solve", "longest-path"], "path"),
    (["solve", "has-path", "--k", "1499"], "path"),
    (["solve", "circumference"], "cycle"),
])
def test_long_path_and_cycle_answered(tmp_path, capsys, argv, edges):
    # 1,500 vertices exceed the default recursion limit, so a search that
    # recursed once per path vertex would be refused here
    n = 1500
    pairs = [(i, i + 1) for i in range(n - 1)]
    if edges == "cycle":
        pairs.append((0, n - 1))
    f = tmp_path / "long.hg"
    f.write_text(f"{n} {len(pairs)}\n" + "".join(f"{a} {b}\n" for a, b in pairs))
    code, rep = _report(capsys, argv[:2] + [str(f)] + argv[2:])
    assert code == 0
    r = rep["result"]
    h = parse_hg(f.read_text())
    vs = tuple(r.get("witness_vertices") or ())
    es = tuple(tuple(e) for e in r.get("witness_edges") or ())
    if argv[1] == "has-path":
        assert r["found"] is True
    elif argv[1] == "longest-path":
        assert r["length"] == n - 1
        assert is_valid_berge_path(h, BergePath(vertices=vs, hyperedges=es))
    else:
        assert r["length"] == n
        assert is_valid_berge_cycle(h, BergeCycle(vertices=vs, hyperedges=es))


HUGE_N = 10 ** 15


def test_stats_huge_vertex_count(tmp_path, capsys):
    # one triple under a header far too large for per-vertex tables
    f = tmp_path / "huge.hg"
    f.write_text(f"{HUGE_N} 1\n0 1 2\n")
    code, rep = _report(capsys, ["stats", str(f)])
    assert code == 0
    assert rep["result"] == {
        "n": HUGE_N, "m": 1, "m2": 0, "m3": 1, "shadow_edges": 3,
        "components": HUGE_N - 2, "min_degree": 0, "max_degree": 1,
        "min_shadow_degree": 0, "max_shadow_degree": 2,
    }


def _run_capped(argv):
    """Run the CLI in a child with capped address space and time, so a
    per-vertex table fails fast instead of exhausting the machine."""
    src = os.path.dirname(os.path.dirname(berge.__file__))
    limit = 2 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "berge.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_memory,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return read_report(proc.stdout)["result"]


@pytest.mark.parametrize("argv,key", [
    (["solve", "circumference"], "length"),
    (["check", "claims"], "cycle_length"),
])
def test_cycle_verbs_huge_vertex_count(tmp_path, argv, key):
    f = tmp_path / "huge.hg"
    f.write_text(f"{HUGE_N} 1\n0 1 2\n")
    assert _run_capped(argv + [str(f)])[key] is None
    # a triangle: the laws are checked at the touched vertices only
    f.write_text(f"{HUGE_N} 3\n0 1\n1 2\n0 2\n")
    r = _run_capped(argv + [str(f)])
    assert r[key] == 3
    if key == "cycle_length":
        assert r["checked_vertices"] == HUGE_N - 3
        assert r["violations"] == []
    # a loose path with 20,001 touched vertices: the solver's tables are
    # linear in the touched vertices and the edges, so it is answered at once
    f.write_text("20001 10000\n" + "".join(f"{2 * i} {2 * i + 1} {2 * i + 2}\n"
                                           for i in range(10_000)))
    assert _run_capped(argv + [str(f)])[key] is None


@pytest.mark.parametrize("n", [100_000, HUGE_N])
def test_path_verbs_huge_vertex_count(tmp_path, n):
    # the path search runs on the touched vertices only
    f = tmp_path / "huge.hg"
    f.write_text(f"{n} 2\n0 1 2\n2 {n - 2} {n - 1}\n")
    r = _run_capped(["solve", "longest-path", str(f)])
    assert r["length"] == 2
    assert r["witness_vertices"] == [0, 2, n - 2]
    assert r["witness_edges"] == [[0, 1, 2], [2, n - 2, n - 1]]
    assert _run_capped(["solve", "has-path", "--k", "2", str(f)])["found"] is True
    assert _run_capped(["solve", "has-path", "--k", "3", str(f)])["found"] is False
    # a loose path with 20,001 touched vertices: the path search runs no
    # reach BFS at a record-length tip, so the one long path costs O(t) steps
    f.write_text(f"{n} 10000\n" + "".join(f"{2 * i} {2 * i + 1} {2 * i + 2}\n"
                                          for i in range(10_000)))
    assert _run_capped(["solve", "longest-path", str(f)])["length"] == 10_000


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(h):
        raise MemoryError

    monkeypatch.setattr("berge.cli.longest_berge_path", exhausted)
    f = tmp_path / "t.hg"
    f.write_text("3 1\n0 1 2\n")
    assert main(["solve", "longest-path", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "error [resource]: MemoryError" in captured.err
