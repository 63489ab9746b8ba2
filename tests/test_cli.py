import json

import pytest

from berge import parse_hg, validate
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
    from berge import BergePath, is_valid_berge_path

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


def test_witness_dir(tmp_path, capsys):
    wdir = tmp_path / "wit"
    code, _ = _run(capsys, ["verify", "theorem-shadow", "--n", "4", "--k", "4",
                            "--jobs", "1", "--witness-dir", str(wdir)])
    assert code == 0
    files = sorted(wdir.glob("witness_*.hg"))
    assert files
    for f in files:
        h = parse_hg(f.read_text())
        assert h.n == 4


def test_output_determinism(tmp_path, capsys):
    args = ["verify", "claims", "--n", "5", "--samples", "40", "--seed", "9"]
    _, out1 = _run(capsys, args + ["--jobs", "1"])
    _, out2 = _run(capsys, args + ["--jobs", "2"])
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing")
    b.pop("timing")
    assert a == b


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


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
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
    ["verify", "remark", "--n", "4", "--k", "2", "--witness-limit", "-1"],
], ids=["samples-0", "jobs-0", "jobs-neg", "shadow-jobs-0", "claims-n-0",
        "shadow-n-0", "uniform-n-0", "remark-n-0", "witness-limit-neg"])
def test_vacuous_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be >=" in err


def test_non_file_input_exits_2(tmp_path, capsys):
    assert main(["stats", str(tmp_path)]) == 2
    assert "error [io]" in capsys.readouterr().err


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
def test_recursion_limit_exits_3(tmp_path, capsys, argv, edges):
    # 1,500 vertices already exceed the default recursion limit of the DFS
    n = 1500
    pairs = [(i, i + 1) for i in range(n - 1)]
    if edges == "cycle":
        pairs.append((0, n - 1))
    f = tmp_path / "long.hg"
    f.write_text(f"{n} {len(pairs)}\n" + "".join(f"{a} {b}\n" for a, b in pairs))
    assert main(argv[:2] + [str(f)] + argv[2:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error [resource]: RecursionError" in captured.err
    assert "Traceback" not in captured.err


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(h):
        raise MemoryError

    monkeypatch.setattr("berge.cli.longest_berge_path", exhausted)
    f = tmp_path / "t.hg"
    f.write_text("3 1\n0 1 2\n")
    assert main(["solve", "longest-path", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "error [resource]: MemoryError" in captured.err
