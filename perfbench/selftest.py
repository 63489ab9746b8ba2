"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _setup(name, seed, workdir):
    workload = workloads.WORKLOADS[name](seed)
    workload.setup(workdir)
    return workload


def _files(workdir):
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_corpus_and_commands_are_deterministic(tmp_path):
    a = _setup("solve-corpus", 7, tmp_path / "a")
    b = _setup("solve-corpus", 7, tmp_path / "b")
    c = _setup("solve-corpus", 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    names = [Path(p).name for _, p, _ in a.items]
    assert names == [Path(p).name for _, p, _ in b.items]
    for name in ("bound", "claims-exhaustive", "claims-random"):
        assert _setup(name, 7, tmp_path / name).plan == _setup(name, 7, tmp_path / name).plan


def test_corpus_shape_is_the_same_on_every_seed(tmp_path):
    shapes = []
    for seed in (1, 2):
        workload = _setup("solve-corpus", seed, tmp_path / str(seed))
        shapes.append(sorted((inst.name, inst.n, len(inst.edges))
                             for kind, _, inst in workload.items if kind != "family"))
    assert shapes[0] == shapes[1]


def _client(pinned):
    return workloads.Client(run.fresh_import(), pinned)


def test_perturbed_pinned_value_is_a_failure(tmp_path):
    golden = workloads.load_golden()
    argv = ["verify", "remark", "--n", "7", "--k", "3", "--jobs", "1"]
    key = workloads.command_key(argv)

    client = _client(golden)
    assert client.call(argv, workloads.check_campaign) is not None
    assert (client.attempted, client.failed) == (1, 0)

    perturbed = json.loads(json.dumps(golden))
    perturbed[key]["pins"]["instances_checked"] += 1
    client = _client(perturbed)
    assert client.call(argv, workloads.check_campaign) is None
    assert client.failed == 1 and "instances_checked" in client.problems[0]


def test_perturbed_digest_is_a_failure(tmp_path):
    golden = workloads.load_golden()
    out = tmp_path / "fam-fano.hg"
    argv = ["construct", "fano", "-o", str(out)]
    key = workloads.command_key(argv)
    perturbed = dict(golden)
    perturbed[key] = {"sha256": "0" * 64}
    client = _client(perturbed)
    assert client.call(argv, output=out) is None
    assert client.failed == 1


def test_violation_verdict_is_pinned_not_failed():
    golden = workloads.load_golden()
    argv = ["verify", "claims", "--n", "12", "--samples", "250", "--seed", "1736", "--jobs", "1"]
    client = _client(golden)
    report = client.call(argv, lambda r: workloads.check_campaign(r, 250, violations_allowed=True))
    assert client.failed == 0 and report["result"]["holds"] is False
    client.call(argv, workloads.check_campaign)
    assert client.failed == 1 and "violation" in client.problems[0]


def test_reference_scaling():
    clock = refclock.RefClock()
    clock.refs = [0.004, 0.004, 0.004, 0.008, 0.005, 0.004, 0.003, 0.002, 0.001]
    # the median of references 1 .. 6: those around call 3, two more on each side
    assert clock.factor(3) == pytest.approx(refclock.REF_S / 0.004)
    assert clock.factor(0) == pytest.approx(refclock.REF_S / 0.004)
    assert clock.factor(6, 8) == pytest.approx(refclock.REF_S / 0.003)


def test_unpinned_command_fails():
    client = _client({})
    client.call(["verify", "theorem-uniform", "--n", "6", "--k", "4", "--jobs", "1"])
    assert client.failed == 1 and "no pinned result" in client.problems[0]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    proc = _bench("--workload", "claims-random", "--seed", "3", "--seconds", "0.1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_workloads_match_the_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bound", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
