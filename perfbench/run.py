#!/usr/bin/env python3
"""Benchmark of the berge CLI: end-to-end metrics, or per-layer ones traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound --seed 1729 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout.  Workloads are
defined in ``workloads.py``; ``--trace 1`` wraps the package's layers from
``tracing.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; problems found by
the correctness checks go to standard error.

Times are reported in reference seconds (see ``refclock.py``): each
measured interval is scaled by the speed of a fixed loop timed around it,
which keeps them steady while the machine's own speed drifts.

Set-up (a fresh import of the package plus input generation) runs
``SETUP_REPS`` times and ``setup_s`` is the median.  Passes then repeat
until the next one would end after ``--seconds``; at least one runs.
A pass's time is the sum over its commands of each command's median
over the run.  A traced run makes pairs of passes at ``--jobs 1``, an
untraced and a traced one, then replays the campaign's work units one by
one to measure fan-out skew.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import refclock
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 15


def fresh_import():
    """Import ``berge.cli`` from the checkout as if for the first time."""
    for name in [n for n in sys.modules if n == "berge" or n.startswith("berge.")]:
        del sys.modules[name]
    cli = importlib.import_module("berge.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"berge was imported from {cli.__file__}, not from {SRC}")
    return cli


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def run_passes(workload, client, jobs: int, seconds: float, one_pass=None) -> list[int]:
    """Repeat passes until the next one would end after ``seconds``;
    returns the instances each pass covered."""
    start = time.perf_counter()
    took, passes = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(client, jobs) if one_pass is None else one_pass())
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            client.clock.close()
            return passes


def command_medians(client, field: int, scale: bool = True) -> dict[str, float]:
    """Each command's median latency (field 1) or CPU time (field 2)."""
    samples = {}
    for call in client.calls:
        f = client.clock.factor(call[3]) if scale else 1.0
        samples.setdefault(call[0], []).append(call[field] * f)
    return {key: statistics.median(v) for key, v in samples.items()}


def median_pass(client, field: int, scale: bool = True) -> float:
    """Sum over a pass's commands of each command's median."""
    return sum(command_medians(client, field, scale).values())


def end_to_end(workload, client, seconds: float, setup_s: float) -> dict:
    passes = run_passes(workload, client, workload.jobs, seconds)
    wall = median_pass(client, 1)
    per_command = sorted(command_medians(client, 1).values())
    print(f"raw: wall_s {median_pass(client, 1, scale=False):.4f} s, reference loop median "
          f"{statistics.median(client.clock.refs) * 1e3:.3f} ms (REF_S "
          f"{refclock.REF_S * 1e3:g} ms), {len(passes)} passes", file=sys.stderr)
    return {
        "wall_s": (wall, "s"),
        "instances_per_s": (statistics.median(passes) / wall, "1/s"),
        "cpu_s": (median_pass(client, 2), "s"),
        "op_p50_s": (statistics.median(per_command), "s"),
        "op_p90_s": (tracing.percentile(per_command, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced(workload, client, seconds: float, seed: int) -> dict:
    """Run pairs of passes at --jobs 1, the first untraced and the second
    traced, then replay the campaign's work units; returns the per-layer
    metrics."""
    tracer = tracing.Tracer()
    plain, with_trace = [], []

    def one_pair():
        for took, trace in ((plain, False), (with_trace, True)):
            first = client.clock.mark(force=True)
            t0 = time.perf_counter()
            if trace:
                tracer.install()
            try:
                workload.run_pass(client, 1)
            finally:
                tracer.uninstall()
            dt = time.perf_counter() - t0
            took.append(dt * client.clock.factor(first, client.clock.mark(force=True)))
        return 0

    run_passes(workload, client, 1, seconds, one_pair)
    metrics = tracer.metrics(len(with_trace))
    metrics["trace.overhead_frac"] = (
        statistics.median(t / u for t, u in zip(with_trace, plain)) - 1, "ratio")
    if workload.fanout:
        kind, args, key = workload.fanout
        fan, visited = tracing.replay_fanout(sys.modules["berge.enumeration"], kind, args)
        metrics.update(fan)
        pinned = client.pinned[key]["pins"]["instances_checked"]
        client.attempted += 1
        if visited != pinned:
            client.failed += 1
            client.problems.append(f"fan-out replay of {key} visited {visited} instances, "
                                   f"pinned {pinned}")
    else:
        metrics.update(tracing.NO_FANOUT)
    if tracer.missing:
        print(f"tracing: not found, reported as zero: {sorted(tracer.missing)}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{seed}.json"
    spans_path.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
    print(f"spans: {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "berge" / "cli.py").is_file():
        print(f"error: no berge package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            before = refclock.measure_reference()
            t0 = time.perf_counter()
            cli = fresh_import()
            workload.setup(workdir)
            dt = time.perf_counter() - t0
            after = refclock.measure_reference()
            setups.append(dt * refclock.REF_S / ((before + after) / 2))
        client = workloads.Client(cli, workloads.load_golden())
        if args.trace:
            metrics = traced(workload, client, args.seconds, args.seed)
        else:
            metrics = end_to_end(workload, client, args.seconds, statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in client.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
