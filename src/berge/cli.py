"""Command-line interface: construct, solve, check, verify, shadow, stats.

All verbs except ``construct`` emit a versioned JSON report::

    {"schema_version": "1", "command": {...}, "result": {...},
     "timing": {"seconds": ...}}

Identical commands (including seeds) produce byte-identical output except
for the ``timing`` object.  Exit codes: 0 success/verified, 1 a theorem or
structural-law violation was found, 2 usage or input errors, 3 an exhausted
resource (recursion depth or memory) stopped the command.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import constructions
from .enumeration import (
    DEFAULT_SEED,
    verify_claims,
    verify_remark,
    verify_theorem_shadow,
    verify_theorem_uniform,
)
from .errors import BergeError, FormatError
from .hypergraph import components, format_hg, load_hg, shadow
from .solver import has_berge_path, longest_berge_cycle, longest_berge_path
from .structure import CycleContext, check_laws

SCHEMA_VERSION = "1"
_REPORT_KEYS = {"schema_version", "command", "result", "timing"}


def read_report(text: str) -> dict:
    """Parse a CLI JSON report, rejecting unknown top-level fields."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise FormatError("report must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {data.get('schema_version')!r}")
    unknown = set(data) - _REPORT_KEYS
    if unknown:
        raise FormatError(f"unknown report fields: {sorted(unknown)}")
    return data


def _emit(args, command: dict, result: dict, seconds: float) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "result": result,
        "timing": {"seconds": round(seconds, 6)},
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``; anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_POSITIVE = _int_at_least(1)
_NON_NEGATIVE = _int_at_least(0)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    top = argparse.ArgumentParser(
        prog="berge",
        description="Berge paths/cycles in linear {2,3}-uniform hypergraphs: "
                    "solvers, constructions, and bound verification.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="generate a named family as .hg")
    p.add_argument("family", choices=constructions.FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--copies", type=int)
    p.add_argument("-o", "--output")

    p = sub.add_parser("shadow", help="two-shadow summary of a .hg file")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("stats", help="basic counts and degrees of a .hg file")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("solve", help="exact path/cycle solving")
    act = p.add_subparsers(dest="action", required=True)
    for name in ("longest-path", "circumference"):
        q = act.add_parser(name)
        q.add_argument("file")
        q.add_argument("-o", "--output")
    q = act.add_parser("has-path")
    q.add_argument("file")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("-o", "--output")

    p = sub.add_parser("check", help="structural laws on one instance")
    act = p.add_subparsers(dest="action", required=True)
    q = act.add_parser("claims")
    q.add_argument("file")
    q.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="enumeration campaigns")
    act = p.add_subparsers(dest="action", required=True)
    for name in ("theorem-uniform", "theorem-shadow", "remark"):
        q = act.add_parser(name)
        q.add_argument("--n", type=_POSITIVE, required=True)
        q.add_argument("--k", type=int, required=True)
        q.add_argument("--jobs", type=_POSITIVE, default=None)
        q.add_argument("--witness-limit", type=_NON_NEGATIVE, default=8)
        q.add_argument("--witness-dir")
        q.add_argument("-o", "--output")
    q = act.add_parser("claims")
    q.add_argument("--n", type=_POSITIVE, required=True)
    q.add_argument("--samples", type=_POSITIVE, default=None)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.add_argument("--jobs", type=_POSITIVE, default=None)
    q.add_argument("-o", "--output")

    return top


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _run_construct(args) -> int:
    h = constructions.build(args.family, n=args.n, k=args.k, copies=args.copies)
    text = format_hg(h)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _run_shadow(args, started) -> int:
    h = load_hg(args.file)
    sg = shadow(h)
    result = {
        "n": h.n,
        "shadow_edges": sg.edge_count,
        "pairs": [list(p) for p in sg.pairs],
    }
    _emit(args, {"verb": "shadow", "file": args.file}, result,
          time.perf_counter() - started)
    return 0


def _run_stats(args, started) -> int:
    h = load_hg(args.file)
    # one pass over the edges; by linearity every edge adds |e| - 1 shadow
    # pairs at each of its vertices and C(|e|, 2) distinct shadow pairs
    degs = [0] * h.n
    sdegs = [0] * h.n
    m2 = 0
    for e in h.edges:
        if len(e) == 2:
            m2 += 1
        for v in e:
            degs[v] += 1
            sdegs[v] += len(e) - 1
    m3 = h.m - m2
    result = {
        "n": h.n,
        "m": h.m,
        "m2": m2,
        "m3": m3,
        "shadow_edges": m2 + 3 * m3,
        "components": len(components(h)),
        "min_degree": min(degs) if degs else 0,
        "max_degree": max(degs) if degs else 0,
        "min_shadow_degree": min(sdegs) if sdegs else 0,
        "max_shadow_degree": max(sdegs) if sdegs else 0,
    }
    _emit(args, {"verb": "stats", "file": args.file}, result,
          time.perf_counter() - started)
    return 0


def _witness_result(w) -> dict:
    """Length and witness of a BergePath or BergeCycle, all None for None."""
    return {
        "length": None if w is None else w.length,
        "witness_vertices": None if w is None else list(w.vertices),
        "witness_edges": None if w is None else [list(e) for e in w.hyperedges],
    }


def _run_solve(args, started) -> int:
    h = load_hg(args.file)
    command = {"verb": "solve", "action": args.action, "file": args.file}
    if args.action == "longest-path":
        result = _witness_result(longest_berge_path(h))
    elif args.action == "circumference":
        result = _witness_result(longest_berge_cycle(h))
    else:
        command["k"] = args.k
        result = {"k": args.k, "found": has_berge_path(h, args.k)}
    _emit(args, command, result, time.perf_counter() - started)
    return 0


def _run_check(args, started) -> int:
    h = load_hg(args.file)
    command = {"verb": "check", "action": "claims", "file": args.file}
    cyc = longest_berge_cycle(h)
    if cyc is None:
        result = {"cycle_length": None, "checked_vertices": 0,
                  "checked_triples": 0, "checked_pairs": 0, "violations": []}
    else:
        found, vertices, triples, pairs = check_laws(h, CycleContext.from_cycle(h, cyc))
        result = {
            "cycle_length": cyc.length,
            "cycle_vertices": list(cyc.vertices),
            "checked_vertices": vertices,
            "checked_triples": triples,
            "checked_pairs": pairs,
            "violations": [v.as_dict() for v in found],
        }
    _emit(args, command, result, time.perf_counter() - started)
    return 1 if result["violations"] else 0


def _run_verify(args) -> int:
    if args.action == "theorem-uniform":
        report = verify_theorem_uniform(args.n, args.k, jobs=args.jobs,
                                        witness_limit=args.witness_limit)
    elif args.action == "theorem-shadow":
        report = verify_theorem_shadow(args.n, args.k, jobs=args.jobs,
                                       witness_limit=args.witness_limit)
    elif args.action == "remark":
        report = verify_remark(args.n, args.k, jobs=args.jobs,
                               witness_limit=args.witness_limit)
    else:
        report = verify_claims(args.n, samples=args.samples, seed=args.seed,
                               jobs=args.jobs)
    command = {"verb": "verify", "action": args.action}
    command.update(report.params)
    result = report.as_dict()
    result.pop("params")
    runtime = result.pop("runtime_seconds")
    if getattr(args, "witness_dir", None) and report.extremal_witnesses:
        os.makedirs(args.witness_dir, exist_ok=True)
        for i, payload in enumerate(report.extremal_witnesses):
            path = os.path.join(args.witness_dir, f"witness_{i:03d}.hg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
    _emit(args, command, result, runtime)
    return 0 if report.holds else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.verb == "construct":
            return _run_construct(args)
        if args.verb == "shadow":
            return _run_shadow(args, started)
        if args.verb == "stats":
            return _run_stats(args, started)
        if args.verb == "solve":
            return _run_solve(args, started)
        if args.verb == "check":
            return _run_check(args, started)
        if args.verb == "verify":
            return _run_verify(args)
    except BergeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error [usage]: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error [resource]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
