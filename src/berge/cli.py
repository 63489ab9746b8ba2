"""Command-line interface: construct, solve, check, verify, shadow, stats.

All verbs except ``construct`` emit a versioned JSON report::

    {"schema_version": "1", "command": {...}, "result": {...},
     "timing": {"seconds": ...}}

Identical commands (including seeds) produce byte-identical output except
for the ``timing`` object.  Exit codes: 0 success/verified, 1 a theorem or
structural-law violation was found, 2 usage or input errors, 3 memory ran
out.  (The solvers search on explicit stacks; a ``RecursionError`` is still
reported as a resource error, as a guard.)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import constructions
from .enumeration import (
    verify_claims,
    verify_remark,
    verify_theorem_shadow,
    verify_theorem_uniform,
)
from .errors import BergeError, FormatError
from .hypergraph import edge_components, format_hg, load_hg, shadow
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
    _write(args, json.dumps(report, sort_keys=True, indent=2) + "\n")


def _write(args, text: str) -> None:
    """Write a verb's output to ``-o/--output``, or to stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _positive(text: str) -> int:
    """argparse type: an integer >= 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    top = argparse.ArgumentParser(
        prog="berge",
        description="Berge paths/cycles in linear {2,3}-uniform hypergraphs: "
                    "solvers, constructions, and bound verification.",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    out = argparse.ArgumentParser(add_help=False)   # every verb writes somewhere
    out.add_argument("-o", "--output")

    p = sub.add_parser("construct", parents=[out], help="generate a named family as .hg")
    p.add_argument("family", choices=constructions.FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--copies", type=int)

    p = sub.add_parser("shadow", parents=[out], help="two-shadow summary of a .hg file")
    p.add_argument("file")

    p = sub.add_parser("stats", parents=[out], help="basic counts and degrees of a .hg file")
    p.add_argument("file")

    p = sub.add_parser("solve", help="exact path/cycle solving")
    act = p.add_subparsers(dest="action", required=True)
    for name in ("longest-path", "circumference"):
        q = act.add_parser(name, parents=[out])
        q.add_argument("file")
    q = act.add_parser("has-path", parents=[out])
    q.add_argument("file")
    q.add_argument("--k", type=int, required=True)

    p = sub.add_parser("check", help="structural laws on one instance")
    act = p.add_subparsers(dest="action", required=True)
    q = act.add_parser("claims", parents=[out])
    q.add_argument("file")

    p = sub.add_parser("verify", help="enumeration campaigns")
    act = p.add_subparsers(dest="action", required=True)
    for name in ("theorem-uniform", "theorem-shadow", "remark"):
        q = act.add_parser(name, parents=[out])
        q.add_argument("--n", type=_positive, required=True)
        q.add_argument("--k", type=int, required=True)
        q.add_argument("--jobs", type=_positive, default=None)
    q = act.add_parser("claims", parents=[out])
    q.add_argument("--n", type=_positive, required=True)
    q.add_argument("--samples", type=_positive, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--jobs", type=_positive, default=None)

    return top


# ---------------------------------------------------------------------------
# verb handlers: each returns (command, result, exit code) for one report
# ---------------------------------------------------------------------------

def _run_shadow(args):
    h = load_hg(args.file)
    sg = shadow(h)
    result = {
        "n": h.n,
        "shadow_edges": sg.edge_count,
        "pairs": [list(p) for p in sg.pairs],
    }
    return {"verb": "shadow", "file": args.file}, result, 0


def _run_stats(args):
    h = load_hg(args.file)
    # one pass over the edges; by linearity every edge adds |e| - 1 shadow
    # pairs at each of its vertices and C(|e|, 2) distinct shadow pairs.
    # Only touched vertices are stored: the rest have degree 0 and each is
    # its own component, so a huge vertex count costs nothing.
    degs: dict[int, int] = {}
    sdegs: dict[int, int] = {}
    m2 = 0
    for e in h.edges:
        if len(e) == 2:
            m2 += 1
        for v in e:
            degs[v] = degs.get(v, 0) + 1
            sdegs[v] = sdegs.get(v, 0) + len(e) - 1
    m3 = h.m - m2
    isolated = h.n - len(degs)
    result = {
        "n": h.n,
        "m": h.m,
        "m2": m2,
        "m3": m3,
        "shadow_edges": m2 + 3 * m3,
        "components": len(edge_components(h)) + isolated,
        "min_degree": 0 if isolated else min(degs.values(), default=0),
        "max_degree": max(degs.values(), default=0),
        "min_shadow_degree": 0 if isolated else min(sdegs.values(), default=0),
        "max_shadow_degree": max(sdegs.values(), default=0),
    }
    return {"verb": "stats", "file": args.file}, result, 0


def _witness_result(w) -> dict:
    """Length and witness of a BergePath or BergeCycle, all None for None."""
    return {
        "length": None if w is None else w.length,
        "witness_vertices": None if w is None else list(w.vertices),
        "witness_edges": None if w is None else [list(e) for e in w.hyperedges],
    }


def _run_solve(args):
    h = load_hg(args.file)
    command = {"verb": "solve", "action": args.action, "file": args.file}
    if args.action == "longest-path":
        result = _witness_result(longest_berge_path(h))
    elif args.action == "circumference":
        result = _witness_result(longest_berge_cycle(h))
    else:
        command["k"] = args.k
        result = {"k": args.k, "found": has_berge_path(h, args.k)}
    return command, result, 0


def _run_check(args):
    h = load_hg(args.file)
    command = {"verb": "check", "action": "claims", "file": args.file}
    cyc = longest_berge_cycle(h)
    if cyc is None:
        result = {"cycle_length": None, "checked_vertices": 0,
                  "checked_triples": 0, "checked_pairs": 0, "violations": []}
    else:
        found, vertices, triples, pairs = check_laws(CycleContext.from_cycle(h, cyc))
        result = {
            "cycle_length": cyc.length,
            "cycle_vertices": list(cyc.vertices),
            "checked_vertices": vertices,
            "checked_triples": triples,
            "checked_pairs": pairs,
            "violations": [v.as_dict() for v in found],
        }
    return command, result, 1 if result["violations"] else 0


_BOUNDS = {
    "theorem-uniform": verify_theorem_uniform,
    "theorem-shadow": verify_theorem_shadow,
    "remark": verify_remark,
}


def _run_verify(args):
    if args.action == "claims":
        report = verify_claims(args.n, samples=args.samples, seed=args.seed,
                               jobs=args.jobs)
    else:
        report = _BOUNDS[args.action](args.n, args.k, jobs=args.jobs)
    result = report.as_dict()
    command = {"verb": "verify", "action": args.action, **result.pop("params")}
    return command, result, 0 if report.holds else 1


_HANDLERS = {
    "shadow": _run_shadow,
    "stats": _run_stats,
    "solve": _run_solve,
    "check": _run_check,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.verb == "construct":
            h = constructions.build(args.family, n=args.n, k=args.k, copies=args.copies)
            _write(args, format_hg(h))
            return 0
        command, result, code = _HANDLERS[args.verb](args)
        _emit(args, command, result, time.perf_counter() - started)
        return code
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


if __name__ == "__main__":
    sys.exit(main())
