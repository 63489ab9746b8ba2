"""Per-layer tracing of the berge package from outside it.

The tracer wraps module-level functions and methods of ``berge`` while a
traced pass runs and restores them afterwards, so nothing under ``src/``
changes.  Hot per-node calls (the walk, the anchored searches, the law
checks, the solvers, parsing) are recorded as a count plus self time.
Commands, campaigns and work units are recorded as spans with parents.
A layer's self time is its time minus the time of traced calls nested in
it.

A wrapped name that no longer exists is reported on stderr and its layer
reads zero, so a refactor of the package degrades the traced run instead
of breaking it.
"""

from __future__ import annotations

import statistics
import sys
import time


class Layer:
    __slots__ = ("calls", "self_ns", "hits", "bytes", "durations")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.hits = 0        # calls whose outcome counted as a hit
        self.bytes = 0       # input bytes, for throughput
        self.durations = []  # per-call seconds, when a percentile is reported


# (module, attribute, layer, options).  Options: "span" records a span and
# allows nested traced calls; "hit" counts truthy / non-None outcomes;
# "bytes" sums the length of the first argument; "durations" keeps
# per-call times.
TARGETS = [
    ("berge.enumeration", "_Walk.add", "enumeration.walk", ()),
    ("berge.enumeration", "_Walk.remove", "enumeration.walk.remove", ()),
    ("berge.enumeration", "_creates_path", "enumeration.creates_path", ("hit",)),
    ("berge.enumeration", "canonical_form", "enumeration.canonical_form", ()),
    ("berge.enumeration", "_cycle_through", "enumeration.cycle_through", ("hit",)),
    ("berge.enumeration", "_ClaimsCampaign.make_ctx", "enumeration.law_checks", ()),
    ("berge.enumeration", "_ClaimsCampaign._full_check", "enumeration.law_checks", ()),
    ("berge.enumeration", "_ClaimsCampaign._delta_check", "enumeration.law_checks", ()),
    ("berge.enumeration", "random_linear", "enumeration.random_linear", ()),
    ("berge.enumeration", "_BoundCampaign.run_top", "enumeration.unit", ("span",)),
    ("berge.enumeration", "_BoundCampaign.run_prefix", "enumeration.unit", ("span",)),
    ("berge.enumeration", "_ClaimsCampaign.run_top", "enumeration.unit", ("span",)),
    ("berge.enumeration", "_ClaimsCampaign.run_prefix", "enumeration.unit", ("span",)),
    ("berge.enumeration", "verify_theorem_uniform", "enumeration.campaign", ("span",)),
    ("berge.enumeration", "verify_theorem_shadow", "enumeration.campaign", ("span",)),
    ("berge.enumeration", "verify_remark", "enumeration.campaign", ("span",)),
    ("berge.enumeration", "verify_claims", "enumeration.campaign", ("span",)),
    ("berge.solver", "longest_berge_cycle", "solver.longest_cycle", ("durations",)),
    ("berge.solver", "longest_berge_path", "solver.longest_path", ("durations",)),
    ("berge.solver", "has_berge_path", "solver.has_path", ()),
    ("berge.structure", "CycleContext.from_cycle", "structure.context", ()),
    ("berge.structure", "check_claim_plus", "structure.checks", ()),
    ("berge.structure", "check_claim_plus_plus", "structure.checks", ()),
    ("berge.structure", "check_claim_triple", "structure.checks", ()),
    ("berge.hypergraph", "parse_hg", "hypergraph.parse", ("bytes",)),
    ("berge.hypergraph", "degree", "hypergraph.degree", ()),
    ("berge.hypergraph", "shadow_degree", "hypergraph.degree", ()),
    ("berge.hypergraph", "format_hg", "hypergraph.format", ()),
    ("berge.cli", "main", "cli.main", ("span",)),
]


class Tracer:
    """Counts, self times and spans of the wrapped layers."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.spans: list[tuple] = []   # (id, parent id or None, name, start_ns, end_ns)
        self.missing: set[str] = set()
        self._child: list[int] = []    # nested traced time of each open call
        self._open: list[int] = []     # ids of open spans
        self._patches: list[tuple] = []

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    # -- wrapping --
    def _wrap(self, fn, layer: Layer, name: str, options):
        clock = time.perf_counter_ns
        child = self._child
        if "span" in options:
            spans, open_ = self.spans, self._open

            def span(*args, **kwargs):
                sid = len(spans)
                parent = open_[-1] if open_ else None
                open_.append(sid)
                spans.append(None)
                child.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    layer.calls += 1
                    layer.self_ns += dt - child.pop()
                    open_.pop()
                    spans[sid] = (sid, parent, name, t0, t1)
                    if child:
                        child[-1] += dt
            return span

        hit = "hit" in options
        size = "bytes" in options
        durations = layer.durations if "durations" in options else None

        def leaf(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            layer.calls += 1
            layer.self_ns += dt
            if child:
                child[-1] += dt
            if hit and out:
                layer.hits += 1
            if size:
                layer.bytes += len(args[0])
            if durations is not None:
                durations.append(dt / 1e9)
            return out
        return leaf

    def install(self) -> None:
        berge_modules = [m for name, m in sys.modules.items()
                         if m is not None and (name == "berge" or name.startswith("berge."))]
        for module_name, attr, layer_name, options in TARGETS:
            module = sys.modules.get(module_name)
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            layer = self.layer(layer_name)
            label = f"{module_name}.{attr}"
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, layer, label, options))
            else:
                wrapped = self._wrap(original, layer, label, options)
            if owner is not module:
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapped)
                continue
            for m in berge_modules:   # every module that imported the name
                if vars(m).get(name) is original:
                    self._patches.append((m, name, original))
                    setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results --
    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass (counts are exact per pass)."""
        def get(name):
            return self.layers.get(name) or Layer()

        def per_pass(x):
            return x / passes

        out = {}
        walk_add, walk_remove = get("enumeration.walk"), get("enumeration.walk.remove")
        walk_ns = walk_add.self_ns + walk_remove.self_ns
        out["enumeration.walk.nodes"] = (per_pass(walk_add.calls), "count")
        out["enumeration.walk.self_s"] = (per_pass(walk_ns) / 1e9, "s")
        out["enumeration.walk.ns_per_node"] = (walk_ns / walk_add.calls if walk_add.calls else 0.0, "ns")
        for name, extra in (
            ("enumeration.creates_path", "path_frac"),
            ("enumeration.canonical_form", None),
            ("enumeration.cycle_through", "found_frac"),
            ("enumeration.law_checks", None),
            ("enumeration.random_linear", None),
            ("solver.longest_cycle", "p90_s"),
            ("solver.longest_path", "p90_s"),
            ("solver.has_path", None),
            ("structure.context", None),
            ("structure.checks", None),
            ("hypergraph.parse", "mb_per_s"),
            ("hypergraph.degree", None),
            ("hypergraph.format", None),
            ("cli.main", None),
        ):
            lay = get(name)
            out[f"{name}.calls"] = (per_pass(lay.calls), "count")
            out[f"{name}.self_s"] = (per_pass(lay.self_ns) / 1e9, "s")
            if extra in ("path_frac", "found_frac"):
                out[f"{name}.{extra}"] = (lay.hits / lay.calls if lay.calls else 0.0, "ratio")
            elif extra == "p90_s":
                out[f"{name}.p90_s"] = (percentile(lay.durations, 0.9), "s")
            elif extra == "mb_per_s":
                out[f"{name}.mb_per_s"] = (lay.bytes / 1e6 / (lay.self_ns / 1e9) if lay.self_ns else 0.0, "MB/s")
        return out

    def span_records(self) -> list[dict]:
        return [{"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3], "end_ns": s[4]}
                for s in self.spans if s is not None]


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# fan-out skew: the depth-3 work units of one campaign, replayed one by one
# ---------------------------------------------------------------------------

def make_campaign(enumeration, kind: str, args):
    """The campaign object ``verify_*`` would build for these arguments."""
    if kind == "bound":   # theorem-shadow n, k
        n, k = args
        return enumeration._make_bound_campaign(n, k, "23", "shadow", 2, (k - 1) * n, False, 8)
    (n,) = args
    return enumeration._ClaimsCampaign(n)


def replay_fanout(enumeration, kind: str, args, jobs: int = 2) -> tuple[dict, int]:
    """Time ``run_top`` and every ``run_prefix`` unit; returns the fan-out
    metrics and the number of instances the replay visited.

    ``busy_frac`` is the share of ``jobs`` workers' time spent on units when
    the units are dealt out as the campaign's ``imap_unordered`` does (in
    order, ``len(units) // (jobs * 16)`` per chunk, to the first free
    worker).
    """
    camp = make_campaign(enumeration, kind, args)
    t0 = time.perf_counter()
    acc, units = camp.run_top(enumeration._SPLIT_DEPTH)
    top_s = time.perf_counter() - t0
    visited = acc.visited
    times = []
    for prefix in units:
        t0 = time.perf_counter()
        visited += camp.run_prefix(prefix).visited
        times.append(time.perf_counter() - t0)
    total = sum(times)
    chunk = max(1, len(units) // (jobs * 16))
    finish = [0.0] * jobs
    for i in range(0, len(times), chunk):
        w = finish.index(min(finish))
        finish[w] += sum(times[i:i + chunk])
    makespan = max(finish)
    metrics = {
        "enumeration.fanout.units": (len(units), "count"),
        "enumeration.fanout.top_s": (top_s, "s"),
        "enumeration.fanout.unit_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "enumeration.fanout.unit_max_s": (max(times, default=0.0), "s"),
        "enumeration.fanout.max_unit_share": (max(times) / total if total else 0.0, "ratio"),
        "enumeration.fanout.busy_frac": (total / (jobs * makespan) if makespan else 0.0, "ratio"),
    }
    return metrics, visited


NO_FANOUT = {
    "enumeration.fanout.units": (0, "count"),
    "enumeration.fanout.top_s": (0.0, "s"),
    "enumeration.fanout.unit_p50_s": (0.0, "s"),
    "enumeration.fanout.unit_max_s": (0.0, "s"),
    "enumeration.fanout.max_unit_share": (0.0, "ratio"),
    "enumeration.fanout.busy_frac": (0.0, "ratio"),
}
