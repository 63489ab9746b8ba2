"""Workloads of the berge benchmark: inputs, command plans and output checks.

Every workload drives ``berge.cli.main`` in-process, as one closed-loop
client: a command is sent only after the previous one has returned.  A
*pass* is one round of a workload's commands; the benchmark repeats passes
for the length of a run.

Checks never trust the solver under test: witnesses are re-checked against
the definition, counts against identities, and ``stats`` / ``shadow``
against figures the benchmark computes from the edges it wrote.  On top of
that, every command must return a ``result`` whose digest equals the one
recorded from the reference commit in ``golden.json``: the seed orders a
workload's commands and the edges in its files, so the results are the
same on every seed.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import resource
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from refclock import RefClock

DEFAULT_SEED = 1729
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def result_digest(result) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def command_key(argv) -> str:
    """Golden key of a command: its words without ``--jobs`` (reports are
    identical for any job count) and with file paths cut to their names."""
    words = []
    skip = False
    for word in argv:
        if skip:
            skip = False
        elif word == "--jobs":
            skip = True
        else:
            words.append(os.path.basename(word) if word.endswith(".hg") else word)
    return " ".join(words)


def load_golden(path=GOLDEN_PATH) -> dict:
    """Pinned result of every command, by command key."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["results"]


class Client:
    """One closed-loop client of ``berge.cli.main``.

    Records the latency and CPU time of every command with the reference
    measurement taken before it, counts attempts and failures, and runs
    each command's checks after its timing has stopped.
    """

    def __init__(self, cli, pinned: dict):
        self.cli = cli
        self.pinned = pinned
        self.clock = RefClock()
        self.calls: list[tuple[str, float, float, int]] = []  # key, s, CPU s, reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, argv, check=None, output=None):
        """Run one command; returns its parsed report, or the text it wrote
        to ``output``, or None when it failed."""
        key = command_key(argv)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        error = None
        ref = self.clock.mark()
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed command, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        dc = _cpu_seconds() - c0
        self.calls.append((key, dt, dc, ref))

        problems = []
        report = None
        if code not in (0, 1) or (code == 1 and output is not None):
            problems.append(error or f"exit code {code}: {err.getvalue().strip()[:200]}")
        elif output is not None:
            report = Path(output).read_text(encoding="utf-8")
            problems += self._pinned(key, report, None)
        else:
            try:
                report = json.loads(out.getvalue())
                result = report["result"]
                # Exit code 1 is the verdict "violation found"; an uncaught
                # error also exits 1, but without such a report.
                if code == 1 and (result["holds"] is not False or not result["violations"]):
                    raise ValueError("exit code 1 without a reported violation")
                problems += self._pinned(key, result, result)
                if check is not None:
                    problems += check(result)
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                problems.append(f"exit code {code}, unexpected report ({type(exc).__name__}: "
                                f"{exc}): {err.getvalue().strip()[:200]}")
        if problems:
            self.failed += 1
            self.problems.append(f"{key}: {'; '.join(problems)}")
            return None
        return report

    def _pinned(self, key, payload, result) -> list[str]:
        entry = self.pinned.get(key)
        if entry is None:
            return ["no pinned result for this command"]
        out = []
        if result is not None:
            for name, value in entry.get("pins", {}).items():
                if result.get(name) != value:
                    out.append(f"{name} = {result.get(name)!r}, pinned {value!r}")
        digest = result_digest(payload)
        if digest != entry["sha256"]:
            out.append(f"result digest {digest[:12]} differs from pinned {entry['sha256'][:12]}")
        return out


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# ---------------------------------------------------------------------------
# checks that do not depend on the solver under test
# ---------------------------------------------------------------------------

def check_campaign(result, samples: int | None = None,
                   violations_allowed: bool = False) -> list[str]:
    out = []
    if not violations_allowed and (result.get("holds") is not True or result.get("violations")):
        out.append("campaign reports a violation")
    if samples is not None and result.get("instances_checked") != samples:
        out.append("instances_checked differs from --samples")
    if result.get("instances_checked", 0) < 1:
        out.append("campaign checked no instance")
    if result.get("bp_free_count", 0) > result.get("instances_checked", 0):
        out.append("more path-free instances than instances")
    hist = result.get("cycle_length_histogram")
    if hist is not None:
        if sum(hist.values()) != result["cyclic_instances"]:
            out.append("cycle histogram does not sum to cyclic_instances")
        if result["cyclic_instances"] + result["acyclic_instances"] != result["instances_checked"]:
            out.append("cyclic + acyclic != instances_checked")
    return out


def _walk_ok(edge_set, vs, es, closed: bool) -> bool:
    """Definition of a Berge path (closed=False) or cycle (closed=True)."""
    ell = len(es)
    if closed:
        if ell < 3 or len(vs) != ell:
            return False
    elif len(vs) != ell + 1:
        return False
    if len(set(vs)) != len(vs) or len(set(es)) != ell:
        return False
    for i, e in enumerate(es):
        if e not in edge_set or vs[i] not in e or vs[(i + 1) % len(vs)] not in e:
            return False
    return True


def _witness(result):
    vs = result["witness_vertices"]
    es = result["witness_edges"]
    return tuple(vs), tuple(tuple(e) for e in es)


class Instance:
    """A corpus file with the edge list the benchmark wrote (or read back
    from ``construct``), used for independent checks."""

    def __init__(self, name: str, n: int, edges):
        self.name = name
        self.n = n
        self.edges = sorted(tuple(sorted(e)) for e in edges)
        self.edge_set = set(self.edges)

    def check_path(self, result) -> list[str]:
        vs, es = _witness(result)
        if result["length"] != len(es) or not _walk_ok(self.edge_set, vs, es, False):
            return ["longest-path witness is not a Berge path of the stated length"]
        return []

    def check_cycle(self, result) -> list[str]:
        if result["length"] is None:
            return [] if result["witness_vertices"] is None else ["witness without a cycle"]
        vs, es = _witness(result)
        if result["length"] != len(es) or not _walk_ok(self.edge_set, vs, es, True):
            return ["circumference witness is not a Berge cycle of the stated length"]
        return []

    def check_stats(self, result) -> list[str]:
        deg = [0] * self.n
        sdeg = [0] * self.n
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            for v in e:
                deg[v] += 1
                sdeg[v] += len(e) - 1
                parent[find(v)] = find(e[0])
        m2 = sum(1 for e in self.edges if len(e) == 2)
        expect = {
            "n": self.n, "m": len(self.edges), "m2": m2, "m3": len(self.edges) - m2,
            "shadow_edges": sum(len(e) * (len(e) - 1) // 2 for e in self.edges),
            "components": len({find(v) for v in range(self.n)}),
            "min_degree": min(deg), "max_degree": max(deg),
            "min_shadow_degree": min(sdeg), "max_shadow_degree": max(sdeg),
        }
        return [f"stats {k} = {result.get(k)!r}, expected {v!r}"
                for k, v in expect.items() if result.get(k) != v]

    def check_shadow(self, result) -> list[str]:
        pairs = sorted({p for e in self.edges for p in itertools.combinations(e, 2)})
        if result["n"] != self.n or result["shadow_edges"] != len(pairs) \
                or [tuple(p) for p in result["pairs"]] != pairs:
            return ["shadow pairs differ from the edges written"]
        return []


def read_hg_edges(path) -> tuple[int, list]:
    lines = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n = int(lines[0].split()[0])
    return n, [tuple(int(t) for t in ln.split()) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: a fixed list of ``verify`` commands, one pass = one round."""

    name = ""
    jobs = 1
    commands: list[list[str]] = []
    fanout = None   # (campaign kind, arguments, command key) replayed unit by unit when traced
    violations_allowed = False   # a reported law violation is a verdict, pinned like any result

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.plan = [list(c) for c in self.commands]
        random.Random(f"{self.name}:{self.seed}").shuffle(self.plan)

    def run_pass(self, client: Client, jobs: int) -> int:
        """Run one pass; returns the instances it covered."""
        done = 0
        for argv in self.plan:
            samples = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else None
            report = client.call(argv + ["--jobs", str(jobs)], lambda result: check_campaign(
                result, samples, self.violations_allowed))
            if report is not None:
                done += report["result"]["instances_checked"]
        return done


class Bound(Workload):
    name = "bound"
    why = ("edge and shadow bound campaigns: the enumeration walk, the anchored "
           "path search and canonical forms, with no solver and no pool")
    commands = [
        ["verify", "theorem-shadow", "--n", "6", "--k", "5"],
        ["verify", "theorem-uniform", "--n", "8", "--k", "7"],
        ["verify", "remark", "--n", "7", "--k", "3"],
    ]
    fanout = ("bound", (6, 5), "verify theorem-shadow --n 6 --k 5")


class ClaimsExhaustive(Workload):
    name = "claims-exhaustive"
    why = ("exhaustive structural-law campaign at --jobs 2: the walk with the "
           "anchored cycle search, mask-level law checks and the process pool")
    jobs = 2
    commands = [["verify", "claims", "--n", "6"]]
    fanout = ("claims", (6,), "verify claims --n 6")


class ClaimsRandom(Workload):
    name = "claims-random"
    why = ("structural-law campaigns on a fixed suite of random n = 12 samples: "
           "random_linear, the exact cycle solver and the object-level law checkers, no walk")
    # A fixed suite, like solve-corpus's: at n = 12 one instance in a
    # hundred takes half of the solver's time, so the work of 1000 samples
    # of one --seed is up to twice that of another.  Eight seeds of 250
    # samples make one pass; the run's seed orders them.
    # The object-level claim-triple check reports a violation on some
    # instances whose longest cycle has length 3, among them one of
    # --seed 1736.  The benchmark takes that report as the program's
    # verdict: its result is pinned on every seed like any other.
    violations_allowed = True
    commands = [["verify", "claims", "--n", "12", "--samples", "250", "--seed", str(s)]
                for s in range(DEFAULT_SEED, DEFAULT_SEED + 8)]


# Built-in families, written by ``berge construct`` during each pass.
FAMILIES = [
    ["fano"],
    ["sts_bose", "--n", "15"],
    ["sts_skolem", "--n", "13"],
    ["disjoint_sts", "--k", "7", "--copies", "3"],
    ["disjoint_sts", "--k", "9", "--copies", "2"],
    ["star_k3", "--n", "21"],
    ["matching_k2", "--n", "21"],
]
SUITE_SEED = "berge-perfbench-suite"
SPARSE_N = range(20, 49, 2)       # one sparse file per vertex count
SPARSE_DENSITY = (0.5, 0.6)       # m / n
PAIR_SHARE = 0.3                  # chance that a drawn edge is a 2-edge
LARGE = [(1000, 5000), (1000, 2500)]


def random_linear_edges(rng: random.Random, n: int, m: int) -> list[tuple]:
    """m distinct edges on n vertices, rejecting any that break linearity."""
    covered = set()
    edges = []
    while len(edges) < m:
        e = tuple(sorted(rng.sample(range(n), 2 if rng.random() < PAIR_SHARE else 3)))
        pairs = list(itertools.combinations(e, 2))
        if any(p in covered for p in pairs):
            continue
        covered.update(pairs)
        edges.append(e)
    return edges


def corpus_structures():
    """The fixed structural suite: (name, n, edges, large), the same for
    every seed."""
    rng = random.Random(SUITE_SEED)
    out = []
    for n in SPARSE_N:
        m = round(n * rng.uniform(*SPARSE_DENSITY))
        out.append((f"sparse-n{n}-m{m}", n, random_linear_edges(rng, n, m), False))
    for i, (n, m) in enumerate(LARGE):
        out.append((f"large{i}-n{n}-m{m}", n, random_linear_edges(rng, n, m), True))
    return out


def shuffle_edges(rng: random.Random, edges) -> list[tuple]:
    """The same edges, in a random order and with their vertices in a
    random order.  Vertex labels are kept: the solvers' search order, and
    so the time of each command, depends on them (relabeling moved the
    median command's latency by about 20% between seeds)."""
    out = []
    for e in edges:
        e2 = list(e)
        rng.shuffle(e2)
        out.append(tuple(e2))
    rng.shuffle(out)
    return out


def write_hg(path: Path, n: int, edges) -> None:
    lines = [f"# benchmark corpus file {path.name}", f"{n} {len(edges)}"]
    lines += [" ".join(map(str, e)) for e in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class SolveCorpus(Workload):
    name = "solve-corpus"
    why = ("per-file CLI requests on a seeded .hg corpus: parse and validate, "
           "exact path and cycle solvers, has-path, check claims, stats, shadow")

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}:{self.seed}")
        self.items = []
        for name, n, edges, large in corpus_structures():
            edges = shuffle_edges(rng, edges)
            path = workdir / f"{name}.hg"
            write_hg(path, n, edges)
            self.items.append(("large" if large else "sparse", str(path), Instance(name, n, edges)))
        for family in FAMILIES:
            path = workdir / ("fam-" + "-".join(w.lstrip("-") for w in family) + ".hg")
            self.items.append(("family", str(path), family))
        rng.shuffle(self.items)

    def run_pass(self, client: Client, jobs: int) -> int:
        for kind, path, inst in self.items:
            if kind == "family":
                if client.call(["construct"] + inst + ["-o", path], output=path) is None:
                    continue
                inst = Instance(os.path.basename(path), *read_hg_edges(path))
            if kind == "large":
                client.call(["stats", path], inst.check_stats)
                client.call(["shadow", path], inst.check_shadow)
                continue
            self._solve_file(client, path, inst)
        return len(self.items)

    @staticmethod
    def _solve_file(client: Client, path: str, inst: Instance) -> None:
        lp = client.call(["solve", "longest-path", path], inst.check_path)
        circ = client.call(["solve", "circumference", path], inst.check_cycle)
        if lp is not None:
            ell = lp["result"]["length"]
            for k, expect in ((ell, True), (ell + 1, False)):
                client.call(["solve", "has-path", path, "--k", str(k)],
                            lambda r, expect=expect: [] if r["found"] is expect
                            else [f"has-path returned {r['found']}, expected {expect}"])

        def check_claims(result):
            out = [] if not result["violations"] else ["structural-law violation"]
            if circ is not None and result["cycle_length"] != circ["result"]["length"]:
                out.append("check claims and circumference disagree on the cycle length")
            return out

        client.call(["check", "claims", path], check_claims)


WORKLOADS = {w.name: w for w in (Bound, ClaimsExhaustive, ClaimsRandom, SolveCorpus)}
