"""Exhaustive and randomized verification campaigns over small instances.

The generator walks all linear {2,3}-uniform (or 3-uniform) hypergraphs on
n labeled vertices as a DFS over candidate edges in lexicographic order,
pruning any branch whose pair coverage would break linearity.  Campaign
walkers ride this DFS and keep their expensive state incremental:

* bound campaigns maintain "has a Berge path of length >= k" by searching
  only for paths through the newly added edge (supersets of a hypergraph
  with such a path are pruned: the forbidden-path family is downward
  closed, so every path-free hypergraph is still reached);
* the structural-law campaign maintains a longest Berge cycle by searching
  only for cycles through the new edge (any strictly longer cycle must use
  it), and re-checks only the vertices/edges whose peripheral data changed
  when the cycle context is inherited; on a context change everything is
  re-checked.

Every campaign runs through one driver (``_run_campaign``): ``run_top``
does the work above a fixed DFS prefix depth and returns the work units
below it (DFS prefixes, or single sample indices for random
campaigns), and ``run_prefix`` runs one unit, serially or in a process
pool.  Partial results merge commutatively, so reports are identical for
any job count.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from multiprocessing import Pool

from .errors import CapExceededError
from .hypergraph import Edge, LinearHypergraph, format_hg
from .solver import BergeCycle, all_longest_berge_cycles, longest_berge_cycle
from .structure import CycleContext, check_laws, claim_pair_hit, claim_plus_hit

DEFAULT_SEED = 1729
EXHAUSTIVE_CAP_MIXED = 7
EXHAUSTIVE_CAP_3ONLY = 8
RANDOM_CAP = 12
ISO_CAP = 8
TINY_ALL_CYCLES = 5   # below this, structural laws run on every longest cycle
_SPLIT_DEPTH = 3      # DFS prefix depth at which parallel work units start
CAP_ENV_VAR = "HX_CAP_N"


def _check_cap(n: int, scope: str) -> None:
    """Refuse ``n`` above the cap of ``scope``: "3" or "23" for exhaustive
    walks of that uniformity, "random" for sampling.  The ``HX_CAP_N``
    environment variable overrides every cap."""
    default = {"3": EXHAUSTIVE_CAP_3ONLY, "23": EXHAUSTIVE_CAP_MIXED,
               "random": RANDOM_CAP}[scope]
    raw = os.environ.get(CAP_ENV_VAR)
    try:
        cap = default if raw is None else int(raw)
    except ValueError:
        raise CapExceededError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if n > cap:
        kind = "random" if scope == "random" else "exhaustive"
        raise CapExceededError(
            f"{kind} campaign capped at n <= {cap} "
            f"(override with {CAP_ENV_VAR}); got n = {n}"
        )


@dataclass(frozen=True)
class CampaignParams:
    """Scope of an exhaustive enumeration."""

    n: int
    uniformity: str = "23"          # "3" or "23"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.uniformity not in ("3", "23"):
            raise ValueError(f"uniformity must be '3' or '23', got {self.uniformity!r}")


@dataclass
class VerificationReport:
    """Outcome of a campaign; ``violations`` empty means the property held."""

    params: dict
    instances_checked: int = 0
    violations: list = field(default_factory=list)
    runtime_seconds: float = 0.0
    bp_free_count: int | None = None
    max_hyperedges: int | None = None
    max_shadow_edges: int | None = None
    bound_value: str | None = None
    extremal_witnesses: list | None = None
    extremal_class_count: int | None = None
    extremal_matches_family: bool | None = None
    cyclic_instances: int | None = None
    acyclic_instances: int | None = None
    cycle_length_histogram: dict | None = None
    checked_vertices: int | None = None
    checked_triples: int | None = None
    checked_pairs: int | None = None

    @property
    def holds(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        """Every field that is set, plus ``holds``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if getattr(self, f.name) is not None}
        out["holds"] = self.holds
        return out


# ---------------------------------------------------------------------------
# candidate tables and incremental DFS state
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _candidates(n: int, uniformity: str) -> tuple[tuple[Edge, ...], tuple[int, ...]]:
    """Candidate edges on ``n`` vertices in lexicographic order, and for each
    the bitmask of the vertex pairs it covers.  Built once per scope."""
    cands = list(itertools.combinations(range(n), 3))
    if uniformity == "23":
        cands += itertools.combinations(range(n), 2)
    cands.sort()
    pid = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    bits = tuple(sum(1 << pid[p] for p in itertools.combinations(e, 2))
                 for e in cands)
    return tuple(cands), bits


class _Walk:
    """Mutable DFS state: pair coverage, shadow adjacency, incidences."""

    __slots__ = ("n", "cands", "C", "pair_bits", "pairs", "vmask", "adjbits",
                 "is3", "shcount", "cover", "adj", "incident", "stack",
                 "covered")

    def __init__(self, n: int, uniformity: str):
        self.n = n
        self.cands, self.pair_bits = _candidates(n, uniformity)
        self.C = len(self.cands)
        self.pairs = []   # packed pair keys, both vertex orders, for cover[]
        self.vmask = []
        self.adjbits = []
        self.is3 = []
        self.shcount = []
        for e in self.cands:
            ps = []
            for u, v in itertools.combinations(e, 2):
                ps.append(u * n + v)
                ps.append(v * n + u)
            self.pairs.append(tuple(ps))
            msk = 0
            for v in e:
                msk |= 1 << v
            self.vmask.append(msk)
            self.adjbits.append(tuple((v, msk ^ (1 << v)) for v in e))
            self.is3.append(len(e) == 3)
            self.shcount.append(len(ps) // 2)
        self.reset()

    def reset(self):
        n = self.n
        self.cover = [-1] * (n * n)
        self.adj = [0] * n
        self.incident = [[] for _ in range(n)]
        self.stack = []
        self.covered = 0

    def compatible(self, j: int) -> bool:
        return not (self.covered & self.pair_bits[j])

    def add(self, j: int):
        self.covered |= self.pair_bits[j]
        for p in self.pairs[j]:
            self.cover[p] = j
        for v, bits in self.adjbits[j]:
            self.incident[v].append(j)
            self.adj[v] |= bits
        self.stack.append(j)

    def remove(self, j: int):
        self.stack.pop()
        self.covered ^= self.pair_bits[j]
        for p in self.pairs[j]:
            self.cover[p] = -1
        for v, bits in self.adjbits[j]:
            self.incident[v].pop()
            # linearity: no other edge covers these pairs, so plain XOR
            self.adj[v] ^= bits

    def edge_tuples(self) -> tuple[tuple[int, ...], ...]:
        # stack indices ascend, and candidate order is lexicographic
        return tuple(self.cands[j] for j in self.stack)

    def snapshot(self) -> LinearHypergraph:
        return LinearHypergraph(n=self.n, edges=self.edge_tuples())

    def payload(self) -> str:
        return format_hg(self.snapshot())


# ---------------------------------------------------------------------------
# anchored searches on _Walk state
# ---------------------------------------------------------------------------

def _creates_path(w: _Walk, j: int, k: int) -> bool:
    """Does the hypergraph gain a Berge path of length >= k when edge j
    (already added) is present?  Only paths through j can be new."""
    n = w.n
    if k > n - 1 or k > len(w.stack):
        return False
    adj, cover = w.adj, w.cover
    # quick degree feasibility: k+1 vertices touched, k-1 of them internal
    d1 = d2 = 0
    for v in range(n):
        av = adj[v]
        if av:
            d1 += 1
            if av & (av - 1):
                d2 += 1
    if d1 < k + 1 or d2 < k - 1:
        return False

    def right(wv: int, cprev: int, vis: int, need: int, slots: int) -> bool:
        if need <= 0:
            return True
        if need > slots:
            return False
        m = adj[wv] & ~vis
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            c = cover[wv * n + x]
            if c != cprev and right(x, c, vis | low, need - 1, slots - 1):
                return True
        return False

    def left(wv: int, cprev: int, vis: int, used: int, slots: int, b: int) -> bool:
        if right(b, j, vis, k - 1 - used, slots):
            return True
        if used >= k - 1:
            return False
        m = adj[wv] & ~vis
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            c = cover[wv * n + x]
            if c != cprev and left(x, c, vis | low, used + 1, slots - 1, b):
                return True
        return False

    ev = w.cands[j]
    for ai in range(len(ev)):
        for bi in range(ai + 1, len(ev)):
            a, b = ev[ai], ev[bi]
            if left(a, j, (1 << a) | (1 << b), 0, n - 2, b):
                return True
    return False


def _cycle_through(w: _Walk, j: int, lower: int):
    """Longest Berge cycle strictly longer than ``lower`` using edge j,
    as (vertex tuple, cover-index tuple), or None."""
    n = w.n
    if lower >= n or len(w.stack) <= lower:
        return None
    state = [lower, None, None]  # best_len, best_cyc, best_cov
    path: list[int] = []
    covs: list[int] = []

    def ext(wv: int, cprev: int, vis: int, a: int, lp: int,
            adj=w.adj, cover=w.cover, n=n, j=j, state=state,
            path=path, covs=covs) -> bool:
        if lp >= 3:
            cc = cover[wv * n + a]
            if cc >= 0 and cc != cprev and cc != j and lp > state[0]:
                state[0] = lp
                state[1] = tuple(path)
                state[2] = tuple(covs) + (cc,)
                if lp >= n:
                    return True
        nv = ~vis
        m = adj[wv] & nv
        if not m:
            return False
        if not (adj[a] & (nv | (1 << wv))):
            return False
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            cc = cover[wv * n + x]
            if cc == cprev:
                continue
            path.append(x)
            covs.append(cc)
            done = ext(x, cc, vis | low, a, lp + 1)
            path.pop()
            covs.pop()
            if done:
                return True
        return False

    ev = w.cands[j]
    ne = len(ev)
    for ai in range(ne):
        a = ev[ai]
        for bi in range(ai + 1, ne):
            b = ev[bi]
            path[:] = [a, b]
            covs[:] = [j]
            if ext(b, j, (1 << a) | (1 << b), a, 2):
                break
        if state[0] >= n:
            break
    if state[1] is None:
        return None
    return state[1], state[2]


# ---------------------------------------------------------------------------
# public raw enumeration, canonical forms, random instances
# ---------------------------------------------------------------------------

def enumerate_hypergraphs(params: CampaignParams, visitor=None) -> int:
    """Visit every labeled linear hypergraph in scope; returns the number
    visited.

    Instances come exactly once each, in strictly increasing lexicographic
    edge-set order; the visitor may return False to skip all supersets of
    the current instance.
    """
    _check_cap(params.n, params.uniformity)
    w = _Walk(params.n, params.uniformity)
    count = 0

    def rec(start: int) -> None:
        nonlocal count
        count += 1
        if visitor is not None and visitor(w.snapshot()) is False:
            return
        for j in range(start, w.C):
            if w.compatible(j):
                w.add(j)
                rec(j + 1)
                w.remove(j)

    rec(0)
    return count


def random_linear(n: int, rng: random.Random, uniformity: str = "23") -> LinearHypergraph:
    """Seeded random linear hypergraph: draw a target number of insertion
    attempts uniformly, then insert uniform random candidate edges,
    rejecting any that break linearity."""
    cands, bits = _candidates(n, uniformity)
    count = len(cands)
    covered = 0
    chosen = []
    for _ in range(rng.randint(0, count)):
        i = rng.randrange(count)
        if not covered & bits[i]:
            covered |= bits[i]
            chosen.append(i)
    chosen.sort()   # candidate order is lexicographic
    return LinearHypergraph(n=n, edges=tuple(cands[i] for i in chosen))


def canonical_form(h: LinearHypergraph, cap: int = ISO_CAP) -> bytes:
    """Label-invariant fingerprint: equal iff hypergraphs are isomorphic.

    Minimizes the edge encoding over relabelings, restricted (soundly) to
    relabelings that list vertices class-by-class, where classes group
    vertices by (2-edge degree, 3-edge degree) in a fixed class order.
    Any isomorphism maps classes onto classes, so isomorphic hypergraphs
    range over the same restricted encodings; and since the minimizing
    encoding is itself a labeled instance of the same isomorphism class,
    equal minima imply isomorphism.
    """
    if h.n > cap:
        raise CapExceededError(f"canonical form capped at n <= {cap}, got n = {h.n}")
    inv: dict[int, tuple[int, int]] = {v: (0, 0) for v in range(h.n)}
    for e in h.edges:
        for v in e:
            d2, d3 = inv[v]
            inv[v] = (d2 + 1, d3) if len(e) == 2 else (d2, d3 + 1)
    classes: dict[tuple[int, int], list[int]] = {}
    for v in range(h.n):
        classes.setdefault(inv[v], []).append(v)
    keys = sorted(classes)
    best: tuple | None = None
    pools = [itertools.permutations(classes[key]) for key in keys]
    for arrangement in itertools.product(*pools):
        order = [v for group in arrangement for v in group]
        relabel = {old: new for new, old in enumerate(order)}
        edges = tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in h.edges))
        if best is None or edges < best:
            best = edges
    return repr((h.n, best)).encode()


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

# the campaign of a pool worker, built once per process by _worker_init
_WORKER: dict = {}


def _worker_init(spec):
    factory, args = spec
    _WORKER["campaign"] = factory(*args)


def _worker_run(unit):
    return _WORKER["campaign"].run_prefix(unit)


def _run_campaign(spec, jobs: int | None):
    """Build the campaign ``factory(*args)`` of ``spec = (factory, args)``,
    call its ``run_top``, then ``run_prefix`` on each work unit, on ``jobs``
    processes (default: one per CPU), merging every partial accumulator
    into the top's.  Returns the campaign and the merged accumulator."""
    factory, args = spec
    camp = factory(*args)
    acc, units = camp.run_top(_SPLIT_DEPTH)
    if not units:
        return camp, acc
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1:
        for unit in units:
            acc.merge(camp.run_prefix(unit))
        return camp, acc
    chunk = max(1, len(units) // (jobs * 16))
    with Pool(processes=jobs, initializer=_worker_init, initargs=(spec,)) as pool:
        for part in pool.imap_unordered(_worker_run, units, chunksize=chunk):
            acc.merge(part)
    return camp, acc


# ---------------------------------------------------------------------------
# bound campaigns (edge count / shadow count of path-free hypergraphs)
# ---------------------------------------------------------------------------

class _BoundAcc:
    """Mergeable accumulator for one bound campaign slice.

    ``witnesses`` holds the lexicographically least edge-index stacks at the
    running maximum (capped); ``ties`` holds *all* stacks at the maximum when
    the campaign identifies extremal classes (canonicalized only at report
    time, since running maxima are discarded on every improvement).
    """

    __slots__ = ("visited", "free", "max_edges", "max_shadow", "best_value",
                 "witnesses", "ties", "violations", "limit")

    def __init__(self, limit: int = 8, track_ties: bool = False):
        self.visited = 0
        self.free = 0
        self.max_edges = 0
        self.max_shadow = 0
        self.best_value = -1
        self.limit = limit
        self.witnesses: list[tuple] = []
        self.ties: list[tuple] | None = [] if track_ties else None
        self.violations: list[dict] = []

    def merge(self, other: "_BoundAcc"):
        self.visited += other.visited
        self.free += other.free
        self.max_edges = max(self.max_edges, other.max_edges)
        self.max_shadow = max(self.max_shadow, other.max_shadow)
        if other.best_value > self.best_value:
            self.best_value = other.best_value
            self.witnesses = list(other.witnesses)
            self.ties = other.ties
        elif other.best_value == self.best_value:
            self.witnesses = sorted(self.witnesses + other.witnesses)[: self.limit]
            if self.ties is not None and other.ties is not None:
                self.ties.extend(other.ties)
        self.violations.extend(other.violations)


class _BoundCampaign:
    """Max e(H) / e(∂H) over hypergraphs with no Berge path of length k."""

    def __init__(self, n: int, k: int, uniformity: str, metric: str,
                 bound_lhs: int, bound_rhs: int, collect_classes: bool,
                 witness_limit: int):
        self.n = n
        self.k = k
        self.metric = metric              # "edges" or "shadow"
        self.bound_lhs = bound_lhs        # violation iff lhs*value > rhs
        self.bound_rhs = bound_rhs
        self.collect_classes = collect_classes
        self.witness_limit = witness_limit
        self.walk = _Walk(n, uniformity)

    # -- per-node visit; returns False when the node must not be extended --
    def visit(self, acc: _BoundAcc, free: bool, m_edges: int, sh: int) -> bool:
        acc.visited += 1
        if not free:
            return False
        acc.free += 1
        if m_edges > acc.max_edges:
            acc.max_edges = m_edges
        if sh > acc.max_shadow:
            acc.max_shadow = sh
        value = m_edges if self.metric == "edges" else sh
        if value > acc.best_value:
            acc.best_value = value
            acc.witnesses = [tuple(self.walk.stack)]
            if acc.ties is not None:
                acc.ties = [tuple(self.walk.stack)]
        elif value == acc.best_value:
            if len(acc.witnesses) < self.witness_limit:
                acc.witnesses.append(tuple(self.walk.stack))
            if acc.ties is not None:
                acc.ties.append(tuple(self.walk.stack))
        if self.bound_lhs * value > self.bound_rhs:
            acc.violations.append({
                "kind": "bound-exceeded",
                "value": value,
                "bound": str(Fraction(self.bound_rhs, self.bound_lhs)),
                "instance": self.walk.payload(),
            })
        return True

    def descend(self, acc: _BoundAcc, start: int, m_edges: int, sh: int,
                depth_cap: int | None, units: list | None):
        w = self.walk
        pair_bits = w.pair_bits
        covered = w.covered
        k = self.k
        for j in range(start, w.C):
            if covered & pair_bits[j]:
                continue
            w.add(j)
            free = not _creates_path(w, j, k)
            sh2 = sh + w.shcount[j]
            extend = self.visit(acc, free, m_edges + 1, sh2)
            if extend:
                if depth_cap is not None and len(w.stack) >= depth_cap:
                    units.append(tuple(w.stack))
                else:
                    self.descend(acc, j + 1, m_edges + 1, sh2, depth_cap, units)
            w.remove(j)

    def new_acc(self) -> _BoundAcc:
        return _BoundAcc(limit=self.witness_limit, track_ties=self.collect_classes)

    # -- drivers --
    def run_prefix(self, prefix: tuple) -> _BoundAcc:
        """Walk the subtree strictly below ``prefix`` (worker side)."""
        w = self.walk
        w.reset()
        for j in prefix:
            w.add(j)
        acc = self.new_acc()
        m_edges = len(prefix)
        sh = sum(w.shcount[j] for j in prefix)
        self.descend(acc, prefix[-1] + 1, m_edges, sh, None, None)
        return acc

    def run_top(self, depth_cap: int) -> tuple[_BoundAcc, list]:
        """Walk depth <= depth_cap, collecting free depth-cap prefixes."""
        w = self.walk
        w.reset()
        acc = self.new_acc()
        units: list[tuple] = []
        self.visit(acc, True, 0, 0)   # the edgeless hypergraph
        self.descend(acc, 0, 0, 0, depth_cap, units)
        return acc, units


# perfbench/tracing.py builds bound campaigns under this name
_make_bound_campaign = _BoundCampaign


def _verify_bound(campaign: str, n: int, k: int, uniformity: str, metric: str,
                  lhs: int, rhs: int, jobs: int | None, witness_limit: int,
                  collect_classes: bool = False, family=None) -> VerificationReport:
    """Run one bound campaign and build its report; ``family(n)``, when
    given, is the extremal family the classes are compared with."""
    _check_cap(n, uniformity)
    started = time.perf_counter()
    spec = (_BoundCampaign,
            (n, k, uniformity, metric, lhs, rhs, collect_classes, witness_limit))
    camp, acc = _run_campaign(spec, jobs)
    witnesses = sorted(acc.witnesses)[:witness_limit]

    def instance_of(stack: tuple) -> LinearHypergraph:
        return LinearHypergraph(n=n, edges=tuple(camp.walk.cands[j] for j in stack))

    report = VerificationReport(
        params={"campaign": campaign, "n": n, "k": k, "uniformity": uniformity,
                "mode": "exhaustive"},
        instances_checked=acc.visited,
        bp_free_count=acc.free,
        max_hyperedges=acc.max_edges if uniformity == "3" else None,
        max_shadow_edges=acc.max_shadow,
        bound_value=str(Fraction(rhs, lhs)),
        extremal_witnesses=[format_hg(instance_of(s)) for s in witnesses],
        violations=sorted(acc.violations, key=lambda v: v["instance"]),
        runtime_seconds=round(time.perf_counter() - started, 6),
    )
    if acc.ties is not None:
        classes = {canonical_form(instance_of(s)) for s in acc.ties}
        report.extremal_class_count = len(classes)
        if family is not None:
            report.extremal_matches_family = classes == {canonical_form(family(n))}
    return report


def verify_theorem_uniform(n: int, k: int, jobs: int | None = None,
                           witness_limit: int = 8) -> VerificationReport:
    """Max hyperedge count of 3-uniform linear hypergraphs on n vertices
    with no Berge path of length k, checked against 6*e(H) <= (k-1)*n."""
    if k < 4:
        raise ValueError(f"this bound needs k >= 4, got {k}")
    return _verify_bound("theorem-uniform", n, k, "3", "edges", 6, (k - 1) * n,
                         jobs, witness_limit)


def verify_theorem_shadow(n: int, k: int, jobs: int | None = None,
                          witness_limit: int = 8) -> VerificationReport:
    """Max shadow size of {2,3}-uniform linear hypergraphs on n vertices
    with no Berge path of length k, checked against 2*e(∂H) <= (k-1)*n."""
    if k < 4:
        raise ValueError(f"this bound needs k >= 4, got {k}")
    return _verify_bound("theorem-shadow", n, k, "23", "shadow", 2, (k - 1) * n,
                         jobs, witness_limit)


def verify_remark(n: int, k: int, jobs: int | None = None,
                  witness_limit: int = 8) -> VerificationReport:
    """Short-path cases k in {1,2,3} with their exact shadow bounds and
    extremal-family identification via canonical forms.

    ``extremal_matches_family`` is true only when the extremal classes are
    exactly the family's one class (the triple matching for k = 2, the star
    for k = 3), so it is False at k = 3, n = 3, where the triangle of
    three 2-edges ties the star.
    """
    from . import constructions

    if k not in (1, 2, 3):
        raise ValueError(f"the short-path cases cover k in {{1,2,3}}, got {k}")
    lhs, rhs = {1: (1, 0), 2: (1, n), 3: (2, 3 * (n - 1))}[k]
    family = None
    if k == 2 and n % 3 == 0:
        family = constructions.matching_k2
    elif k == 3 and n % 2 == 1 and n >= 3:
        family = constructions.star_k3
    return _verify_bound("remark", n, k, "23", "shadow", lhs, rhs, jobs,
                         witness_limit, collect_classes=True, family=family)


# ---------------------------------------------------------------------------
# structural-law campaign (peripheral sets around longest Berge cycles)
# ---------------------------------------------------------------------------

class _ClaimsAcc:
    __slots__ = ("visited", "cyclic", "hist", "vertices", "triples", "pairs",
                 "violations")

    def __init__(self, n: int):
        self.visited = 0
        self.cyclic = 0
        self.hist = [0] * (n + 1)   # by cycle length
        self.vertices = 0
        self.triples = 0
        self.pairs = 0
        self.violations: list[dict] = []

    def merge(self, other: "_ClaimsAcc"):
        self.visited += other.visited
        self.cyclic += other.cyclic
        for i, c in enumerate(other.hist):
            self.hist[i] += c
        self.vertices += other.vertices
        self.triples += other.triples
        self.pairs += other.pairs
        self.violations.extend(other.violations)

    def object_laws(self, h: LinearHypergraph, cycle: BergeCycle) -> list:
        """Object-level laws around one oriented cycle: counts the checks
        and returns the violations."""
        found, vertices, triples, pairs = check_laws(h, CycleContext.from_cycle(h, cycle))
        self.vertices += vertices
        self.triples += triples
        self.pairs += pairs
        return found


class _ClaimsCampaign:
    """Checks the shifted-disjointness laws on every instance with a cycle.

    The cycle context is maintained incrementally along the DFS.  When the
    context is inherited from the parent instance, only the peripheral data
    of the new edge's off-cycle vertices changed, so only checks involving
    them are re-run; on a context change everything is re-checked.  For
    n <= TINY_ALL_CYCLES the laws are additionally checked on *every*
    longest cycle, in both orientations, through the object-level checkers.
    """

    def __init__(self, n: int):
        self.n = n
        self.walk = _Walk(n, "23")
        self.tiny = n <= TINY_ALL_CYCLES

    # ctx: (ell, cyc, defmask, third, pos, cmask, fullmask)
    def make_ctx(self, cyc, covs):
        w = self.walk
        ell = len(cyc)
        pos = [-1] * self.n
        cmask = 0
        for i, v in enumerate(cyc):
            pos[v] = i
            cmask |= 1 << v
        defmask = 0
        for ci in covs:
            defmask |= 1 << ci
        third = []
        for i in range(ell):
            ev = w.cands[covs[i]]
            if len(ev) == 3:
                third.append(ev[0] + ev[1] + ev[2] - cyc[i] - cyc[(i + 1) % ell])
            else:
                third.append(-1)
        return (ell, cyc, defmask, tuple(third), pos, cmask, (1 << ell) - 1)

    def _s_l(self, ctx, u: int) -> tuple[int, int]:
        ell, _cyc, defmask, third, pos, _cm, _fm = ctx
        w = self.walk
        s_mask = 0
        for ei in w.incident[u]:
            if (defmask >> ei) & 1:
                continue
            for x in w.cands[ei]:
                if x != u:
                    p = pos[x]
                    if p >= 0:
                        s_mask |= 1 << p
        l_mask = 0
        for t in range(ell):
            if third[t] == u:
                l_mask |= 1 << t
        return s_mask, l_mask

    def _record(self, acc: _ClaimsAcc, ctx, kind: str, us, detail: str):
        acc.violations.append({
            "kind": kind,
            "vertices": list(us),
            "cycle": list(ctx[1]),
            "condition": detail,
            "instance": self.walk.payload(),
        })

    def _check_vertex(self, acc: _ClaimsAcc, ctx, u: int) -> tuple[int, int]:
        ell = ctx[0]
        s_mask, l_mask = self._s_l(ctx, u)
        acc.vertices += 1
        if claim_plus_hit(s_mask, l_mask, ell) is not None:
            self._record(acc, ctx, "claim-plus", (u,), "(S∪L) ∩ shift(S,-1) nonempty")
        if s_mask.bit_count() > ell >> 1:
            self._record(acc, ctx, "s-size", (u,), "|S| exceeds floor(l/2)")
        return s_mask, l_mask

    def _check_triple(self, acc: _ClaimsAcc, ctx, ei: int):
        w = self.walk
        cmask = ctx[5]
        ell = ctx[0]
        ev = w.cands[ei]
        sl = [self._check_vertex(acc, ctx, u) for u in ev]
        acc.triples += 1
        for i in range(3):
            si, li = sl[i]
            for j in range(3):
                if i != j and claim_pair_hit(si, li, sl[j][0], sl[j][1], ell, 2):
                    self._record(acc, ctx, "claim-plus-plus", (ev[i], ev[j]),
                                 "shifted overlap within an off-cycle hyperedge")
        emask = w.vmask[ei]
        for u in ev:
            for fj in w.incident[u]:
                if fj == ei or not w.is3[fj]:
                    continue
                fmask = w.vmask[fj]
                if fmask & cmask:
                    continue
                shared = emask & fmask
                if shared.bit_count() != 1:
                    continue
                u1 = shared.bit_length() - 1
                lefts = [v for v in ev if v != u1]
                rights = [v for v in w.cands[fj] if v != u1]
                sli = [self._s_l(ctx, v) for v in lefts]
                slj = [self._s_l(ctx, v) for v in rights]
                for (si, li), uv in zip(sli, lefts):
                    for (sj, lj), vv in zip(slj, rights):
                        acc.pairs += 1
                        if claim_pair_hit(si, li, sj, lj, ell, 3):
                            self._record(acc, ctx, "claim-triple", (uv, vv),
                                         "shifted overlap across sharing hyperedges")
                for (sj, lj), vv in zip(slj, rights):
                    for (si, li), uv in zip(sli, lefts):
                        acc.pairs += 1
                        if claim_pair_hit(sj, lj, si, li, ell, 3):
                            self._record(acc, ctx, "claim-triple", (vv, uv),
                                         "shifted overlap across sharing hyperedges")

    def _full_check(self, acc: _ClaimsAcc, ctx):
        w = self.walk
        cmask = ctx[5]
        rest = ~cmask & ((1 << self.n) - 1)
        done = 0
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            self._check_vertex(acc, ctx, u)
            for ei in w.incident[u]:
                if w.is3[ei] and not (w.vmask[ei] & cmask) and not ((done >> ei) & 1):
                    done |= 1 << ei
                    self._check_triple(acc, ctx, ei)

    def _delta_check(self, acc: _ClaimsAcc, ctx, j: int):
        w = self.walk
        cmask = ctx[5]
        done = 0
        for u in w.cands[j]:
            if (cmask >> u) & 1:
                continue
            self._check_vertex(acc, ctx, u)
            for ei in w.incident[u]:
                if w.is3[ei] and not (w.vmask[ei] & cmask) and not ((done >> ei) & 1):
                    done |= 1 << ei
                    self._check_triple(acc, ctx, ei)

    def _tiny_all_cycles(self, acc: _ClaimsAcc, ctx):
        """Object-level re-check on every longest cycle, both orientations."""
        h = self.walk.snapshot()
        cycles = all_longest_berge_cycles(h)
        if ctx is None:
            if cycles:
                self._record(acc, ("", ()), "solver-mismatch", (),
                             "incremental context missing but a cycle exists")
            return
        if not cycles or cycles[0].length != ctx[0]:
            self._record(acc, ctx, "solver-mismatch", (),
                         "incremental cycle length disagrees with solver")
            return
        for cyc in cycles:
            for oriented in (cyc, _reverse_cycle(cyc)):
                for v in acc.object_laws(h, oriented):
                    self._record(acc, ctx, v.kind, v.us, v.condition)

    def descend(self, acc: _ClaimsAcc, start: int, ctx,
                depth_cap: int | None, units: list | None):
        w = self.walk
        pair_bits = w.pair_bits
        covered = w.covered
        hist = acc.hist
        tiny = self.tiny
        for j in range(start, w.C):
            if covered & pair_bits[j]:
                continue
            w.add(j)
            found = _cycle_through(w, j, ctx[0] if ctx else 2)
            acc.visited += 1
            if found is not None:
                ctx2 = self.make_ctx(found[0], found[1])
                acc.cyclic += 1
                hist[ctx2[0]] += 1
                self._full_check(acc, ctx2)
            else:
                ctx2 = ctx
                if ctx2 is not None:
                    acc.cyclic += 1
                    hist[ctx2[0]] += 1
                    self._delta_check(acc, ctx2, j)
            if tiny:
                self._tiny_all_cycles(acc, ctx2)
            if depth_cap is not None and len(w.stack) >= depth_cap:
                units.append(tuple(w.stack))
            else:
                self.descend(acc, j + 1, ctx2, depth_cap, units)
            w.remove(j)

    def visit_root(self, acc: _ClaimsAcc):
        acc.visited += 1
        if self.tiny:
            self._tiny_all_cycles(acc, None)

    def replay_ctx(self, prefix: tuple):
        """Rebuild walk state and cycle context along ``prefix``."""
        w = self.walk
        w.reset()
        ctx = None
        for j in prefix:
            w.add(j)
            found = _cycle_through(w, j, ctx[0] if ctx else 2)
            if found is not None:
                ctx = self.make_ctx(found[0], found[1])
        return ctx

    def run_prefix(self, prefix: tuple) -> _ClaimsAcc:
        ctx = self.replay_ctx(prefix)
        acc = _ClaimsAcc(self.n)
        self.descend(acc, prefix[-1] + 1, ctx, None, None)
        return acc

    def run_top(self, depth_cap: int) -> tuple[_ClaimsAcc, list]:
        self.walk.reset()
        acc = _ClaimsAcc(self.n)
        units: list[tuple] = []
        self.visit_root(acc)   # the edgeless hypergraph
        self.descend(acc, 0, None, depth_cap, units)
        return acc, units


def _reverse_cycle(cyc):
    vs = cyc.vertices
    es = cyc.hyperedges
    return BergeCycle(
        vertices=(vs[0],) + tuple(reversed(vs[1:])),
        hyperedges=tuple(reversed(es)),
    )


class _RandomClaimsCampaign:
    """The structural laws on seeded random instances, around the exact
    solver's longest cycle; a work unit is one sample index."""

    def __init__(self, n: int, samples: int, seed: int):
        self.n = n
        self.samples = samples
        self.seed = seed

    def run_top(self, depth_cap: int) -> tuple[_ClaimsAcc, list]:
        # no work above the split: every sample lies in some unit
        return _ClaimsAcc(self.n), list(range(self.samples))

    def run_prefix(self, i: int) -> _ClaimsAcc:
        acc = _ClaimsAcc(self.n)
        h = random_linear(self.n, random.Random(f"{self.seed}:{i}"))
        acc.visited += 1
        cyc = longest_berge_cycle(h)
        if cyc is None:
            return acc
        acc.cyclic += 1
        acc.hist[cyc.length] += 1
        for v in acc.object_laws(h, cyc):
            acc.violations.append({
                "kind": v.kind,
                "vertices": list(v.us),
                "cycle": list(cyc.vertices),
                "condition": v.condition,
                "sample_index": i,
                "instance": format_hg(h),
            })
        return acc


def verify_claims(n: int, samples: int | None = None, seed: int = DEFAULT_SEED,
                  jobs: int | None = None) -> VerificationReport:
    """Structural-law campaign: exhaustive when ``samples`` is None,
    otherwise over seeded random instances (capped at n <= 12)."""
    started = time.perf_counter()
    if samples is None:
        _check_cap(n, "23")
        params = {"campaign": "claims", "n": n, "mode": "exhaustive"}
        spec = (_ClaimsCampaign, (n,))
    else:
        _check_cap(n, "random")
        params = {"campaign": "claims", "n": n, "mode": "random",
                  "samples": samples, "seed": seed}
        spec = (_RandomClaimsCampaign, (n, samples, seed))
    _camp, acc = _run_campaign(spec, jobs)
    violations = sorted(
        acc.violations,
        key=lambda v: (v.get("sample_index", -1), v["instance"], v["kind"]),
    )
    return VerificationReport(
        params=params,
        instances_checked=acc.visited,
        cyclic_instances=acc.cyclic,
        acyclic_instances=acc.visited - acc.cyclic,
        cycle_length_histogram={str(ell): c for ell, c in enumerate(acc.hist) if c},
        checked_vertices=acc.vertices,
        checked_triples=acc.triples,
        checked_pairs=acc.pairs,
        violations=violations,
        runtime_seconds=round(time.perf_counter() - started, 6),
    )
