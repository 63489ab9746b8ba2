"""Exhaustive and randomized verification campaigns over small instances.

One labeled walk, ``_Walk.descend``, visits all linear {2,3}-uniform (or
3-uniform) hypergraphs on n labeled vertices as a DFS over candidate edges
in lexicographic order.  Each node carries the bitmask of its live
candidates, those after its last edge that keep it linear; a child's are
its parent's later ones less those that share a vertex pair with the new
edge.  Each exhaustive enumeration is a *step* on that walk:
``step(acc, j, state)`` visits the instance that edge j has just extended,
with the state its parent handed down, and returns the child's state or
``_PRUNE``.  The steps keep their expensive state incremental:

* ``enumerate_hypergraphs`` calls a visitor, which may prune;
* bound campaigns carry the shadow size and prune on "has a Berge path of
  length >= k", searching only for paths through the new edge (the
  forbidden-path family is downward closed, so every path-free hypergraph
  is still reached): one arm search from each anchored seed a, b of
  ``_Walk.seeds``, which grows the arm at a and, at each of its nodes,
  hands the edges still needed to the arm at b once a's own extensions
  fail.  Supersets inherit the path, so each node tests its live
  candidates once, before visiting any child, without adding them, after
  one degree check per node; the ones that failed go down as a ``dead``
  mask: a search runs once per branch, not once per instance below it;
  every stack at the maximum shadow size is kept until the report;
* the structural-law campaign carries a longest Berge cycle, searching
  only for cycles through the new edge (any strictly longer cycle must use
  it) and no longer than the number of vertices in two edges; an
  inherited cycle context is re-checked only at the new edge's vertices,
  a new one everywhere, and a Hamiltonian one has no off-cycle vertex, so
  it is built without its L(u) tables.

The walk keeps its degree state as it goes: ``add`` pushes the masks of
the vertices in at least one edge and in at least two, ``remove`` pops
them.  Both the bound prune's degree check and the cycle search's length
bound read them instead of scanning the vertices.

Every campaign runs through one driver (``_run_campaign``): ``run_top``
does the work above a fixed DFS prefix depth and returns the work units
below it (DFS prefixes that still have live candidates, with their dead
masks, or single sample indices for random campaigns), and
``run_prefix`` runs one unit, serially or in a process pool, after
``_Walk.replay`` has rebuilt the walk and the step's state at the prefix.
With one job the walk is not split.  Partial results merge commutatively,
so reports are identical for any job count.  Walks share the scope's
tables (``_walk_tables``); a walk's own pair -> edge table is read only at
pairs its shadow adjacency shows as covered, so removing an edge clears
its adjacency bits alone.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import types
from dataclasses import dataclass, field, fields
from fractions import Fraction
from multiprocessing import Pool

from .errors import CapExceededError
from .hypergraph import Edge, LinearHypergraph, format_hg
from .solver import (
    BergeCycle,
    _cycle_kernel,
    all_longest_berge_cycles,
    longest_berge_cycle,
)
from .structure import CycleContext, check_laws, claim_pair_hit, claim_plus_hit

DEFAULT_SEED = 1729
EXHAUSTIVE_CAP_MIXED = 7
EXHAUSTIVE_CAP_3ONLY = 8
RANDOM_CAP = 12
TINY_ALL_CYCLES = 5   # below this, structural laws run on every longest cycle
_SPLIT_DEPTH = 3      # DFS prefix depth at which parallel work units start
WITNESS_LIMIT = 8     # extremal witnesses in a bound report
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
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if n > cap:
        kind = "random" if scope == "random" else "exhaustive"
        raise CapExceededError(
            f"{kind} campaign capped at n <= {cap} "
            f"(override with {CAP_ENV_VAR}); got n = {n}"
        )


@dataclass
class VerificationReport:
    """Outcome of a campaign; ``violations`` empty means the property held."""

    params: dict
    instances_checked: int = 0
    violations: list = field(default_factory=list)
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


@functools.lru_cache(maxsize=None)
def _walk_tables(n: int, uniformity: str) -> tuple:
    """The walk's tables, built once per scope: the candidates and, per
    candidate, the mask of later ones sharing no vertex pair with it, its
    cover keys, vertex mask, adjacency bits, shadow pairs and anchored seeds."""
    cands, bits = _candidates(n, uniformity)
    after = tuple(sum(1 << i for i in range(j + 1, len(bits)) if not bits[i] & bits[j])
                  for j in range(len(bits)))
    pairs = []
    vmask = []
    adjbits = []
    shcount = []
    seeds = []
    for j, e in enumerate(cands):
        ps = []
        for u, v in itertools.combinations(e, 2):
            ps.append(u * n + v)
            ps.append(v * n + u)
        pairs.append(tuple(ps))
        msk = 0
        for v in e:
            msk |= 1 << v
        vmask.append(msk)
        adjbits.append(tuple((v, msk ^ (1 << v)) for v in e))
        shcount.append(len(ps) // 2)
        seeds.append(tuple((a, b, j, (1 << a) | (1 << b))
                           for a, b in itertools.combinations(e, 2)))
    return (cands, after, tuple(pairs), tuple(vmask), tuple(adjbits),
            tuple(shcount), tuple(seeds))


_PRUNE = object()   # a step's verdict: do not extend this instance


class _Walk:
    """Mutable DFS state (edge stack, shadow adjacency, pair coverage,
    vertex degrees) and the one labeled DFS that every exhaustive walk runs
    on it.  ``cover`` is stale off the pairs ``adj`` shows as covered, each
    in one edge by linearity; the edges through u are those of the stack
    that hold u.  ``degs`` holds, per depth, the vertex masks (in at least
    one edge, in at least two edges), so ``degs[-1]`` is the current
    instance's: ``_cycle_through`` bounds its search by the second (every
    vertex of a Berge cycle lies in two of its edges), and the bound prune
    reads both for its degree check."""

    __slots__ = ("n", "cands", "after", "pairs", "vmask",
                 "adjbits", "shcount", "cover", "adj",
                 "stack", "degs", "seeds")

    def __init__(self, n: int, uniformity: str):
        self.n = n
        (self.cands, self.after, self.pairs, self.vmask, self.adjbits,
         self.shcount, self.seeds) = _walk_tables(n, uniformity)
        self.cover = [-1] * (n * n)
        self.reset()

    def reset(self):
        self.adj = [0] * self.n
        self.stack = []
        self.degs = [(0, 0)]

    def live(self) -> int:
        """The candidates that extend the current instance: after its last
        edge and sharing no vertex pair with any of its edges."""
        live = (1 << len(self.cands)) - 1
        for j in self.stack:
            live &= self.after[j]
        return live

    def descend(self, acc, step, live: int, state, depth_cap: int | None,
                units: list | None, test=None, dead: int = 0):
        """The labeled DFS below the current instance, whose extending
        candidates are the bitmask ``live`` (see ``live()``).  Each extends
        it in turn, in ascending order, and is counted in ``acc.visited``;
        ``step(acc, j, state)`` visits the extension and returns the child's
        state, or ``_PRUNE`` to skip the instances that extend it with later
        candidates.  A child at ``depth_cap`` edges that has live candidates
        is not extended: its stack and ``dead`` go to ``units``.

        ``test``, when given, is a monotone prune: ``test(mask)`` returns
        the candidates of ``mask`` whose extension fails it, and every
        instance that contains a failing extension fails it too.  ``dead``
        holds the candidates that failed here or at an ancestor.  Each node
        tests its live candidates that are not dead, once, before visiting
        any child; dead candidates are counted but neither visited nor
        tested again below.  In such a walk, a child with no live candidates
        of its own is visited with only the stack pushed (its step must read
        nothing else there)."""
        acc.visited += live.bit_count()
        if test is not None:
            dead |= test(live & ~dead)
        after = self.after
        stack = self.stack
        while live:
            low = live & -live
            live ^= low
            if dead & low:
                continue
            j = low.bit_length() - 1
            below = live & after[j]
            if test is not None and not below:   # a leaf of a pruned walk
                stack.append(j)
                step(acc, j, state)
                stack.pop()
                continue
            self.add(j)
            child = step(acc, j, state)
            if below and child is not _PRUNE:
                if depth_cap is not None and len(stack) >= depth_cap:
                    units.append((tuple(stack), dead))
                else:
                    self.descend(acc, step, below, child, depth_cap, units, test, dead)
            self.remove(j)

    def replay(self, prefix: tuple, advance, state):
        """Rebuild the walk at a work unit's ``prefix`` and return its state,
        folding ``advance(j, state)`` over the edges as they are added."""
        self.reset()
        for j in prefix:
            self.add(j)
            state = advance(j, state)
        return state

    def add(self, j: int):
        for p in self.pairs[j]:
            self.cover[p] = j
        for v, bits in self.adjbits[j]:
            self.adj[v] |= bits
        self.stack.append(j)
        one, two = self.degs[-1]
        vm = self.vmask[j]
        self.degs.append((one | vm, two | one & vm))

    def remove(self, j: int):
        self.stack.pop()
        self.degs.pop()
        for v, bits in self.adjbits[j]:
            # linearity: no other edge covers these pairs, so plain XOR
            self.adj[v] ^= bits

    def snapshot(self) -> LinearHypergraph:
        # stack indices ascend, and candidate order is lexicographic
        return LinearHypergraph(n=self.n, edges=tuple(self.cands[j] for j in self.stack))

    def payload(self) -> str:
        return format_hg(self.snapshot())


# ---------------------------------------------------------------------------
# anchored searches on _Walk state
# ---------------------------------------------------------------------------

def _creates_path(w: _Walk, j: int, k: int) -> bool:
    """Does edge j, compatible with the current instance but not added to
    it, give it a Berge path of length >= k?  Only paths through j can be
    new, and no arm meets j's pairs: each seed pair starts visited, and j's
    third vertex is reachable only through j."""
    n = w.n
    adj, cover = w.adj, w.cover

    def arm(wv: int, cprev: int, vis: int, need: int, b: int) -> bool:
        # grow the arm at wv; the arm at a (b >= 0) hands what is still needed
        # to the arm at b (passed on with b = -1) once its own extensions fail
        if need <= 0:
            return True
        m = adj[wv] & ~vis
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            c = cover[wv * n + x]
            if c != cprev and arm(x, c, vis | low, need - 1, b):
                return True
        return b >= 0 and arm(b, j, vis, need, -1)

    for a, b, _j, pair in w.seeds[j]:
        if arm(a, j, pair, k - 1, b):
            return True
    return False


def _cycle_through(w: _Walk, j: int, lower: int):
    """Longest Berge cycle strictly longer than ``lower`` using edge j,
    as (vertex tuple, cover-index tuple), or None.  Every cycle vertex lies
    in two of the cycle's edges, so the cycle is no longer than the number
    of vertices in two edges, and j closes none unless two of its own
    vertices are among them; the kernel stops at the first cycle of that
    length, which is then the longest."""
    two = w.degs[-1][1]
    ub = min(two.bit_count(), len(w.stack))
    if ub <= lower or (two & w.vmask[j]).bit_count() < 2:
        return None
    hits = _cycle_kernel(w.adj, w.cover, w.vmask, w.n, w.seeds[j], lower, ub)
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# public raw enumeration, canonical forms, random instances
# ---------------------------------------------------------------------------

def enumerate_hypergraphs(n: int, uniformity: str = "23", visitor=None) -> int:
    """Visit every labeled linear hypergraph on ``n`` vertices whose edges
    have the sizes of ``uniformity`` ("3" or "23"); returns the number
    visited.

    Instances come exactly once each, in strictly increasing lexicographic
    edge-set order.  The visitor may return False to skip the instances
    that extend the current one with candidate edges after its last edge;
    its other supersets, those with an earlier edge it lacks, still come.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if uniformity not in ("3", "23"):
        raise ValueError(f"uniformity must be '3' or '23', got {uniformity!r}")
    _check_cap(n, uniformity)
    w = _Walk(n, uniformity)

    def step(acc, j, state):
        if visitor is not None and visitor(w.snapshot()) is False:
            return _PRUNE
        return None

    acc = types.SimpleNamespace(visited=1)   # the edgeless hypergraph
    if step(acc, None, None) is not _PRUNE:
        w.descend(acc, step, w.live(), None, None, None)
    return acc.visited


def random_linear(n: int, rng: random.Random, uniformity: str = "23") -> LinearHypergraph:
    """Seeded random linear hypergraph: draw a target number of insertion
    attempts uniformly, then insert uniform random candidate edges,
    rejecting any that break linearity.  Each candidate index is drawn as
    ``rng.randrange(count)`` draws it (``count.bit_length()`` random bits,
    redrawn while out of range), so the stream is that of ``randrange``
    without its per-call overhead."""
    cands, bits = _candidates(n, uniformity)
    count = len(cands)
    k = count.bit_length()
    getrandbits = rng.getrandbits
    covered = 0
    chosen = []
    for _ in range(rng.randint(0, count)):
        i = getrandbits(k)
        while i >= count:
            i = getrandbits(k)
        if not covered & bits[i]:
            covered |= bits[i]
            chosen.append(i)
    chosen.sort()   # candidate order is lexicographic
    return LinearHypergraph(n=n, edges=tuple(cands[i] for i in chosen))


def _refine(cells: list[list[int]], incident: list[list[Edge]]) -> list[list[int]]:
    """Refine an ordered vertex partition until it is equitable.

    A vertex's signature is the sorted multiset, over its edges, of the
    sorted cell indices of its co-members in that edge.  Each cell splits by
    signature, the parts in signature order, until no cell splits; so the
    result depends on the cells and the edges, not on the vertex labels.
    """
    while True:
        cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            parts: dict[tuple, list[int]] = {}
            for v in cell:
                sig = tuple(sorted(tuple(sorted(cell_of[u] for u in e if u != v))
                                   for e in incident[v]))
                parts.setdefault(sig, []).append(v)
            refined.extend(parts[sig] for sig in sorted(parts))
        if len(refined) == len(cells):
            return cells
        cells = refined


def canonical_form(h: LinearHypergraph) -> bytes:
    """Label-invariant fingerprint: equal iff hypergraphs are isomorphic.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism II", J. Symbolic Comput. 60, 2014).  Each node of the search
    tree is an equitable ordered partition (``_refine``).  A node's children
    individualize, one at a time, each vertex of its first non-singleton
    cell whose vertices lie in some edge, and refine again.  A node whose
    non-isolated vertices are all singletons is a leaf: it labels each
    vertex by its position in the partition.  The form is the least sorted
    relabeled edge tuple over the leaves.  Refinement and the target-cell
    rule commute with relabeling, so isomorphic inputs have the same leaf
    encodings; and the least encoding is itself a labeled copy of ``h``, so
    equal forms imply isomorphism.

    Two leaves with the same encoding differ by an automorphism of ``h``.
    A child is skipped when it lies in the orbit of an explored sibling
    under the group generated by the automorphisms found so far that fix
    each of the node's individualized vertices: an element of that group
    maps the node to itself and the explored subtree onto the skipped one,
    leaf encodings included, so the minimum is unchanged.
    """
    n = h.n
    incident: list[list[Edge]] = [[] for _ in range(n)]
    for e in h.edges:
        for v in e:
            incident[v].append(e)
    leaves: dict[tuple, list[int]] = {}   # encoding -> first leaf's order
    autos: list[dict[int, int]] = []

    def search(cells: list[list[int]], prefix: list[int]) -> None:
        t = next((i for i, c in enumerate(cells) if len(c) > 1 and incident[c[0]]), None)
        if t is None:
            order = [v for cell in cells for v in cell]
            pos = {v: i for i, v in enumerate(order)}
            enc = tuple(sorted(tuple(sorted(pos[v] for v in e)) for e in h.edges))
            first = leaves.setdefault(enc, order)
            if first is not order:
                autos.append({v: u for v, u in zip(order, first) if v != u})
            return
        explored: list[int] = []
        for v in cells[t]:
            if explored and _in_explored_orbit(v, explored, autos, prefix):
                continue
            explored.append(v)
            child = cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1:]
            search(_refine(child, incident), prefix + [v])

    search(_refine([list(range(n))], incident), [])
    return repr((n, min(leaves))).encode()


def _in_explored_orbit(v: int, explored: list[int], autos: list[dict[int, int]],
                       prefix: list[int]) -> bool:
    """Is ``v`` in the orbit of an ``explored`` vertex under the group that
    the automorphisms fixing every vertex of ``prefix`` generate?"""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for g in autos:
        if any(p in g for p in prefix):
            continue
        for a, b in g.items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    root = find(v)
    return any(find(x) == root for x in explored)


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
    processes (default: one per CPU) but never more than there are CPUs or
    units, merging every partial accumulator into the top's.  With one job
    the exhaustive walks are not split.  Returns the campaign and the
    merged accumulator."""
    factory, args = spec
    camp = factory(*args)
    cpus = os.cpu_count() or 1
    jobs = cpus if jobs is None else min(jobs, cpus)
    acc, units = camp.run_top(None if jobs <= 1 else _SPLIT_DEPTH)
    jobs = min(jobs, len(units))
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

    ``max_shadow`` is the largest shadow size of a path-free instance seen
    (-1 before the first, so an empty partial never wins a merge); on a
    3-uniform walk it is three times the largest edge count.  ``best``
    holds every edge-index stack at that maximum, in no particular order;
    the report picks its witnesses from them and may classify them, so no
    tie is canonicalized while the running maximum can still rise.
    """

    __slots__ = ("visited", "free", "max_shadow", "best", "violations")

    def __init__(self):
        self.visited = 0
        self.free = 0
        self.max_shadow = -1
        self.best: list[tuple] = []
        self.violations: list[dict] = []

    def merge(self, other: "_BoundAcc"):
        self.visited += other.visited
        self.free += other.free
        if other.max_shadow > self.max_shadow:
            self.max_shadow = other.max_shadow
            self.best = other.best
        elif other.max_shadow == self.max_shadow:
            self.best.extend(other.best)
        self.violations.extend(other.violations)


class _BoundCampaign:
    """Max e(H) / e(∂H) over hypergraphs with no Berge path of length k.

    Both are read off the shadow size.  A 3-uniform walk bounds the edge
    count, and every edge of a linear 3-uniform instance adds three shadow
    pairs (``unit`` = 3); a mixed walk bounds the shadow size (``unit`` =
    1).  So lhs * value > rhs iff the shadow size exceeds ``max_ok`` =
    floor(unit * rhs / lhs), and a violation's value is the shadow size //
    ``unit``.
    """

    def __init__(self, n: int, k: int, uniformity: str, bound_lhs: int,
                 bound_rhs: int):
        self.k = k
        self.unit = 3 if uniformity == "3" else 1
        self.max_ok = bound_rhs * self.unit // bound_lhs
        self.bound = str(Fraction(bound_rhs, bound_lhs))
        self.walk = _Walk(n, uniformity)

    def path_hits(self, cands: int) -> int:
        """The walk's prune test: the candidates of the mask ``cands`` whose
        edge gives the current instance a Berge path of length k.  Such a
        path has k edges and k + 1 vertices, k - 1 of them in two of its
        edges, so none is found below k - 1 edges, on n <= k vertices, or
        with too few vertices in one edge or in two once the edge is in."""
        w = self.walk
        k, n = self.k, w.n
        if len(w.stack) + 1 < k or n <= k:
            return 0
        vmask = w.vmask
        touched, inner = w.degs[-1]   # in one edge, in two
        hits = 0
        while cands:
            low = cands & -cands
            cands ^= low
            j = low.bit_length() - 1
            c = vmask[j]
            if ((touched | c).bit_count() > k
                    and (inner | c & touched).bit_count() >= k - 1
                    and _creates_path(w, j, k)):
                hits |= low
        return hits

    def step(self, acc: _BoundAcc, j: int, sh: int) -> int:
        """Visit the path-free instance edge j just extended, whose parent's
        shadow has ``sh`` edges."""
        sh += self.walk.shcount[j]
        self.visit_free(acc, sh)
        return sh

    def visit_free(self, acc: _BoundAcc, sh: int):
        """Record a path-free instance whose shadow has ``sh`` edges."""
        acc.free += 1
        if sh > acc.max_shadow:
            acc.max_shadow = sh
            acc.best = [tuple(self.walk.stack)]
        elif sh == acc.max_shadow:
            acc.best.append(tuple(self.walk.stack))
        if sh > self.max_ok:
            acc.violations.append({
                "kind": "bound-exceeded",
                "value": sh // self.unit,
                "bound": self.bound,
                "instance": self.walk.payload(),
            })

    # -- drivers --
    def run_prefix(self, unit: tuple) -> _BoundAcc:
        """Walk the subtree strictly below a unit's prefix, with the
        candidates already found dead above it (worker side)."""
        prefix, dead = unit
        w = self.walk
        sh = w.replay(prefix, lambda j, sh: sh + w.shcount[j], 0)
        acc = _BoundAcc()
        w.descend(acc, self.step, w.live(), sh, None, None, self.path_hits, dead)
        return acc

    def run_top(self, depth_cap: int | None) -> tuple[_BoundAcc, list]:
        """Walk depth <= depth_cap, collecting free depth-cap prefixes."""
        w = self.walk
        w.reset()
        acc = _BoundAcc()
        units: list[tuple] = []
        acc.visited += 1
        self.visit_free(acc, 0)   # the edgeless hypergraph
        w.descend(acc, self.step, w.live(), 0, depth_cap, units, self.path_hits)
        return acc, units


def _make_bound_campaign(n, k, uniformity, _metric, lhs, rhs, _collect_classes, _limit):
    """perfbench/tracing.py builds bound campaigns under this name, passing
    a metric, a class flag and a witness limit that only reports use."""
    return _BoundCampaign(n, k, uniformity, lhs, rhs)


def _verify_bound(campaign: str, n: int, k: int, uniformity: str, lhs: int, rhs: int,
                  jobs: int | None, collect_classes: bool = False,
                  family=None) -> VerificationReport:
    """Run one bound campaign and report it, with the least WITNESS_LIMIT
    ties as witnesses; ``family(n)`` is compared with the ties' classes."""
    _check_cap(n, uniformity)
    spec = (_BoundCampaign, (n, k, uniformity, lhs, rhs))
    camp, acc = _run_campaign(spec, jobs)
    witnesses = sorted(acc.best)[:WITNESS_LIMIT]

    def instance_of(stack: tuple) -> LinearHypergraph:
        return LinearHypergraph(n=n, edges=tuple(camp.walk.cands[j] for j in stack))

    report = VerificationReport(
        params={"campaign": campaign, "n": n, "k": k, "uniformity": uniformity,
                "mode": "exhaustive"},
        instances_checked=acc.visited,
        bp_free_count=acc.free,
        max_hyperedges=acc.max_shadow // 3 if uniformity == "3" else None,
        max_shadow_edges=acc.max_shadow,
        bound_value=camp.bound,
        extremal_witnesses=[format_hg(instance_of(s)) for s in witnesses],
        violations=sorted(acc.violations, key=lambda v: v["instance"]),
    )
    if collect_classes:
        classes = {canonical_form(instance_of(s)) for s in acc.best}
        report.extremal_class_count = len(classes)
        if family is not None:
            report.extremal_matches_family = classes == {canonical_form(family(n))}
    return report


def verify_theorem_uniform(n: int, k: int, jobs: int | None = None) -> VerificationReport:
    """Max hyperedge count of 3-uniform linear hypergraphs on n vertices
    with no Berge path of length k, checked against 6*e(H) <= (k-1)*n."""
    if k < 4:
        raise ValueError(f"this bound needs k >= 4, got {k}")
    return _verify_bound("theorem-uniform", n, k, "3", 6, (k - 1) * n, jobs)


def verify_theorem_shadow(n: int, k: int, jobs: int | None = None) -> VerificationReport:
    """Max shadow size of {2,3}-uniform linear hypergraphs on n vertices
    with no Berge path of length k, checked against 2*e(∂H) <= (k-1)*n."""
    if k < 4:
        raise ValueError(f"this bound needs k >= 4, got {k}")
    return _verify_bound("theorem-shadow", n, k, "23", 2, (k - 1) * n, jobs)


def verify_remark(n: int, k: int, jobs: int | None = None) -> VerificationReport:
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
    return _verify_bound("remark", n, k, "23", lhs, rhs, jobs,
                         collect_classes=True, family=family)


# ---------------------------------------------------------------------------
# structural-law campaign (peripheral sets around longest Berge cycles)
# ---------------------------------------------------------------------------

class _ClaimsAcc:
    __slots__ = ("visited", "hist", "vertices", "triples", "pairs", "violations")

    def __init__(self, n: int):
        self.visited = 0
        self.hist = [0] * (n + 1)   # by cycle length
        self.vertices = 0
        self.triples = 0
        self.pairs = 0
        self.violations: list[dict] = []

    def merge(self, other: "_ClaimsAcc"):
        self.visited += other.visited
        for i, c in enumerate(other.hist):
            self.hist[i] += c
        self.vertices += other.vertices
        self.triples += other.triples
        self.pairs += other.pairs
        self.violations.extend(other.violations)

    def record(self, kind: str, us, cycle, condition: str, instance: str, **where):
        """Record one violation around the cycle with vertex sequence
        ``cycle`` of the instance with .hg text ``instance``; ``where``
        names a random sample (``sample_index``)."""
        self.violations.append({"kind": kind, "vertices": list(us), "cycle": list(cycle),
                                "condition": condition, **where, "instance": instance})

    def object_laws(self, h: LinearHypergraph, cycle: BergeCycle, **where):
        """Check the object-level laws around one oriented cycle, counting
        the checks and recording each violation around that cycle."""
        found, vertices, triples, pairs = check_laws(h, CycleContext.from_cycle(h, cycle))
        self.vertices += vertices
        self.triples += triples
        self.pairs += pairs
        for v in found:
            self.record(v.kind, v.us, cycle.vertices, v.condition, format_hg(h), **where)


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

    # ctx: (ell, cyc, lmask, pos, cmask); lmask[u] is L(u), the cycle
    # positions i whose defining edge is {cyc[i], cyc[i+1], u}
    def make_ctx(self, cyc, covs):
        w = self.walk
        ell = len(cyc)
        if ell == self.n:   # no vertex is off the cycle, so nothing reads L(u)
            return (ell, cyc, None, None, (1 << ell) - 1)
        pos = [-1] * self.n
        lmask = [0] * self.n
        cmask = 0
        for i, (v, ci) in enumerate(zip(cyc, covs)):
            pos[v] = i
            cmask |= 1 << v
            ev = w.cands[ci]
            if len(ev) == 3:
                lmask[ev[0] + ev[1] + ev[2] - v - cyc[(i + 1) % ell]] |= 1 << i
        return (ell, cyc, lmask, pos, cmask)

    def _s_l(self, ctx, u: int) -> tuple[int, int]:
        """S(u), L(u) as position masks: S(u) is u's cycle neighbours less
        L(u) and L(u) + 1, as u meets v_i, v_{i+1} in h_i iff i is in L(u)."""
        ell, _cyc, lmask, pos, cmask = ctx
        l_mask = lmask[u]
        s_mask = 0
        x = self.walk.adj[u] & cmask
        while x:
            low = x & -x
            s_mask |= 1 << pos[low.bit_length() - 1]
            x ^= low
        return s_mask & ~(l_mask | l_mask << 1 | l_mask >> (ell - 1)), l_mask

    def _check_triple(self, acc: _ClaimsAcc, ctx, ei: int):
        """The pair laws at the off-cycle triple ei.  Claim-plus is not
        re-checked at its vertices: on a longest cycle it cannot fire (a hit
        at p puts p and p + 1 in S, so u splices in between them)."""
        w = self.walk
        cmask = ctx[4]
        ell = ctx[0]
        ev = w.cands[ei]
        sl = [self._s_l(ctx, u) for u in ev]
        # the triple's vertices are counted again after _check_mask counted
        # them; checked_vertices keeps that count until a schema_version bump
        acc.vertices += 3
        acc.triples += 1
        for i in range(3):
            si, li = sl[i]
            for j in range(3):
                if i != j and (hit := claim_pair_hit(si, li, *sl[j], ell, 2)):
                    acc.record("claim-plus-plus", (ev[i], ev[j]), ctx[1], hit[0],
                               w.payload())
        for u in ev:
            # by linearity an off-cycle triple fj through u meets ev in u alone
            left = [(v, s) for v, s in zip(ev, sl) if v != u]
            for fj in w.stack:
                fm = w.vmask[fj]
                if fj == ei or not (fm >> u) & 1 or w.shcount[fj] != 3 or fm & cmask:
                    continue
                right = [(v, self._s_l(ctx, v)) for v in w.cands[fj] if v != u]
                for xs, ys in ((left, right), (right, left)):
                    for x, (sx, lx) in xs:
                        for y, (sy, ly) in ys:
                            acc.pairs += 1
                            if hit := claim_pair_hit(sx, lx, sy, ly, ell, 3):
                                acc.record("claim-triple", (x, y), ctx[1], hit[0],
                                           w.payload())

    def _check_mask(self, acc: _ClaimsAcc, ctx, rest: int):
        """Check claim-plus at each off-cycle vertex of the vertex mask
        ``rest`` and, once each, the off-cycle triples at them."""
        w = self.walk
        cmask = ctx[4]
        rest &= ~cmask
        done = 0
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            acc.vertices += 1
            s_mask, l_mask = self._s_l(ctx, u)
            hit = claim_plus_hit(s_mask, l_mask, ctx[0])
            if hit is not None:
                acc.record("claim-plus", (u,), ctx[1], hit[0], w.payload())
            for ei in w.stack:
                em = w.vmask[ei]
                if em & low and w.shcount[ei] == 3 and not em & cmask and not (done >> ei) & 1:
                    done |= 1 << ei
                    self._check_triple(acc, ctx, ei)

    def _full_check(self, acc: _ClaimsAcc, ctx):
        self._check_mask(acc, ctx, (1 << self.n) - 1)

    def _delta_check(self, acc: _ClaimsAcc, ctx, j: int):
        self._check_mask(acc, ctx, self.walk.vmask[j])

    def _tiny_all_cycles(self, acc: _ClaimsAcc, ctx):
        """Object-level re-check on every longest cycle, both orientations."""
        h = self.walk.snapshot()
        cycles = all_longest_berge_cycles(h)
        if ctx is None:
            if cycles:
                acc.record("solver-mismatch", (), (),
                           "incremental context missing but a cycle exists", format_hg(h))
            return
        if not cycles or cycles[0].length != ctx[0]:
            acc.record("solver-mismatch", (), ctx[1],
                       "incremental cycle length disagrees with solver", format_hg(h))
            return
        for cyc in cycles:
            for oriented in (cyc, _reverse_cycle(cyc)):
                acc.object_laws(h, oriented)

    def advance(self, j: int, ctx):
        """The cycle context once edge j is added: a new one when j closes a
        longer cycle than ``ctx``'s, else ``ctx`` itself."""
        found = _cycle_through(self.walk, j, ctx[0] if ctx else 2)
        return ctx if found is None else self.make_ctx(found[0], found[1])

    def step(self, acc: _ClaimsAcc, j: int, ctx):
        """Visit the instance edge j just extended: a new context is checked
        in full, an inherited one at j's vertices only."""
        child = self.advance(j, ctx)
        if child is not ctx:
            self._full_check(acc, child)
        elif ctx is not None:
            self._delta_check(acc, ctx, j)
        if child is not None:
            acc.hist[child[0]] += 1
        if self.tiny:
            self._tiny_all_cycles(acc, child)
        return child

    def run_prefix(self, unit: tuple) -> _ClaimsAcc:
        prefix, _dead = unit   # no prune test, so nothing is dead
        ctx = self.walk.replay(prefix, self.advance, None)
        acc = _ClaimsAcc(self.n)
        self.walk.descend(acc, self.step, self.walk.live(), ctx, None, None)
        return acc

    def run_top(self, depth_cap: int | None) -> tuple[_ClaimsAcc, list]:
        self.walk.reset()
        acc = _ClaimsAcc(self.n)
        units: list[tuple] = []
        acc.visited += 1   # the edgeless hypergraph
        if self.tiny:
            self._tiny_all_cycles(acc, None)
        self.walk.descend(acc, self.step, self.walk.live(), None, depth_cap, units)
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
        acc.hist[cyc.length] += 1
        acc.object_laws(h, cyc, sample_index=i)
        return acc


def verify_claims(n: int, samples: int | None = None, seed: int | None = None,
                  jobs: int | None = None) -> VerificationReport:
    """Structural-law campaign: exhaustive when ``samples`` is None,
    otherwise over seeded random instances (capped at n <= 12; the seed
    defaults to DEFAULT_SEED).  A seed without samples is a ValueError."""
    if samples is None:
        if seed is not None:
            raise ValueError("--seed needs --samples: the exhaustive walk takes no seed")
        _check_cap(n, "23")
        params = {"campaign": "claims", "n": n, "mode": "exhaustive"}
        spec = (_ClaimsCampaign, (n,))
    else:
        _check_cap(n, "random")
        seed = DEFAULT_SEED if seed is None else seed
        params = {"campaign": "claims", "n": n, "mode": "random",
                  "samples": samples, "seed": seed}
        spec = (_RandomClaimsCampaign, (n, samples, seed))
    _camp, acc = _run_campaign(spec, jobs)
    cyclic = sum(acc.hist)
    violations = sorted(
        acc.violations,
        key=lambda v: (v.get("sample_index", -1), v["instance"], v["kind"]),
    )
    return VerificationReport(
        params=params,
        instances_checked=acc.visited,
        cyclic_instances=cyclic,
        acyclic_instances=acc.visited - cyclic,
        cycle_length_histogram={str(ell): c for ell, c in enumerate(acc.hist) if c},
        checked_vertices=acc.vertices,
        checked_triples=acc.triples,
        checked_pairs=acc.pairs,
        violations=violations,
    )
