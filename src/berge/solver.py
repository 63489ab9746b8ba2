"""Exact Berge path and Berge cycle search on linear {2,3}-uniform hypergraphs.

A Berge path of length k is an alternating sequence v_1,h_1,...,h_k,v_{k+1}
of distinct vertices and distinct hyperedges with {v_i,v_{i+1}} contained in
h_i; a Berge cycle of length l closes the sequence cyclically.  Length
counts hyperedges, so a single vertex is a path of length 0.

The fast search relies on two facts that hold in *linear* hypergraphs:

* each consecutive vertex pair determines its covering hyperedge uniquely,
  so walking the two-shadow fixes the hyperedge sequence; and
* two steps of a path/cycle can only fight over the same hyperedge when
  they are consecutive: non-consecutive steps cover disjoint pairs, and no
  2- or 3-vertex edge contains two disjoint pairs.

Hence the DFS only compares each step's cover against its neighbors instead
of carrying a used-edge set.  Witnesses are independently re-checked by the
validity predicates, which implement the definition verbatim.

The cycle search runs on the *cycle core*: repeatedly peel every vertex
that lies in at most one hyperedge (a 3-edge losing a vertex becomes a
2-edge; a 2-edge losing one disappears and costs its other vertex a
degree).  Every cycle vertex lies in two cycle edges, each of which keeps
its two cycle vertices, so no cycle uses a peeled vertex.  The DFS never
enters a peeled vertex, and min(core vertices, core edges) bounds the
cycle length, so the search stops at the first cycle of that length.  Both
cuts remove only branches that cannot beat the current best, so the
witness and the set of longest cycles are those of the unpruned search.

``longest_berge_path`` and ``has_berge_path`` share one path search.  At a
tip w it takes the reach R of w's free neighbours and the *live* edges:
those with at least two vertices in {w} ∪ R, minus the last edge used.
Every later step uses a distinct live edge (by linearity an earlier edge
has at most one vertex in {w} ∪ R), and every later vertex but the last
lies in two of them.  So the branch is cut when the path length plus the
number of live edges, or plus the number of R-vertices in two live edges
(one more if some R-vertex is in fewer), cannot beat the best length so
far.  This bound is never looser than |R|.

``oracle_longest_path`` / ``oracle_longest_cycle`` are deliberately slow,
structurally different cross-checks: they enumerate injective vertex
sequences and decide hyperedge assignment by bipartite matching, which also
works for non-linear inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InstanceTooLargeError
from .hypergraph import Edge, LinearHypergraph

ORACLE_CAP_N = 7


@dataclass(frozen=True)
class BergePath:
    vertices: tuple[int, ...]
    hyperedges: tuple[Edge, ...]

    @property
    def length(self) -> int:
        return len(self.hyperedges)


@dataclass(frozen=True)
class BergeCycle:
    vertices: tuple[int, ...]
    hyperedges: tuple[Edge, ...]

    @property
    def length(self) -> int:
        return len(self.hyperedges)


def is_valid_berge_path(h: LinearHypergraph, path: BergePath) -> bool:
    """Definition check: distinct vertices, distinct hyperedges of ``h``,
    and {v_i, v_{i+1}} ⊆ h_i throughout."""
    vs, es = path.vertices, path.hyperedges
    if len(vs) != len(es) + 1 or not vs:
        return False
    if len(set(vs)) != len(vs) or len(set(es)) != len(es):
        return False
    if any(not 0 <= v < h.n for v in vs):
        return False
    edge_set = set(h.edges)
    for i, e in enumerate(es):
        if e not in edge_set or vs[i] not in e or vs[i + 1] not in e:
            return False
    return True


def is_valid_berge_cycle(h: LinearHypergraph, cycle: BergeCycle) -> bool:
    """Definition check for cycles; length >= 3 (forced anyway for linear h)."""
    vs, es = cycle.vertices, cycle.hyperedges
    ell = len(vs)
    if ell != len(es) or ell < 3:
        return False
    if len(set(vs)) != ell or len(set(es)) != ell:
        return False
    if any(not 0 <= v < h.n for v in vs):
        return False
    edge_set = set(h.edges)
    for i, e in enumerate(es):
        if e not in edge_set or vs[i] not in e or vs[(i + 1) % ell] not in e:
            return False
    return True


# ---------------------------------------------------------------------------
# bitmask view
# ---------------------------------------------------------------------------

def _view(h: LinearHypergraph):
    """(adj, cover): shadow adjacency masks and pair -> edge-index table."""
    n = h.n
    adj = [0] * n
    cover = [-1] * (n * n)
    for idx, e in enumerate(h.edges):
        for u, v in itertools.combinations(e, 2):
            cover[u * n + v] = idx
            cover[v * n + u] = idx
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj, cover


def _incidence(h: LinearHypergraph) -> list[int]:
    """Per-vertex bitmask of the indices of the hyperedges containing it."""
    inc = [0] * h.n
    for idx, e in enumerate(h.edges):
        for v in e:
            inc[v] |= 1 << idx
    return inc


def _reach(adj, start_mask: int, blocked: int) -> int:
    """Vertices reachable from ``start_mask`` without entering ``blocked``."""
    reach = 0
    frontier = start_mask & ~blocked
    while frontier:
        reach |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~blocked & ~reach
    return reach


# ---------------------------------------------------------------------------
# longest Berge path
# ---------------------------------------------------------------------------

def longest_berge_path(h: LinearHypergraph) -> BergePath | None:
    """Exact longest Berge path with witness; None only when h has no vertex.

    Deterministic: vertices are tried in ascending order and the first
    witness of the final maximum is returned, which makes it the
    lexicographically smallest maximum-length vertex sequence.
    """
    if h.n == 0:
        return None
    return (_path_search(h, 0, min(h.n - 1, h.m))
            or BergePath(vertices=(0,), hyperedges=()))


def has_berge_path(h: LinearHypergraph, k: int) -> bool:
    """True iff a Berge path of length >= k exists; early exit at depth k."""
    if k < 0:
        raise ValueError(f"path length must be non-negative, got {k}")
    if k == 0:
        return h.n >= 1
    if k > h.n - 1 or k > h.m:
        return False
    return _path_search(h, k - 1, k) is not None


def _path_search(h: LinearHypergraph, floor: int, ub: int) -> BergePath | None:
    """The first-found path of the largest length in (floor, ub], or None.

    Vertices are tried in ascending order and only strict improvements are
    recorded; both cuts (see the module docstring) remove only branches that
    cannot beat the current best, so the witness is that of the unpruned
    search.
    """
    n = h.n
    adj, cover = _view(h)
    inc = _incidence(h)
    best_len = floor
    best = None
    path = [0]
    covs: list[int] = []

    def ext(w: int, cprev: int, vis: int) -> bool:
        nonlocal best_len, best
        lp = len(path) - 1  # current length
        if lp > best_len:
            best_len = lp
            best = (tuple(path), tuple(covs))
            if best_len >= ub:
                return True
        free = adj[w] & ~vis
        if not free:
            return False
        # BFS over the reach of w's free neighbours; `two` collects the
        # edges with at least two vertices in {w} | reach
        reach = 0
        one, two = inc[w], 0
        frontier = free
        while frontier:
            reach |= frontier
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                v = low.bit_length() - 1
                nxt |= adj[v]
                e = inc[v]
                two |= one & e
                one |= e
                f ^= low
            frontier = nxt & ~vis & ~reach
        if cprev >= 0:
            two &= ~(1 << cprev)
        need = best_len - lp  # the rest of the path must exceed this
        if two.bit_count() <= need:
            return False
        inner = end = 0
        f = reach
        while f and inner + end <= need:
            low = f & -f
            d = inc[low.bit_length() - 1] & two
            if d & (d - 1):
                inner += 1
            else:
                end = 1
            f ^= low
        if inner + end <= need:
            return False
        msk = free
        while msk:
            low = msk & -msk
            x = low.bit_length() - 1
            msk ^= low
            c = cover[w * n + x]
            if c == cprev:
                continue
            path.append(x)
            covs.append(c)
            done = ext(x, c, vis | low)
            path.pop()
            covs.pop()
            if done:
                return True
        return False

    for s in range(n):
        if best_len >= ub:
            break
        path[0] = s
        ext(s, -1, 1 << s)
    if best is None:
        return None
    vs, cs = best
    return BergePath(vertices=vs, hyperedges=tuple(h.edges[c] for c in cs))


# ---------------------------------------------------------------------------
# longest Berge cycle
# ---------------------------------------------------------------------------

def longest_berge_cycle(h: LinearHypergraph) -> BergeCycle | None:
    """Exact longest Berge cycle, or None for Berge-acyclic input.

    Enumerates cycles with their minimum vertex first (ascending), records
    strict improvements only, so the witness is deterministic.
    """
    found = _cycle_search(h, collect_all=False)
    if not found:
        return None
    vs, cs = found[0]
    return BergeCycle(vertices=vs, hyperedges=tuple(h.edges[c] for c in cs))


def all_longest_berge_cycles(h: LinearHypergraph) -> list[BergeCycle]:
    """Every maximum-length Berge cycle, one orientation per vertex set order.

    Each undirected cycle is reported once: minimum vertex first, and the
    successor of the minimum smaller than its predecessor.  Intended for
    small instances (exhaustive structural checking); cost grows with the
    number of maximum cycles.
    """
    found = _cycle_search(h, collect_all=True)
    return [
        BergeCycle(vertices=vs, hyperedges=tuple(h.edges[c] for c in cs))
        for vs, cs in found
    ]


def _cycle_core(h: LinearHypergraph) -> tuple[int, int]:
    """(vertex mask, edge count) of the cycle core of ``h`` (see the module
    docstring), peeled in O(n + m) with incidence lists."""
    n = h.n
    incident: list[list[int]] = [[] for _ in range(n)]
    for idx, e in enumerate(h.edges):
        for v in e:
            incident[v].append(idx)
    deg = [len(es) for es in incident]
    size = [len(e) for e in h.edges]
    alive = (1 << n) - 1
    edges_left = h.m
    todo = [v for v in range(n) if deg[v] <= 1]
    while todo:
        v = todo.pop()
        alive ^= 1 << v
        for idx in incident[v]:
            size[idx] -= 1
            if size[idx] != 1:
                continue
            edges_left -= 1
            for u in h.edges[idx]:
                if (alive >> u) & 1 and u != v:
                    deg[u] -= 1
                    if deg[u] == 1:
                        todo.append(u)
    return alive, edges_left


def _cycle_search(h: LinearHypergraph, collect_all: bool):
    n = h.n
    core, core_m = _cycle_core(h)
    if core_m < 3:
        return []
    adj, cover = _view(h)
    adj = [a & core if (core >> v) & 1 else 0 for v, a in enumerate(adj)]
    ub = min(core.bit_count(), core_m)
    best_len = 2
    hits: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    path: list[int] = []
    covs: list[int] = []

    def ext(s: int, w: int, cprev: int, c0: int, vis: int) -> bool:
        nonlocal best_len
        lp = len(path)
        if lp >= 3:
            cc = cover[w * n + s]
            if cc >= 0 and cc != cprev and cc != c0:
                if lp > best_len:
                    best_len = lp
                    hits.clear()
                    if not collect_all:
                        hits.append((tuple(path), tuple(covs) + (cc,)))
                        if best_len >= ub:
                            return True
                    elif path[1] < path[-1]:
                        hits.append((tuple(path), tuple(covs) + (cc,)))
                    # a mirror-oriented first hit is re-found normalized at
                    # the same length, which is never pruned (limit is
                    # best_len - 1 in collect_all mode)
                elif collect_all and lp == best_len and path[1] < path[-1]:
                    hits.append((tuple(path), tuple(covs) + (cc,)))
        free = adj[w] & ~vis
        if not free:
            return False
        limit = best_len if not collect_all else best_len - 1
        r = _reach(adj, free, vis)
        if lp + r.bit_count() <= limit:
            return False
        if not (adj[s] & (r | (1 << w))):
            return False
        msk = free
        while msk:
            low = msk & -msk
            x = low.bit_length() - 1
            msk ^= low
            if x < s:
                continue
            c = cover[w * n + x]
            if c == cprev:
                continue
            path.append(x)
            covs.append(c)
            done = ext(s, x, c, c0, vis | low)
            path.pop()
            covs.pop()
            if done:
                return True
        return False

    for s in range(n):
        if not collect_all and best_len >= ub:
            break
        msk = adj[s]
        while msk:
            low = msk & -msk
            b = low.bit_length() - 1
            msk ^= low
            if b < s:
                continue
            c0 = cover[s * n + b]
            path[:] = [s, b]
            covs[:] = [c0]
            if ext(s, b, c0, c0, (1 << s) | (1 << b)):
                break
    if collect_all and hits:
        # cycles recorded before the final maximum was known may linger only
        # if equal to it; hits was cleared on every strict improvement.
        hits.sort()
    return hits


# ---------------------------------------------------------------------------
# oracles: injective sequences + system-of-distinct-representatives matching
# ---------------------------------------------------------------------------

def oracle_longest_path(h: LinearHypergraph, cap: int = ORACLE_CAP_N) -> int | None:
    """Longest Berge path length by brute force; None only when n == 0.

    Enumerates injective vertex sequences along the shadow and checks, via
    bipartite matching, that the consecutive pairs admit distinct covering
    hyperedges.  Correct for non-linear inputs too.  A failed matching
    prunes all extensions, which is sound because a matching for a longer
    sequence restricts to one for every prefix.
    """
    if h.n > cap:
        raise InstanceTooLargeError(f"oracle capped at n <= {cap}, got n = {h.n}")
    if h.n == 0:
        return None
    pair_edges = _pair_edge_table(h)
    best = 0

    def grow(seq: list[int], pairs: list[tuple[int, int]]) -> None:
        nonlocal best
        if len(seq) - 1 > best:
            best = len(seq) - 1
        last = seq[-1]
        for w in range(h.n):
            if w in seq:
                continue
            p = (last, w) if last < w else (w, last)
            if p not in pair_edges:
                continue
            pairs.append(p)
            if _sdr(pair_edges, pairs):
                seq.append(w)
                grow(seq, pairs)
                seq.pop()
            pairs.pop()

    for s in range(h.n):
        grow([s], [])
    return best


def oracle_longest_cycle(h: LinearHypergraph, cap: int = ORACLE_CAP_N) -> int | None:
    """Longest Berge cycle length by brute force; None when Berge-acyclic."""
    if h.n > cap:
        raise InstanceTooLargeError(f"oracle capped at n <= {cap}, got n = {h.n}")
    pair_edges = _pair_edge_table(h)
    best = 0

    def grow(seq: list[int], pairs: list[tuple[int, int]]) -> None:
        nonlocal best
        s, last = seq[0], seq[-1]
        if len(seq) >= 3 and len(seq) > best:
            p = (last, s) if s > last else (s, last)
            if p in pair_edges and _sdr(pair_edges, pairs + [p]):
                best = len(seq)
        for w in range(s + 1, h.n):
            if w in seq:
                continue
            p = (last, w) if last < w else (w, last)
            if p not in pair_edges:
                continue
            pairs.append(p)
            if _sdr(pair_edges, pairs):
                seq.append(w)
                grow(seq, pairs)
                seq.pop()
            pairs.pop()

    for s in range(h.n):
        grow([s], [])
    return best if best >= 3 else None


def _sdr(pair_edges: dict[tuple[int, int], list[int]],
         pairs: list[tuple[int, int]]) -> bool:
    """Do the vertex pairs have distinct covering hyperedges?  Augmenting-path
    bipartite matching of pairs to the edge indices in ``pair_edges``."""
    matched: dict[int, int] = {}

    def augment(i: int, banned: set[int]) -> bool:
        for eidx in pair_edges.get(pairs[i], ()):
            if eidx in banned:
                continue
            banned.add(eidx)
            if eidx not in matched or augment(matched[eidx], banned):
                matched[eidx] = i
                return True
        return False

    return all(augment(i, set()) for i in range(len(pairs)))


def _pair_edge_table(h: LinearHypergraph) -> dict[tuple[int, int], list[int]]:
    table: dict[tuple[int, int], list[int]] = {}
    for idx, e in enumerate(h.edges):
        for p in itertools.combinations(e, 2):
            table.setdefault(p, []).append(idx)
    return table
