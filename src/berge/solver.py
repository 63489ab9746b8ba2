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

Hence the DFS only keeps each step off the other vertices of the edge just
used, and a cycle's closing edge off its first and last edges, instead of
carrying a used-edge set.  Witnesses are independently re-checked by the
validity predicates, which implement the definition verbatim.

One cycle kernel (``_cycle_kernel``) serves ``longest_berge_cycle``,
``all_longest_berge_cycles`` and the enumeration's anchored search.  It
grows each *seed*, a path a→b over one edge with some vertices blocked,
and closes it back at a from a *closing vertex*: a neighbour of a outside
the seed edge, since a cycle cannot close through the edge it opened
with.  A branch is cut, before any search of its reach, once every
closing vertex is blocked or on the path, because no later tip can close.
Otherwise a branch at tip w is cut unless the reach R of w's free
neighbours (never entering a blocked or visited vertex) holds a closing
vertex and is large enough that path + R beats the best cycle.

The unanchored seeds run on the *cycle core*: repeatedly peel every vertex
that lies in at most one hyperedge (a 3-edge losing a vertex becomes a
2-edge; a 2-edge losing one disappears and costs its other vertex a
degree).  Every cycle vertex lies in two cycle edges, each of which keeps
its two cycle vertices, so no cycle uses a peeled vertex.  Each cycle is
found from its minimum core vertex s to a larger neighbour, with s and
every vertex below it blocked, and min(core vertices, core edges) bounds
the cycle length, so the search stops at the first cycle of that length;
the seeds are made, in that order, only as the kernel reaches them, so a
search that stops early never builds the rest.  The anchored seeds are
the vertex pairs of one edge, for cycles through it.  The cuts remove
only branches that cannot close or cannot beat the current best, so the
witness and the set of longest cycles are those of the unpruned search.

Unless every longest cycle is wanted, the kernel also keeps, per seed, the
*states* (visited set, tip, last edge) it has expanded, and a tip whose
state is among them is not expanded again.  A state fixes every
completion, and its first expansion tried them all while the best cycle
was no longer than it is now, so none of them beats the best: only
non-improving branches go, and the witness stays the same.  A state is
stored when it is expanded, since the visited set only grows below it,
and only from five path vertices on, where the seed first makes its set:
the same vertices in another order need two interior vertices between
the seed's second vertex and the tip.  This is the Held–Karp idea, and it
pays on long searches, where a partial cycle recurs in another vertex
order.  The claims walk's anchored searches are short: they meet none at
n <= 6, and at n = 7 the set skips 119,680 states over 31,590,702
instances.  ``all_longest_berge_cycles`` must see the ties, which a state
met again may still close, so it keeps no states.  A seed's set holds at
most ``_STATE_CAP`` states, so its memory is bounded on large instances;
past the cap a new state is expanded but not stored, which is always
sound, since a state that is not stored is only expanded again.  The
largest set met on the benchmark's workloads holds 3,067 states, far
below the cap.

``longest_berge_path`` and ``has_berge_path`` share one path search.  At a
tip w it takes the reach R of w's free neighbours and the *live* edges:
those with at least two vertices in {w} ∪ R, minus the last edge used.
Every later step uses a distinct live edge (by linearity an earlier edge
has at most one vertex in {w} ∪ R), and every later vertex but the last
lies in two of them.  So the branch is cut when the path length plus the
number of live edges, or plus the number of R-vertices in two live edges
(one more if some R-vertex is in fewer), cannot beat the best length so
far.  This bound is never looser than |R|.

Both searches keep their DFS on an explicit stack of untried-neighbour
masks, one per path vertex, so their depth is bounded by memory and not
by the interpreter's recursion limit.  They run on the vertices that some
edge touches, relabeled in ascending order, and read one *view* of them
(``_view``), whose tables all come from one pass over the edges; the
relabeling is skipped when it is the identity, that is when no vertex
below the largest touched one is untouched.  So a huge vertex count
costs nothing by itself and the witnesses are those on ``h``.
A search reads the pair -> edge table only at pairs that the adjacency
shows as covered, so the view holds those alone, in O(t + m) space.

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
_STATE_CAP = 1 << 16  # the most states a seed's set holds (see the module docstring)


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
    return _is_valid(h, path.vertices, path.hyperedges, closed=False)


def is_valid_berge_cycle(h: LinearHypergraph, cycle: BergeCycle) -> bool:
    """Definition check for cycles; length >= 3 (forced anyway for linear h)."""
    return _is_valid(h, cycle.vertices, cycle.hyperedges, closed=True)


def _is_valid(h: LinearHypergraph, vs, es, closed: bool) -> bool:
    """The definition check; a cycle's last edge holds v_l and v_1."""
    ell = len(vs)
    if ell != len(es) + (not closed) or ell < (3 if closed else 1):
        return False
    if len(set(vs)) != ell or len(set(es)) != len(es):
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
    """(verts, adj, cover, emask, inc) of ``h`` on its touched vertices,
    relabeled in ascending order, from one pass over the edges: the
    new-to-old vertex list, shadow adjacency masks, the covered pairs'
    edge indices (keyed u * t + v), each edge's vertex mask and each
    vertex's edge-index mask.  Order is preserved, so a search tries
    vertices in the same order as on ``h``.  When the touched vertices
    are 0..t-1 already, the relabeling is the identity and is skipped."""
    verts = sorted(set().union(*h.edges))
    t = len(verts)
    edges = h.edges
    if t and verts[-1] >= t:  # an untouched vertex lies below a touched one
        new = {v: i for i, v in enumerate(verts)}
        edges = [[new[v] for v in e] for e in edges]
    adj = [0] * t
    cover = {}
    emask = []
    inc = [0] * t
    for idx, e in enumerate(edges):  # unrolled by edge size: about 30% cheaper
        bit = 1 << idx
        u, v = e[0], e[1]
        mu, mv = 1 << u, 1 << v
        msk = mu | mv
        cover[u * t + v] = cover[v * t + u] = idx
        if len(e) == 3:
            x = e[2]
            mx = 1 << x
            msk |= mx
            adj[x] |= msk ^ mx
            inc[x] |= bit
            cover[u * t + x] = cover[x * t + u] = idx
            cover[v * t + x] = cover[x * t + v] = idx
        adj[u] |= msk ^ mu
        adj[v] |= msk ^ mv
        inc[u] |= bit
        inc[v] |= bit
        emask.append(msk)
    return verts, adj, cover, emask, inc


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
    verts, adj, cover, emask, inc = _view(h)
    n = len(verts)
    best_len = floor
    best = None
    for s in range(n):
        if best_len >= ub:
            break
        path, covs = [s], [-1]  # covs[0]: no edge leads into the start
        frames: list[int] = []  # untried neighbours of each path vertex
        vis = 1 << s
        while True:
            w, cprev = path[-1], covs[-1]
            lp = len(path) - 1  # current length
            if lp > best_len:
                best_len = lp
                best = (tuple(path), tuple(covs[1:]))
                if best_len >= ub:
                    break
            free = adj[w] & ~vis
            if cprev >= 0:
                free &= ~emask[cprev]
            if free and lp < best_len:
                # BFS over the reach of w's free neighbours; `two` collects
                # the edges with at least two vertices in {w} | reach.  At a
                # record-length tip nothing is cut: the edge to any free
                # neighbour is live, so there is one more than need = 0
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
                    free = 0
                else:
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
                        free = 0
            frames.append(free)
            while frames and not frames[-1]:  # backtrack
                frames.pop()
                vis ^= 1 << path.pop()
                covs.pop()
            if not frames:
                break
            untried = frames[-1]  # step to the least untried neighbour
            low = untried & -untried
            frames[-1] = untried ^ low
            x = low.bit_length() - 1
            covs.append(cover[path[-1] * n + x])
            path.append(x)
            vis |= low
    if best is None:
        return None
    vs, cs = best
    return BergePath(vertices=tuple(verts[v] for v in vs),
                     hyperedges=tuple(h.edges[c] for c in cs))


# ---------------------------------------------------------------------------
# longest Berge cycle
# ---------------------------------------------------------------------------

def longest_berge_cycle(h: LinearHypergraph) -> BergeCycle | None:
    """Exact longest Berge cycle, or None for Berge-acyclic input.

    Enumerates cycles with their minimum vertex first (ascending), records
    strict improvements only, so the witness is deterministic.
    """
    found = _cycle_search(h, collect_all=False)
    return found[0] if found else None


def all_longest_berge_cycles(h: LinearHypergraph) -> list[BergeCycle]:
    """Every maximum-length Berge cycle, one orientation per vertex set order.

    Each undirected cycle is reported once: minimum vertex first, and the
    successor of the minimum smaller than its predecessor.  Intended for
    small instances (exhaustive structural checking); cost grows with the
    number of maximum cycles.
    """
    return _cycle_search(h, collect_all=True)


def _cycle_core(inc: list[int], emask: list[int]) -> tuple[int, int]:
    """(vertex mask, edge count) of the cycle core (see the module
    docstring), peeled on a view's masks: an edge dies when one of its
    vertices is left, and a vertex is queued, once, when at most one live
    edge holds it, so a few mask operations peel it."""
    alive = (1 << len(inc)) - 1
    live = (1 << len(emask)) - 1
    todo = [v for v, d in enumerate(inc) if not d & (d - 1)]
    while todo:
        v = todo.pop()
        alive ^= 1 << v
        e = inc[v] & live
        rest = emask[e.bit_length() - 1] & alive if e else 0
        if rest and not rest & (rest - 1):
            live ^= e
            u = rest.bit_length() - 1
            d = inc[u] & live
            if d and not d & (d - 1):
                todo.append(u)
    return alive, live.bit_count()


def _cycle_search(h: LinearHypergraph, collect_all: bool) -> list[BergeCycle]:
    """The unanchored seeds, on the cycle core: each cycle is found from
    its minimum vertex s to a larger neighbour b, with every vertex below s
    blocked."""
    verts, adj, cover, emask, inc = _view(h)
    n = len(verts)
    core, core_m = _cycle_core(inc, emask)
    if core_m < 3:
        return []
    adj = [a & core if (core >> v) & 1 else 0 for v, a in enumerate(adj)]

    def seeds():  # made as the kernel reaches them: it often stops early
        rest = core
        while rest:
            s = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            blocked = (2 << s) - 1  # s and every vertex below it
            nbrs = adj[s] & ~blocked
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                b = low.bit_length() - 1
                yield s, b, cover[s * n + b], blocked | low

    hits = _cycle_kernel(adj, cover, emask, seeds(), 2,
                         min(core.bit_count(), core_m), collect_all)
    return [BergeCycle(vertices=tuple(verts[v] for v in vs),
                       hyperedges=tuple(h.edges[c] for c in cs)) for vs, cs in hits]


def _cycle_kernel(adj: list[int], cover, emask: list[int], seeds,
                  best_len: int, ub: int, collect_all: bool = False):
    """Longest Berge cycles closing one of ``seeds``, as sorted
    (vertex tuple, cover-index tuple) pairs; ``emask`` maps a cover index
    to its edge's vertex mask.  ``cover[u * n + v]``, with n = len(adj), is
    read only where ``adj`` shows the pair covered.

    A seed (a, b, c0, vis) is the path a→b over cover index c0; it closes
    back at a through an edge other than c0 and the last edge used, and
    never enters a vertex of ``vis``.  So the closing vertices are a's
    neighbours off edge c0, and a branch is cut, before its reach search,
    once all of them are visited.  ``seeds`` may be a generator: the
    kernel draws the next seed only when the previous one is done, and
    stops drawing at a cycle of length ``ub``.  Only cycles longer than
    ``best_len`` are found: by default the first-found one of the greatest
    length (the search stops at length ``ub``); with ``collect_all`` every
    cycle of the greatest length, once per orientation pair (second vertex
    below the last).  By default a state (vis, tip, last edge) met again
    is not expanded again (see the module docstring).
    """
    n = len(adj)
    hits: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    # with collect_all, ties are not cut, so a cycle first found in its
    # unrecorded orientation is found again in the recorded one
    slack = 1 if collect_all else 0
    for a, b, c0, vis in seeds:
        # the closing vertices: a's neighbours off the seed edge
        adj_a = adj[a] & ~emask[c0]
        path, covs = [a, b], [c0]
        frames: list[int] = []  # untried neighbours of path[1:]
        seen = None  # the states (vis, w, cprev) expanded from this seed
        while True:
            w, cprev = path[-1], covs[-1]
            lp = len(path)
            if adj_a >> w & 1:
                cc = cover[w * n + a]
                if cc != cprev:
                    if lp > best_len:
                        best_len = lp
                        hits = []
                        if not collect_all:
                            hits.append((tuple(path), tuple(covs) + (cc,)))
                            if lp >= ub:
                                return hits
                    if collect_all and lp == best_len and path[1] < w:
                        hits.append((tuple(path), tuple(covs) + (cc,)))
            # once every closing vertex is visited, no later tip can close
            free = adj[w] & ~vis & ~emask[cprev] if adj_a & ~vis else 0
            if free and lp >= 5 and not collect_all:
                # a state met again in another vertex order has no completion
                # that beats the best: its first expansion tried them all
                state = (vis, w, cprev)
                if seen is None:
                    seen = {state}
                elif state in seen:
                    free = 0
                elif len(seen) < _STATE_CAP:
                    seen.add(state)
            if free:
                # grow the reach of the free neighbours until it can close
                # at a and is large enough to beat the best
                need = best_len - slack - lp
                reach = 0
                frontier = free
                while frontier:
                    reach |= frontier
                    if reach & adj_a and reach.bit_count() > need:
                        break
                    nxt = 0
                    while frontier:
                        low = frontier & -frontier
                        nxt |= adj[low.bit_length() - 1]
                        frontier ^= low
                    frontier = nxt & ~vis & ~reach
                else:
                    free = 0
            frames.append(free)
            while frames and not frames[-1]:  # backtrack
                frames.pop()
                vis ^= 1 << path.pop()
                covs.pop()
            if not frames:
                break
            untried = frames[-1]  # step to the least untried neighbour
            low = untried & -untried
            frames[-1] = untried ^ low
            x = low.bit_length() - 1
            covs.append(cover[path[-1] * n + x])
            path.append(x)
            vis |= low
    hits.sort()
    return hits


# ---------------------------------------------------------------------------
# oracles: injective sequences + system-of-distinct-representatives matching
# ---------------------------------------------------------------------------

def oracle_longest_path(h: LinearHypergraph, cap: int = ORACLE_CAP_N) -> int | None:
    """Longest Berge path length by brute force; None only when n == 0."""
    return _oracle(h, cap, closed=False)


def oracle_longest_cycle(h: LinearHypergraph, cap: int = ORACLE_CAP_N) -> int | None:
    """Longest Berge cycle length by brute force; None when Berge-acyclic."""
    return _oracle(h, cap, closed=True)


def _oracle(h: LinearHypergraph, cap: int, closed: bool) -> int | None:
    """Longest Berge path (``closed`` false) or cycle length by brute force.

    Enumerates injective vertex sequences along the shadow and checks, via
    bipartite matching, that the consecutive pairs admit distinct covering
    hyperedges.  Correct for non-linear inputs too.  A failed matching
    prunes all extensions, which is sound because a matching for a longer
    sequence restricts to one for every prefix.  A cycle's sequence starts
    at its least vertex and is closed by the pair of its ends.
    """
    if h.n > cap:
        raise InstanceTooLargeError(f"oracle capped at n <= {cap}, got n = {h.n}")
    pair_edges: dict[tuple[int, int], list[int]] = {}
    for idx, e in enumerate(h.edges):
        for p in itertools.combinations(e, 2):
            pair_edges.setdefault(p, []).append(idx)
    best = -1

    def grow(seq: list[int], pairs: list[tuple[int, int]]) -> None:
        nonlocal best
        s, last = seq[0], seq[-1]
        if not closed:
            best = max(best, len(seq) - 1)
        elif len(seq) >= 3 and len(seq) > best:
            p = (s, last)
            if p in pair_edges and _sdr(pair_edges, pairs + [p]):
                best = len(seq)
        for w in range(s + 1 if closed else 0, h.n):
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
    return best if best >= (3 if closed else 0) else None


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

