"""Linear {2,3}-uniform hypergraphs: validation, shadow, components, unions.

Vertices are dense 0-based integers.  A hypergraph is *linear* when every
two hyperedges meet in at most one vertex; equivalently, every vertex pair
lies in at most one hyperedge.  All types here are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DuplicateEdgeError,
    EdgeSizeError,
    FormatError,
    LinearityError,
    VertexOutOfRangeError,
)

Edge = tuple[int, ...]  # sorted tuple of 2 or 3 distinct vertex ids


@dataclass(frozen=True)
class LinearHypergraph:
    """A validated linear {2,3}-uniform hypergraph.

    ``edges`` is a lexicographically sorted tuple of sorted vertex tuples.
    Construct through :func:`validate`; building the dataclass directly
    bypasses all invariant checks.
    """

    n: int
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"LinearHypergraph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False)
class ShadowGraph:
    """The two-shadow: all vertex pairs contained in some hyperedge."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.pairs)


def validate(n: int, raw_edges) -> LinearHypergraph:
    """Check sizes, ranges, duplicates and linearity; return the hypergraph.

    ``raw_edges`` is any iterable of vertex collections.  Edges are sorted
    and the edge list is sorted, so equal inputs in any order produce equal
    hypergraphs.  n=0 and edgeless hypergraphs are legal.  A vertex is an
    ``int`` other than a ``bool``.

    Size and range are decided edge by edge in input order, and within an
    edge the first bad vertex in sorted order is named.  Duplicates and
    shared pairs are then found in sorted edge order, a pair u < v keyed by
    the integer u * n + v.
    """
    if n < 0:
        raise VertexOutOfRangeError(f"vertex count must be non-negative, got {n}")
    edges: list[Edge] = []
    for raw in raw_edges:
        vs = tuple(sorted(raw))
        # sorted, so distinct means no two neighbours are equal, and the
        # range is [vs[0], vs[-1]]
        if len(vs) == 3:
            lo, mid, hi = vs
            ok = lo != mid != hi
            ints = type(lo) is int and type(mid) is int and type(hi) is int
        elif len(vs) == 2:
            lo, hi = vs
            ok = lo != hi
            ints = type(lo) is int and type(hi) is int
        else:
            ok = False
        if not ok:
            raise EdgeSizeError(f"hyperedge {tuple(raw)!r} must have 2 or 3 distinct vertices")
        if not (ints and lo >= 0 and hi < n):
            for v in vs:  # int subclasses other than bool pass here
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise VertexOutOfRangeError(f"vertex {v!r} out of range [0, {n}) in edge {vs}")
        edges.append(vs)
    edges.sort()
    # the first edge holding each pair: a repeated edge meets its earlier
    # copy at its first pair, before any other edge could share one
    first: dict[int, Edge] = {}
    claim = first.setdefault
    for e in edges:
        a, b = e[0], e[1]
        an = a * n
        if (other := claim(an + b, e)) is not e:
            _shared(other, e, (a, b))
        if len(e) == 3:
            c = e[2]
            if (other := claim(an + c, e)) is not e:
                _shared(other, e, (a, c))
            if (other := claim(b * n + c, e)) is not e:
                _shared(other, e, (b, c))
    return LinearHypergraph(n=n, edges=tuple(edges))


def _shared(other: Edge, e: Edge, pair: tuple[int, int]) -> None:
    """Raise for edge ``e`` meeting the earlier edge ``other`` at ``pair``."""
    if other == e:
        raise DuplicateEdgeError(f"hyperedge {e} appears twice")
    raise LinearityError(f"edges {other} and {e} share the pair {pair}")


def shadow(h: LinearHypergraph) -> ShadowGraph:
    """Two-shadow of ``h``, its pairs in ascending order.  By linearity no
    two edges give the same pair, so the pairs are sorted, not deduplicated."""
    pairs = [p for e in h.edges for p in itertools.combinations(e, 2)]
    pairs.sort()
    return ShadowGraph(n=h.n, pairs=tuple(pairs))


def degree(h: LinearHypergraph, v: int) -> int:
    """Number of hyperedges incident to ``v``."""
    _check_vertex(h, v)
    return sum(1 for e in h.edges if v in e)


def shadow_degree(h: LinearHypergraph, v: int) -> int:
    """Number of shadow pairs incident to ``v``.

    For a linear hypergraph this equals the sum of (|e|-1) over edges
    containing ``v``, since no two edges repeat a pair.
    """
    _check_vertex(h, v)
    return sum(len(e) - 1 for e in h.edges if v in e)


def edge_components(h: LinearHypergraph) -> list[list[int]]:
    """The components that contain an edge, found over the edges only, so
    the cost does not grow with the isolated vertices.  Each component is
    sorted; the list is in no particular order."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in h.edges:
        r = find(e[0])
        for v in e[1:]:
            parent[find(v)] = r
    groups: dict[int, list[int]] = {}
    for v in sorted(parent):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def disjoint_union(*parts: LinearHypergraph) -> LinearHypergraph:
    """Disjoint union, validated once: each part is shifted up by the parts before it."""
    shifts = itertools.accumulate((h.n for h in parts), initial=0)
    edges = [tuple(v + s for v in e) for h, s in zip(parts, shifts) for e in h.edges]
    return validate(sum(h.n for h in parts), edges)


def _check_vertex(h: LinearHypergraph, v: int) -> None:
    if not 0 <= v < h.n:
        raise VertexOutOfRangeError(f"vertex {v} out of range [0, {h.n})")


# ---------------------------------------------------------------------------
# .hg text format: "n m" header, then m lines of 2 or 3 vertex indices.
# Lines starting with '#' are comments.
# ---------------------------------------------------------------------------

def parse_hg(text: str) -> LinearHypergraph:
    """Parse the .hg text format, running full validation."""
    lines = [s for ln in text.splitlines() if (s := ln.strip()) and s[0] != "#"]
    if not lines:
        raise FormatError("empty .hg input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}") from None
    body = lines[1:]
    if len(body) != m:
        raise FormatError(f"header declares {m} edges but {len(body)} lines follow")
    edges = []
    for ln in body:
        try:
            edges.append(tuple(map(int, ln.split())))
        except ValueError:
            raise FormatError(f"non-integer vertex in line {ln!r}") from None
    return validate(n, edges)


def format_hg(h: LinearHypergraph) -> str:
    """Serialize to the .hg text format (round-trips through parse_hg)."""
    out = [f"{h.n} {h.m}"]
    for e in h.edges:
        out.append(" ".join(str(v) for v in e))
    return "\n".join(out) + "\n"


def load_hg(path) -> LinearHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_hg(text)
