"""Structural checks around a longest Berge cycle.

For a cycle C = v_0,h_0,...,v_{l-1},h_{l-1},v_0 and an off-cycle vertex u:

* ``S(u)``: cycle vertices adjacent to u through non-defining hyperedges;
* ``L(u)``: cycle vertices v_i whose defining hyperedge is {v_i, v_{i+1}, u};
* ``R(u)``: L(u) shifted one step forward along the cycle.

If C is a *longest* Berge cycle, these sets obey shifted-disjointness laws:
hitting a forbidden overlap would let the cycle absorb u (or a whole
off-cycle hyperedge, or two hyperedges sharing a vertex) and grow, which is
impossible.  The checkers below test those laws; a reported violation
therefore means either the supplied cycle is not maximum or the law fails,
both worth surfacing.

Positions are 0-based indices into the cycle's vertex sequence.  Set
arguments and results at the mask level use bit i for position i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadSharingPatternError,
    TripleTouchesCycleError,
    VertexOnCycleError,
    VertexOutOfRangeError,
)
from .hypergraph import Edge, LinearHypergraph
from .solver import BergeCycle, is_valid_berge_cycle


@dataclass(frozen=True)
class CycleContext:
    """A Berge cycle with its third-vertex map, ready for structural checks.

    ``third_vertex[i]`` is the vertex of the size-3 defining hyperedge h_i
    besides v_i and v_{i+1} (None for 2-edges); it may itself lie on the
    cycle.  Maximality of the cycle is the caller's responsibility: feeding
    a non-maximum cycle makes violations possible (and is how the checkers
    are negatively tested).
    """

    cycle: BergeCycle
    third_vertex: tuple[int | None, ...]

    @classmethod
    def from_cycle(cls, h: LinearHypergraph, cycle: BergeCycle) -> "CycleContext":
        if not is_valid_berge_cycle(h, cycle):
            raise ValueError("not a valid Berge cycle of this hypergraph")
        ell = cycle.length
        third = []
        for i in range(ell):
            e = cycle.hyperedges[i]
            if len(e) == 3:
                vi, vj = cycle.vertices[i], cycle.vertices[(i + 1) % ell]
                third.append(e[0] + e[1] + e[2] - vi - vj)
            else:
                third.append(None)
        return cls(cycle=cycle, third_vertex=tuple(third))

    @property
    def length(self) -> int:
        return self.cycle.length

    @cached_property
    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.cycle.vertices)}


@dataclass(frozen=True)
class PeripheralSets:
    """S, L, R of one off-cycle vertex, as vertex sets."""

    u: int
    s: frozenset[int]
    l: frozenset[int]
    r: frozenset[int]


@dataclass(frozen=True)
class Violation:
    """One failed disjointness law.

    ``condition`` spells out which overlap was found; ``position`` is the
    cycle index of the offending defining vertex; ``witnesses`` are
    hyperedges certifying the two memberships where applicable.
    """

    kind: str
    us: tuple[int, ...]
    position: int
    condition: str
    witnesses: tuple[Edge, ...]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": list(self.us),
            "position": self.position,
            "condition": self.condition,
            "witnesses": [list(e) for e in self.witnesses],
        }


# ---------------------------------------------------------------------------
# position-mask kernel (shared with the enumeration campaigns)
# ---------------------------------------------------------------------------

def shift_mask(mask: int, offset: int, ell: int) -> int:
    """Rotate a position mask by ``offset`` (positive = forward) mod ell."""
    offset %= ell
    if offset == 0:
        return mask
    full = (1 << ell) - 1
    return ((mask << offset) | (mask >> (ell - offset))) & full


def claim_plus_hit(s_mask: int, l_mask: int, ell: int) -> tuple[str, int] | None:
    """(condition, p) for the first position p with v_p in (S∪L) ∩ S⁻, or
    None when the law holds."""
    hit = (s_mask | l_mask) & shift_mask(s_mask, -1, ell)
    if not hit:
        return None
    return "(S∪L) ∩ shift(S,-1) nonempty", (hit & -hit).bit_length() - 1


def claim_pair_hit(si: int, li: int, sj: int, lj: int, ell: int,
                   max_shift: int) -> tuple[str, int] | None:
    """First violated condition for an ordered vertex pair (u_i, u_j).

    ``max_shift`` 2 checks (S_i∪L_i) against (S_j∪L_j)⁻ and S_j⁻⁻;
    ``max_shift`` 3 additionally uses (S_j∪L_j)⁻⁻ and S_j⁻⁻⁻.
    Returns (condition, position) or None.
    """
    sli = si | li
    slj = sj | lj
    if max_shift == 2:
        conds = ((1, "SL", slj), (2, "S", sj))
    else:
        conds = ((1, "SL", slj), (2, "SL", slj), (3, "S", sj))
    for offset, name, right in conds:
        hit = sli & shift_mask(right, -offset, ell)
        if hit:
            return (f"(S∪L) ∩ shift({name},-{offset}) nonempty",
                    (hit & -hit).bit_length() - 1)
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def shift(positions, offset: int, ell: int) -> frozenset[int]:
    """Cycle positions shifted by ``offset`` (mod ell).

    shift(P, +1) sends position i to i+1 (the set "shifted right");
    shift(P, -1) is its inverse.
    """
    if ell <= 0:
        raise ValueError("cycle length must be positive")
    out = []
    for p in positions:
        if not 0 <= p < ell:
            raise ValueError(f"position {p} out of range [0, {ell})")
        out.append((p + offset) % ell)
    return frozenset(out)


def peripheral_sets(h: LinearHypergraph, ctx: CycleContext, u: int) -> PeripheralSets:
    """S(u), L(u), R(u) for an off-cycle vertex ``u``."""
    s_mask, l_mask = _peripheral_masks(h, ctx, u)
    ell = ctx.length
    vs = ctx.cycle.vertices
    return PeripheralSets(
        u=u,
        s=frozenset(vs[p] for p in _bits(s_mask)),
        l=frozenset(vs[p] for p in _bits(l_mask)),
        r=frozenset(vs[(p + 1) % ell] for p in _bits(l_mask)),
    )


def check_claim_plus(h: LinearHypergraph, ctx: CycleContext, u: int) -> Violation | None:
    """Law for a single off-cycle vertex: (S(u) ∪ L(u)) ∩ S(u)⁻ is empty.

    A hit at position p means u is joined to both v_p and v_{p+1} in a way
    that splices u between them, extending the cycle.
    """
    hit = claim_plus_hit(*_peripheral_masks(h, ctx, u), ctx.length)
    if hit is None:
        return None
    condition, p = hit
    # p and p + 1 both lie in S (p in L would put u and v_{p+1} in the
    # defining h_p), so each witness is the one edge through its pair
    vs = ctx.cycle.vertices
    return Violation(
        kind="claim-plus",
        us=(u,),
        position=p,
        condition=condition,
        witnesses=tuple(_edge_through(h, u, vs[q % ctx.length]) for q in (p, p + 1)),
    )


def check_claim_plus_plus(h: LinearHypergraph, ctx: CycleContext,
                          triple: Edge) -> Violation | None:
    """Law for a hyperedge {u1,u2,u3} disjoint from the cycle.

    For every ordered pair (u_i, u_j): (S(u_i)∪L(u_i)) misses both
    shift(S(u_j)∪L(u_j), -1) and shift(S(u_j), -2).
    """
    ev = _checked_off_cycle_triple(h, ctx, triple)
    return _pair_law(h, ctx, list(itertools.permutations(ev, 2)), 2,
                     "claim-plus-plus", (triple,))


def check_claim_triple(h: LinearHypergraph, ctx: CycleContext,
                       e1: Edge, e2: Edge) -> Violation | None:
    """Law for two off-cycle hyperedges sharing exactly one vertex.

    With e1 = {u1,u2,u3}, e2 = {u1,u4,u5} sharing u1, every pair (u_i, u_j)
    with u_i from e1 and u_j from e2 (both != u1) must satisfy the shifted
    disjointness up to offset 3.
    """
    ev1 = _checked_off_cycle_triple(h, ctx, e1)
    ev2 = _checked_off_cycle_triple(h, ctx, e2)
    shared = set(ev1) & set(ev2)
    if len(shared) != 1:
        raise BadSharingPatternError(
            f"edges must share exactly one vertex; {e1} and {e2} share {sorted(shared)}"
        )
    u1 = shared.pop()
    lefts = [u for u in ev1 if u != u1]
    rights = [u for u in ev2 if u != u1]
    return _pair_law(h, ctx, list(itertools.product(lefts, rights)), 3,
                     "claim-triple", (e1, e2))


def check_laws(h: LinearHypergraph, ctx: CycleContext) -> tuple[list[Violation], int, int, int]:
    """Every structural law around one oriented cycle.

    Returns the violations (vertex laws first, then hyperedge laws, then
    sharing-pair laws) and the numbers of off-cycle vertices, off-cycle
    triples and sharing pairs checked.  Every off-cycle vertex is counted,
    but only those in some edge are walked: an isolated vertex has empty S
    and L, so it passes, and a huge vertex count costs nothing.
    """
    off = sorted(set().union(*h.edges) - ctx.position.keys())
    triples = off_cycle_triples(h, ctx)
    pairs = sharing_pairs(triples)
    found = [check_claim_plus(h, ctx, u) for u in off]
    found += [check_claim_plus_plus(h, ctx, t) for t in triples]
    found += [check_claim_triple(h, ctx, e1, e2) for e1, e2 in pairs]
    return [v for v in found if v is not None], h.n - ctx.length, len(triples), len(pairs)


def off_cycle_triples(h: LinearHypergraph, ctx: CycleContext) -> list[Edge]:
    """Size-3 hyperedges with no vertex on the cycle."""
    return [e for e in h.edges
            if len(e) == 3 and not any(v in ctx.position for v in e)]


def sharing_pairs(triples) -> list[tuple[Edge, Edge]]:
    """Ordered pairs of distinct triples sharing exactly one vertex."""
    out = []
    for e1, e2 in itertools.permutations(triples, 2):
        if len(set(e1) & set(e2)) == 1:
            out.append((e1, e2))
    return out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _peripheral_masks(h: LinearHypergraph, ctx: CycleContext, u: int) -> tuple[int, int]:
    if not 0 <= u < h.n:
        raise VertexOutOfRangeError(f"vertex {u} out of range [0, {h.n})")
    if u in ctx.position:
        raise VertexOnCycleError(f"vertex {u} is a defining vertex of the cycle")
    pos = ctx.position
    defining = set(ctx.cycle.hyperedges)
    s_mask = 0
    for e in h.edges:
        if u not in e or e in defining:
            continue
        for w in e:
            if w != u:
                p = pos.get(w)
                if p is not None:
                    s_mask |= 1 << p
    l_mask = 0
    for i, x in enumerate(ctx.third_vertex):
        if x == u:
            l_mask |= 1 << i
    return s_mask, l_mask


def _pair_law(h: LinearHypergraph, ctx: CycleContext, pairs: list, max_shift: int,
              kind: str, witnesses: tuple[Edge, ...]) -> Violation | None:
    """The first ordered vertex pair of ``pairs`` whose shifted disjointness
    up to ``max_shift`` fails (see ``claim_pair_hit``), as a Violation."""
    masks = {u: _peripheral_masks(h, ctx, u) for u in set().union(*pairs)}
    for ui, uj in pairs:
        hit = claim_pair_hit(*masks[ui], *masks[uj], ctx.length, max_shift)
        if hit is not None:
            condition, p = hit
            return Violation(
                kind=kind,
                us=(ui, uj),
                position=p,
                condition=condition,
                witnesses=witnesses,
            )
    return None


def _checked_off_cycle_triple(h: LinearHypergraph, ctx: CycleContext, e) -> Edge:
    ev = tuple(sorted(e))
    if ev not in set(h.edges):
        raise ValueError(f"{tuple(e)!r} is not a hyperedge of this hypergraph")
    if len(ev) != 3:
        raise BadSharingPatternError(f"{ev} is not a size-3 hyperedge")
    touching = [v for v in ev if v in ctx.position]
    if touching:
        raise TripleTouchesCycleError(
            f"hyperedge {ev} meets the cycle at {touching}"
        )
    return ev


def _edge_through(h: LinearHypergraph, u: int, v: int) -> Edge:
    """The one hyperedge holding both u and v, which the caller knows exists."""
    return next(e for e in h.edges if u in e and v in e)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
