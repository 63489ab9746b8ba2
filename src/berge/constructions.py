"""Generators for extremal and near-extremal families.

The Steiner triple systems come from the two classical quasigroup
constructions: Bose for n ≡ 3 (mod 6) and Skolem for n ≡ 1 (mod 6), which
together cover every admissible order.  All generators are deterministic,
emitting a fixed canonical labeling for a given parameter.
"""

from __future__ import annotations

import itertools

from .errors import BadParityError, BadResidueError
from .hypergraph import LinearHypergraph, disjoint_union, validate


def fano() -> LinearHypergraph:
    """The 7-point, 7-triple system covering every pair exactly once."""
    triples = [
        (0, 1, 2), (0, 3, 4), (0, 5, 6),
        (1, 3, 5), (1, 4, 6),
        (2, 3, 6), (2, 4, 5),
    ]
    return validate(7, triples)


def _quasigroup_triples(q: int, op) -> list[tuple[int, int, int]]:
    """The triples that the commutative quasigroup x∘y = ``op(x, y)`` on Z_q
    gives on Z_q x {0,1,2}, point (x, lvl) labeled x*3 + lvl: {(x, 0), (x, 1),
    (x, 2)} for each x = x∘x, and {(x, lvl), (y, lvl), (x∘y, lvl + 1 mod 3)}
    for x < y and each level."""
    triples = [(x * 3, x * 3 + 1, x * 3 + 2) for x in range(q) if op(x, x) == x]
    for x in range(q):
        for y in range(x + 1, q):
            z = op(x, y)
            for lvl in range(3):
                triples.append((x * 3 + lvl, y * 3 + lvl, z * 3 + (lvl + 1) % 3))
    return triples


def sts_bose(n: int) -> LinearHypergraph:
    """Steiner triple system on n points for n ≡ 3 (mod 6).

    Points are Z_q x {0,1,2} with q = n/3 odd, labeled i*3 + level.  Uses
    the idempotent commutative quasigroup x∘y = (x+y)(q+1)/2 mod q.
    """
    if n < 3 or n % 6 != 3:
        raise BadResidueError(f"Bose construction needs n ≡ 3 (mod 6), n >= 3; got {n}")
    q = n // 3
    half = (q + 1) // 2  # multiplicative inverse of 2 mod q
    return validate(n, _quasigroup_triples(q, lambda x, y: ((x + y) * half) % q))


def sts_skolem(n: int) -> LinearHypergraph:
    """Steiner triple system on n points for n ≡ 1 (mod 6).

    Points are Z_{2t} x {0,1,2} plus one extra point, with the
    half-idempotent commutative quasigroup on Z_{2t}:
    x∘y = s/2 if s = x+y mod 2t is even, else (s-1)/2 + t.
    """
    if n < 7 or n % 6 != 1:
        raise BadResidueError(f"Skolem construction needs n ≡ 1 (mod 6), n >= 7; got {n}")
    t = n // 6
    q = 2 * t
    inf = n - 1

    def op(x: int, y: int) -> int:
        s = (x + y) % q
        return s // 2 if s % 2 == 0 else (s - 1) // 2 + t

    triples = _quasigroup_triples(q, op)   # x = x∘x for x < t only
    for x in range(t):
        for lvl in range(3):
            triples.append((inf, (t + x) * 3 + lvl, x * 3 + (lvl + 1) % 3))
    return validate(n, triples)


def steiner_triple_system(n: int) -> LinearHypergraph:
    """STS(n) via whichever of Bose/Skolem matches n's residue class."""
    if n % 6 == 3:
        return sts_bose(n)
    if n % 6 == 1 and n >= 7:
        return sts_skolem(n)
    raise BadResidueError(f"a Steiner triple system requires n ≡ 1 or 3 (mod 6), n >= 3; got {n}")


def extremal_disjoint_sts(k: int, copies: int) -> LinearHypergraph:
    """``copies`` disjoint Steiner triple systems on k points each.

    On n = k*copies vertices this has exactly (k-1)n/6 hyperedges and no
    Berge path of length k, which makes the edge bound for path-free
    3-uniform linear hypergraphs tight.
    """
    if copies < 1:
        raise BadResidueError(f"need at least one copy, got {copies}")
    return disjoint_union(*[steiner_triple_system(k)] * copies)


def star_k3(n: int) -> LinearHypergraph:
    """(n-1)/2 triples all sharing vertex 0, for odd n >= 3.

    Shadow has 3(n-1)/2 edges and the longest Berge path is 2: the extremal
    family for forbidden path length 3.  At n = 3 it ties with the triangle
    of three 2-edges, which has no length-3 path either (that needs four
    vertices); for odd n >= 5 it is the unique extremal class.
    """
    if n < 3 or n % 2 == 0:
        raise BadParityError(f"star construction needs odd n >= 3; got {n}")
    triples = [(0, 2 * i + 1, 2 * i + 2) for i in range((n - 1) // 2)]
    return validate(n, triples)


def matching_k2(n: int) -> LinearHypergraph:
    """n/3 pairwise disjoint triples, for n ≡ 0 (mod 3).

    Shadow has n edges and the longest Berge path is 1: the extremal family
    for forbidden path length 2.
    """
    if n < 3 or n % 3 != 0:
        raise BadResidueError(f"triple matching needs n ≡ 0 (mod 3), n >= 3; got {n}")
    triples = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n // 3)]
    return validate(n, triples)


def two_edge_clique(n: int) -> LinearHypergraph:
    """All C(n,2) pairs as 2-edges (trivially linear)."""
    if n < 1:
        raise BadResidueError(f"need n >= 1, got {n}")
    return validate(n, list(itertools.combinations(range(n), 2)))


# each family's generator and the parameters it takes, in listing order
_TAKES = {
    "fano": (fano, ()),
    "sts_bose": (sts_bose, ("n",)),
    "sts_skolem": (sts_skolem, ("n",)),
    "disjoint_sts": (extremal_disjoint_sts, ("k", "copies")),
    "star_k3": (star_k3, ("n",)),
    "matching_k2": (matching_k2, ("n",)),
    "two_edge_clique": (two_edge_clique, ("n",)),
}
FAMILIES = tuple(_TAKES)


def build(family: str, n: int | None = None, k: int | None = None,
          copies: int | None = None) -> LinearHypergraph:
    """Dispatch a family name plus the parameters it takes to its generator;
    a missing parameter, or one the family does not take, is a ValueError."""
    if family not in _TAKES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    generator, names = _TAKES[family]
    given = {"n": n, "k": k, "copies": copies}
    for name, value in given.items():
        if value is None and name in names:
            raise ValueError(f"this family requires --{name}")
        if value is not None and name not in names:
            raise ValueError(f"family {family} does not take --{name}")
    return generator(*(given[name] for name in names))
