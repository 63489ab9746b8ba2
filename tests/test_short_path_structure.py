"""Structural facts about connected hypergraphs with no Berge path of
length 4, checked by exhaustive enumeration at small n.

These pin down the shape of the shortest nontrivial forbidden-path case:
acyclic instances obey the star bound, and a 4-cycle (or a triangle made of
size-3 edges) forces the whole connected hypergraph to be that cycle.
"""

import itertools

from berge import has_berge_path, longest_berge_cycle, shadow
from berge.enumeration import enumerate_hypergraphs
from berge.hypergraph import edge_components


def _path4_free_connected(n):
    """All connected BP_4-free instances on exactly n vertices."""
    out = []

    def visit(h):
        if has_berge_path(h, 4):
            return False   # supersets all contain the path too
        # connected: every n here is >= 3, so no edgeless instance is
        if edge_components(h) == [list(range(n))]:
            out.append(h)
        return True

    enumerate_hypergraphs(n, "23", visit)
    return out


def _has_triple_triangle(h):
    triples = [e for e in h.edges if len(e) == 3]
    for a, b, c in itertools.combinations(triples, 3):
        shared_ab = set(a) & set(b)
        shared_bc = set(b) & set(c)
        shared_ca = set(c) & set(a)
        if shared_ab and shared_bc and shared_ca:
            # linearity gives at most one shared vertex per pair; a triangle
            # needs three distinct contact vertices
            x, y, z = (shared_ab.pop(), shared_bc.pop(), shared_ca.pop())
            if len({x, y, z}) == 3:
                return True
    return False


def test_acyclic_connected_obeys_star_bound():
    for n in range(3, 7):
        best = 0
        for h in _path4_free_connected(n):
            if longest_berge_cycle(h) is None:
                best = max(best, shadow(h).edge_count)
                assert 2 * shadow(h).edge_count <= 3 * (n - 1)
        if n % 2 == 1:
            assert 2 * best == 3 * (n - 1)   # stars attain it


def test_four_cycle_forces_at_most_four_vertices():
    # with no path of length 4, a cycle of length 4 caps the circumference,
    # and connectivity then pins the whole vertex set to the cycle
    for n in (5, 6):
        for h in _path4_free_connected(n):
            c = longest_berge_cycle(h)
            assert c is None or c.length != 4
    found = [h for h in _path4_free_connected(4)
             if (c := longest_berge_cycle(h)) is not None and c.length == 4]
    assert found


def test_triple_triangle_is_the_whole_hypergraph():
    hits = 0
    for h in _path4_free_connected(6):
        if _has_triple_triangle(h):
            hits += 1
            assert h.m == 3
            assert shadow(h).edge_count == 9 == 3 * h.n // 2
    assert hits > 0


def test_mixed_triangle_with_two_triples():
    # a triangle made of two size-3 edges and one pair: again the whole
    # hypergraph (linearity forces the pair to join the triples' private
    # vertices, so detection below really is a Berge triangle)
    hits = 0
    for h in _path4_free_connected(5):
        triples = [e for e in h.edges if len(e) == 3]
        pairs = [e for e in h.edges if len(e) == 2]
        for a, b in itertools.combinations(triples, 2):
            if not set(a) & set(b):
                continue
            for p in pairs:
                if set(p) <= set(a) | set(b):
                    hits += 1
                    assert h.m == 3
                    assert shadow(h).edge_count == 7
    assert hits > 0
