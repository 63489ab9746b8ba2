import itertools
import random

import pytest

from berge import (
    DuplicateEdgeError,
    EdgeSizeError,
    FormatError,
    LinearityError,
    VertexOutOfRangeError,
    degree,
    disjoint_union,
    format_hg,
    parse_hg,
    shadow,
    shadow_degree,
    validate,
)
from berge.hypergraph import edge_components


def test_validate_single_triple():
    h = validate(3, [(0, 1, 2)])
    assert h.m == 1 and h.n == 3


def test_validate_rejects_shared_pair():
    with pytest.raises(LinearityError):
        validate(4, [(0, 1, 2), (0, 1, 3)])


def test_validate_fano_pair_coverage(fano):
    # brute force: all 21 pairs covered exactly once
    count = {p: 0 for p in itertools.combinations(range(7), 2)}
    for e in fano.edges:
        for p in itertools.combinations(e, 2):
            count[p] += 1
    assert all(c == 1 for c in count.values())


@pytest.mark.parametrize("bad,err", [
    ([(0, 1, 2, 3)], EdgeSizeError),
    ([(0,)], EdgeSizeError),
    ([(0, 0, 1)], EdgeSizeError),
    ([(0, 5)], VertexOutOfRangeError),
    ([(0, 1), (1, 0)], DuplicateEdgeError),
    ([(-1, 1)], VertexOutOfRangeError),
])
def test_validate_rejections(bad, err):
    with pytest.raises(err):
        validate(3, bad)


def test_validate_edge_order_irrelevant():
    assert validate(4, [(2, 1, 0), (3, 0)]) == validate(4, [(0, 3), (0, 1, 2)])


def test_empty_and_edgeless_are_legal():
    assert validate(0, []).n == 0
    with pytest.raises(VertexOutOfRangeError):
        validate(-1, [])
    assert validate(5, []).m == 0


def test_shadow_counts(fano, one_triple):
    assert shadow(one_triple).edge_count == 3
    assert shadow(fano).edge_count == 21
    h = validate(5, [(0, 1), (2, 3, 4)])
    assert shadow(h).edge_count == 4


def test_shadow_count_identity_random():
    # e(shadow) = m2 + 3*m3 for linear hypergraphs
    rng = random.Random(7)
    from berge.enumeration import random_linear

    for i in range(200):
        h = random_linear(rng.randint(1, 9), random.Random(f"shadow:{i}"))
        m2 = sum(1 for e in h.edges if len(e) == 2)
        assert shadow(h).edge_count == m2 + 3 * (h.m - m2)


def test_shadow_cover_single_valued(fano):
    # each shadow pair lies in exactly one hyperedge; pairs come sorted
    sg = shadow(fano)
    assert list(sg.pairs) == sorted(sg.pairs)
    for p in sg.pairs:
        assert len([f for f in fano.edges if set(p) <= set(f)]) == 1
    assert shadow(validate(5, [(2, 3, 4), (0, 1)])).pairs == ((0, 1), (2, 3), (2, 4), (3, 4))


def test_degrees(fano, one_triple):
    for v in range(7):
        assert degree(fano, v) == 3
        assert shadow_degree(fano, v) == 6
    assert degree(one_triple, 0) == 1
    assert shadow_degree(one_triple, 0) == 2
    h = validate(4, [(0, 1, 2)])
    assert degree(h, 3) == 0 and shadow_degree(h, 3) == 0
    with pytest.raises(VertexOutOfRangeError):
        degree(h, 4)
    with pytest.raises(VertexOutOfRangeError):
        shadow_degree(h, -1)


def test_shadow_degree_sum_is_twice_shadow():
    from berge.enumeration import random_linear

    for i in range(100):
        h = random_linear(8, random.Random(f"deg:{i}"))
        total = sum(shadow_degree(h, v) for v in range(h.n))
        assert total == 2 * shadow(h).edge_count


def test_edge_components(fano, two_triples):
    # isolated vertices form no component here
    assert edge_components(fano) == [list(range(7))]
    assert sorted(edge_components(two_triples)) == [[0, 1, 2], [3, 4, 5]]
    assert edge_components(validate(4, [])) == []
    assert sorted(edge_components(validate(6, [(4, 5), (0, 2, 4)]))) == [[0, 2, 4, 5]]


def test_disjoint_union(fano, one_triple):
    du = disjoint_union(fano, fano)
    assert (du.n, du.m) == (14, 14)
    assert shadow(du).edge_count == 2 * shadow(fano).edge_count
    assert disjoint_union(fano, validate(0, [])) == fano
    tt = disjoint_union(one_triple, one_triple)
    assert tt.n == 6 and tt.m == 2 and len(edge_components(tt)) == 2
    assert disjoint_union() == validate(0, [])
    assert disjoint_union(fano) == fano
    path = validate(4, [(0, 1), (1, 2, 3)])
    three = disjoint_union(one_triple, fano, path)
    assert three == disjoint_union(disjoint_union(one_triple, fano), path)
    assert three == disjoint_union(one_triple, disjoint_union(fano, path))
    assert (three.n, three.m) == (14, 10)


def test_hg_round_trip(fano):
    assert parse_hg(format_hg(fano)) == fano
    text = "# comment\n3 1\n0 1 2\n"
    assert parse_hg(text) == validate(3, [(0, 1, 2)])


@pytest.mark.parametrize("text", [
    "",
    "3\n",
    "3 2\n0 1 2\n",
    "x y\n0 1\n",
    "3 1\n0 z 2\n",
])
def test_hg_format_errors(text):
    with pytest.raises(FormatError):
        parse_hg(text)


def test_hg_semantic_errors_use_validation():
    with pytest.raises(LinearityError):
        parse_hg("4 2\n0 1 2\n0 1 3\n")
    with pytest.raises(VertexOutOfRangeError):
        parse_hg("3 1\n0 1 5\n")
